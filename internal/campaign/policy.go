package campaign

import (
	"context"
	"fmt"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/policy"
)

// A policy study (Spec.PolicyProfile) is two waves of ordinary jobs on
// one engine and one record store. Wave 1 profiles every grid point: the
// point's job with the flow profiler attached (Job.withProfile), whose
// record carries the flow table policies decide from. Wave 2 re-runs
// the point under each policy whose decision changes its config
// (Spec.reruns). RunSpec runs both; Resolve finds both in a store;
// Report is the policy view over them.

// PolicyOutcome compares one policy's re-run against the static
// baseline of the same grid point.
type PolicyOutcome struct {
	Label   string `json:"label"`
	Policy  string `json:"policy"`
	BaseKey string `json:"base_key"`
	// RunKey is the key of the plain job the decision's config makes.
	// For the static policy it equals BaseKey: the empty decision leaves
	// the config as it was, so no re-run is scheduled and the outcome
	// reads the profiling run's record.
	RunKey   string          `json:"run_key"`
	Decision policy.Decision `json:"decision"`
	// Err carries a failed profiling run, an inapplicable decision or a
	// failed re-run; metric fields are zero when set.
	Err string `json:"error,omitempty"`

	BaseEnergyPerFlit float64 `json:"base_energy_per_flit_pj"`
	EnergyPerFlit     float64 `json:"energy_per_flit_pj"`
	// EnergyDeltaPct is the energy-per-flit change vs the baseline:
	// negative is an improvement.
	EnergyDeltaPct  float64 `json:"energy_delta_pct"`
	BaseAvgLatency  float64 `json:"base_avg_latency_cycles"`
	AvgLatency      float64 `json:"avg_latency_cycles"`
	LatencyDeltaPct float64 `json:"latency_delta_pct"`
	BaseThroughput  float64 `json:"base_throughput"`
	Throughput      float64 `json:"throughput"`
}

// PolicyReport is a policy study's comparison: one outcome per (grid
// point, policy), in grid-then-policy order — computed from records, so
// a local run, a store and a fleet's results give the same report.
type PolicyReport struct {
	ProfileEvery int             `json:"profile_every"`
	Policies     []string        `json:"policies"`
	Outcomes     []PolicyOutcome `json:"outcomes"`
}

// EnergyPerFlit is the record's total energy divided by delivered
// flits (FlitCycles is flits per node). Zero when nothing was delivered.
func EnergyPerFlit(r Record) float64 {
	flits := r.Result.FlitCycles * float64(r.Width*r.Height)
	if flits <= 0 {
		return 0
	}
	return r.Result.EnergyPJ / flits
}

// rerun is one (grid point, policy) pair of a study: the outcome
// without its metrics and, when the decision changes the point's
// config, the wave-2 job that measures it (a zero Key otherwise).
type rerun struct {
	out PolicyOutcome
	job Job
}

// reruns derives grid point j's wave 2 from its wave-1 record: one
// rerun per policy, in spec order. A failed profiling run fails every
// outcome and schedules nothing. It is the one place decisions are
// made, so RunSpec, Resolve and Report necessarily agree on which
// wave-2 jobs a record implies.
func (s *Spec) reruns(j Job, base Record) []rerun {
	out := make([]rerun, len(s.PolicyProfile.Policies))
	var prof *policy.Profile
	if base.Err == "" && base.Telemetry != nil {
		prof = hsnoc.DecisionProfile(j.Config, base.Telemetry)
	}
	for i, name := range s.PolicyProfile.Policies {
		r := &out[i]
		r.out = PolicyOutcome{Label: j.Label, Policy: name, BaseKey: j.Key}
		switch {
		case base.Err != "":
			r.out.Err = "profile run failed: " + base.Err
			continue
		case prof == nil: // a substitute Runner returned no Summary
			r.out.Err = "profile run recorded no flow table"
			continue
		}
		pol, _ := policy.Parse(name) // Normalize has parsed every name
		r.out.Decision = pol.Decide(prof)
		cfg, err := hsnoc.ApplyDecision(j.Config, r.out.Decision)
		if err != nil {
			r.out.Err = err.Error()
			continue
		}
		rj := j.withConfig(cfg)
		r.out.RunKey = rj.Key
		if rj.Key != j.Key {
			rj.Label = fmt.Sprintf("%s/policy=%s", j.Label, pol.Name())
			r.job = rj
		}
	}
	return out
}

// RunSpec runs the grid jobs of a normalized spec — all of Expand, or
// one fleet shard's ShardJobs — and returns their records. A plain
// spec's records are Run's. A policy study runs wave 1, derives wave 2
// from its records and runs that, and returns the records grid point by
// grid point: the wave-1 record, then its re-runs in policy order. So
// consecutive shards' records concatenate to the whole campaign's, and
// Resolve finds them in the same order.
func (e *Engine) RunSpec(ctx context.Context, spec Spec, grid []Job) []Record {
	if spec.PolicyProfile == nil {
		return e.Run(ctx, grid)
	}
	wave1 := make([]Job, len(grid))
	for i, j := range grid {
		wave1[i] = j.withProfile(spec.PolicyProfile.ProfileEvery)
	}
	base := e.Run(ctx, wave1)
	derived := make([][]rerun, len(grid))
	var wave2 []Job
	for i, j := range grid {
		derived[i] = spec.reruns(j, base[i])
		for _, r := range derived[i] {
			if r.job.Key != "" {
				wave2 = append(wave2, r.job)
			}
		}
	}
	rest := e.Run(ctx, wave2)
	recs := make([]Record, 0, len(grid)+len(wave2))
	for i := range grid {
		recs = append(recs, base[i])
		for _, r := range derived[i] {
			if r.job.Key != "" {
				recs, rest = append(recs, rest[0]), rest[1:]
			}
		}
	}
	return recs
}

// Resolve looks up, through lookup (a store's, or an index of fetched
// results), the records RunSpec would return for grid, in RunSpec's
// order. A record lookup cannot find comes back failed with Err "no
// record"; a grid point whose wave-1 record is missing has no wave-2
// keys to look up.
func (s Spec) Resolve(grid []Job, lookup func(key string) (Record, bool)) []Record {
	find := func(j Job) Record {
		if r, ok := lookup(j.Key); ok {
			return r
		}
		r := newRecord(j)
		r.Err = "no record"
		return r
	}
	recs := make([]Record, 0, len(grid))
	for _, j := range grid {
		if s.PolicyProfile == nil {
			recs = append(recs, find(j))
			continue
		}
		base := find(j.withProfile(s.PolicyProfile.ProfileEvery))
		recs = append(recs, base)
		for _, r := range s.reruns(j, base) {
			if r.job.Key != "" {
				recs = append(recs, find(r.job))
			}
		}
	}
	return recs
}

// Report is the policy view of a study's records, which must be in
// RunSpec's order (RunSpec's or Resolve's output for the same grid):
// each outcome's deltas compare its re-run — or, for a decision that
// changed nothing, the profiling run itself — against the profiling
// run. Failed records become outcome errors; one saturated point never
// sinks the comparison.
func (s Spec) Report(grid []Job, recs []Record) *PolicyReport {
	pp := s.PolicyProfile
	rep := &PolicyReport{
		ProfileEvery: pp.ProfileEvery,
		Policies:     append([]string(nil), pp.Policies...),
		Outcomes:     make([]PolicyOutcome, 0, len(grid)*len(pp.Policies)),
	}
	for _, j := range grid {
		base := recs[0]
		recs = recs[1:]
		for _, r := range s.reruns(j, base) {
			out, rec := r.out, base
			if r.job.Key != "" {
				rec, recs = recs[0], recs[1:]
			}
			switch {
			case out.Err != "":
			case rec.Err != "":
				out.Err = rec.Err
			default:
				out.BaseEnergyPerFlit = EnergyPerFlit(base)
				out.EnergyPerFlit = EnergyPerFlit(rec)
				out.EnergyDeltaPct = deltaPct(out.BaseEnergyPerFlit, out.EnergyPerFlit)
				out.BaseAvgLatency = base.Result.AvgNetLatency()
				out.AvgLatency = rec.Result.AvgNetLatency()
				out.LatencyDeltaPct = deltaPct(out.BaseAvgLatency, out.AvgLatency)
				out.BaseThroughput = base.Result.Throughput()
				out.Throughput = rec.Result.Throughput()
			}
			rep.Outcomes = append(rep.Outcomes, out)
		}
	}
	return rep
}

// deltaPct is the relative change new vs base in percent (0 when the
// base is zero — no meaningful delta against nothing).
func deltaPct(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (new - base) / base * 100
}
