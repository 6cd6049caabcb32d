package campaign

import (
	"context"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/policy"
)

// A policy study (Spec.PolicyProfile) is two waves of ordinary jobs on
// one engine and one record store. Wave 1 profiles every grid point: the
// point's job with the flow profiler attached (Job.withProfile), whose
// record carries the flow table policies decide from. Wave 2 re-runs
// the point under each policy whose decision changes its config
// (Spec.next). Spec.walk steps from one wave to the next: RunSpec walks
// with the engine, Resolve with a store's lookup. Report is the policy
// view over the records, read by key.

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

// decide makes grid point j's policy decisions from its profiling
// record base: one outcome per policy, in spec order — its decision and
// the key of the run that measures it, or the error that prevents one —
// without metrics, and the re-runs those keys name other than j's own,
// in the same order. A failed profiling run fails every outcome. It is
// the one place decisions are made, so next and Report agree on which
// re-runs a record implies.
func (s *Spec) decide(j Job, base Record) (outs []PolicyOutcome, reruns []Job) {
	outs = make([]PolicyOutcome, len(s.PolicyProfile.Policies))
	var prof *policy.Profile
	if base.Err == "" && base.Telemetry != nil {
		prof = hsnoc.DecisionProfile(j.Config, base.Telemetry)
	}
	for i, name := range s.PolicyProfile.Policies {
		out := &outs[i]
		*out = PolicyOutcome{Label: j.Label, Policy: name, BaseKey: j.Key}
		switch {
		case base.Err != "":
			out.Err = "profile run failed: " + base.Err
			continue
		case prof == nil: // a substitute Runner returned no Summary
			out.Err = "profile run recorded no flow table"
			continue
		}
		pol, _ := policy.Parse(name) // Normalize has parsed every name
		out.Decision = pol.Decide(prof)
		cfg, err := hsnoc.ApplyDecision(j.Config, out.Decision)
		if err != nil {
			out.Err = err.Error()
			continue
		}
		rj := j.withConfig(cfg)
		out.RunKey = rj.Key
		if rj.Key != j.Key {
			rj.Label = j.Label + "/policy=" + pol.Name()
			reruns = append(reruns, rj)
		}
	}
	return outs, reruns
}

// next is a spec's step: the jobs a finished job's record implies. A
// policy study's profiling record implies the re-runs of its grid
// point's decisions; every other job implies none.
func (s *Spec) next(j Job, rec Record) []Job {
	if !j.trackFlows {
		return nil
	}
	_, reruns := s.decide(j.unprofiled(), rec)
	return reruns
}

// walk runs a normalized spec's jobs through run, one wave at a time:
// first grid (profiled, for a policy study), then the jobs the last
// wave's records imply (next), until a wave implies none. It returns
// every wave's records, wave after wave. A plain spec is one wave.
func (s *Spec) walk(grid []Job, run func([]Job) []Record) []Record {
	if s.PolicyProfile == nil {
		return run(grid)
	}
	wave := make([]Job, len(grid))
	for i, j := range grid {
		wave[i] = j.withProfile(s.PolicyProfile.ProfileEvery)
	}
	var recs []Record
	for len(wave) > 0 {
		got := run(wave)
		recs = append(recs, got...)
		var implied []Job
		for i, j := range wave {
			implied = append(implied, s.next(j, got[i])...)
		}
		wave = implied
	}
	return recs
}

// RunSpec runs the grid jobs of a normalized spec — all of Expand, or
// one fleet shard's ShardJobs — and returns the records of every wave
// the spec's walk runs: a plain spec's are Run's, a policy study's are
// its profiling records and then the re-runs they imply.
func (e *Engine) RunSpec(ctx context.Context, spec Spec, grid []Job) []Record {
	return spec.walk(grid, func(wave []Job) []Record { return e.Run(ctx, wave) })
}

// Resolve looks up, through lookup (a store's, or an index of fetched
// results), the records RunSpec would return for grid, in RunSpec's
// order and under its jobs' labels. A record lookup cannot find comes
// back failed with Err "no record", and implies no further jobs.
func (s Spec) Resolve(grid []Job, lookup func(key string) (Record, bool)) []Record {
	return s.walk(grid, func(wave []Job) []Record {
		recs := make([]Record, len(wave))
		for i, j := range wave {
			var ok bool
			if recs[i], ok = lookup(j.Key); !ok {
				recs[i] = newRecord(j)
				recs[i].Err = "no record"
			}
			recs[i].Label = j.Label
		}
		return recs
	})
}

// Lookup indexes records by key, failed ones too, as Report and
// Resolve read them.
func Lookup(recs []Record) func(key string) (Record, bool) {
	byKey := make(map[string]Record, len(recs))
	for _, r := range recs {
		byKey[r.Key] = r
	}
	return func(key string) (Record, bool) {
		r, ok := byKey[key]
		return r, ok
	}
}

// Report is the policy view of a study's records, which lookup finds
// by key (a store's Lookup, or Lookup over RunSpec's records): each
// outcome's deltas compare its re-run — or, for a decision that changed
// nothing, the profiling run itself — against the profiling run. Failed
// or missing records become outcome errors; one saturated point never
// sinks the comparison.
func (s Spec) Report(grid []Job, lookup func(key string) (Record, bool)) *PolicyReport {
	pp := s.PolicyProfile
	rep := &PolicyReport{
		ProfileEvery: pp.ProfileEvery,
		Policies:     append([]string(nil), pp.Policies...),
		Outcomes:     make([]PolicyOutcome, 0, len(grid)*len(pp.Policies)),
	}
	find := func(key string) Record {
		r, ok := lookup(key)
		if !ok {
			r.Key, r.Err = key, "no record"
		}
		return r
	}
	for _, j := range grid {
		base := find(j.withProfile(pp.ProfileEvery).Key)
		outs, _ := s.decide(j, base)
		for _, out := range outs {
			rec := base
			if out.Err == "" && out.RunKey != j.Key {
				rec = find(out.RunKey)
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
