package campaign

import (
	"context"
	"fmt"
	"sync"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/policy"
	"tdmnoc/internal/stats"
)

// SimulateProfile runs one base job with flow-tracking telemetry and
// extracts its traffic profile alongside the ordinary result record.
// The returned record is byte-identical to what plain Simulate would
// persist for the same job — telemetry only observes a run — so
// phase A of the policy loop can seed the shared result store under
// the base job key and a later plain campaign (or the static phase-B
// re-run) cache-hits it.
func SimulateProfile(ctx context.Context, j Job, every int) (stats.RunRecord, *policy.Profile, error) {
	if every <= 0 {
		every = 512
	}
	var prof *policy.Profile
	rr, err := simulate(ctx, j, hsnoc.FlowProfileTelemetry(every), func(s *hsnoc.Simulator, _ *obs.Recorder) (err error) {
		prof, err = s.ExtractProfile()
		return err
	})
	return rr, prof, err
}

// PolicyOutcome compares one policy's re-run against the static
// baseline of the same grid point.
type PolicyOutcome struct {
	Label   string `json:"label"`
	Policy  string `json:"policy"`
	BaseKey string `json:"base_key"`
	// RunKey is the phase-B job key. For the static policy it equals
	// BaseKey — applying the empty decision reproduces the base config
	// bit for bit, which is what makes the baseline a cache hit.
	RunKey   string          `json:"run_key"`
	Decision policy.Decision `json:"decision"`
	// Err carries a phase-A profile failure, an inapplicable decision
	// or a failed re-run; metric fields are zero when set.
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

// PolicyReport is the output of RunPolicyLoop: one outcome per
// (grid point, policy), in grid-then-policy order — deterministic, so
// two runs of the same spec emit identical reports.
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

// RunPolicyLoop executes the profile→re-run policy comparison declared
// by spec.PolicyProfile. Phase A runs every grid point with
// flow-tracking telemetry (through a sub-engine on the same worker
// budget), persists the base record in the engine's result store and
// the extracted profile in profiles (either store may be nil for
// in-memory-only runs). Phase B maps each policy over each profile via
// policy.Decide + hsnoc.ApplyDecision and runs the derived configs
// through the engine — the static baseline re-derives the base config
// exactly, so with a store it never re-simulates. The report carries
// per-point energy-per-flit, latency and throughput deltas against the
// baseline.
func RunPolicyLoop(ctx context.Context, e *Engine, spec Spec, profiles *ProfileStore) (*PolicyReport, error) {
	if spec.PolicyProfile == nil {
		return nil, fmt.Errorf("campaign: spec has no policy_profile section")
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	pp := spec.PolicyProfile
	pols := make([]policy.Policy, len(pp.Policies))
	for i, ps := range pp.Policies {
		pol, err := policy.Parse(ps)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		pols[i] = pol
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}

	// Phase A: profile every grid point, serving cached (record,
	// profile) pairs without simulating. A point whose record is cached
	// but whose profile is not must still re-run: the profile cannot be
	// reconstructed from the record.
	baseRecs := make([]Record, len(jobs))
	profs := make([]*policy.Profile, len(jobs))
	var need []Job
	var needIdx []int
	for i, j := range jobs {
		if profiles != nil && e.store != nil {
			if p, ok := profiles.Lookup(ProfileKey(j, pp.ProfileEvery)); ok {
				if r, rok := e.store.Lookup(j.Key); rok {
					profs[i], baseRecs[i] = p, r
					continue
				}
			}
		}
		need = append(need, j)
		needIdx = append(needIdx, i)
	}
	if len(need) > 0 {
		var mu sync.Mutex
		got := map[string]*policy.Profile{}
		runner := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
			rr, prof, err := SimulateProfile(ctx, j, pp.ProfileEvery)
			if err == nil {
				mu.Lock()
				got[j.Key] = prof
				mu.Unlock()
			}
			// No Summary: the persisted record must stay byte-identical
			// to a plain Simulate record for the same key.
			return rr, nil, err
		}
		// The sub-engine runs without a store — cache decisions were
		// made above, and a store hit here would skip the extraction.
		sub := New(Options{Workers: e.workers, JobTimeout: e.timeout, Runner: runner})
		recs := sub.Run(ctx, need)
		for k, rec := range recs {
			i := needIdx[k]
			baseRecs[i] = rec
			if rec.Err != "" {
				continue
			}
			profs[i] = got[need[k].Key]
			if e.store != nil {
				if _, err := e.store.AppendNew(rec); err != nil {
					return nil, err
				}
			}
			if profiles != nil {
				if err := profiles.Append(ProfileKey(need[k], pp.ProfileEvery), profs[i]); err != nil {
					return nil, err
				}
			}
		}
	}

	// Phase B: one derived job per (grid point, policy). Failed grid
	// points surface as per-policy outcome errors, never as a loop
	// error — one saturated point must not sink the comparison.
	report := &PolicyReport{
		ProfileEvery: pp.ProfileEvery,
		Policies:     append([]string(nil), pp.Policies...),
		Outcomes:     make([]PolicyOutcome, 0, len(jobs)*len(pols)),
	}
	var bjobs []Job
	type slot struct{ out, grid int } // outcome and grid-point index of a phase-B job
	var bslot []slot
	for i, j := range jobs {
		for pi, pol := range pols {
			out := PolicyOutcome{
				Label:   j.Label,
				Policy:  pp.Policies[pi],
				BaseKey: j.Key,
			}
			if baseRecs[i].Err != "" {
				out.Err = fmt.Sprintf("profile run failed: %s", baseRecs[i].Err)
				report.Outcomes = append(report.Outcomes, out)
				continue
			}
			out.Decision = pol.Decide(profs[i])
			cfg, err := hsnoc.ApplyDecision(j.Config, out.Decision)
			if err != nil {
				out.Err = err.Error()
				report.Outcomes = append(report.Outcomes, out)
				continue
			}
			bj := j.withConfig(cfg)
			bj.Label = fmt.Sprintf("%s/policy=%s", j.Label, pol.Name())
			out.RunKey = bj.Key
			bjobs = append(bjobs, bj)
			bslot = append(bslot, slot{len(report.Outcomes), i})
			report.Outcomes = append(report.Outcomes, out)
		}
	}
	brecs := e.Run(ctx, bjobs)
	for k, rec := range brecs {
		out := &report.Outcomes[bslot[k].out]
		if rec.Err != "" {
			out.Err = rec.Err
			continue
		}
		base := baseRecs[bslot[k].grid]
		out.BaseEnergyPerFlit = EnergyPerFlit(base)
		out.EnergyPerFlit = EnergyPerFlit(rec)
		out.EnergyDeltaPct = deltaPct(out.BaseEnergyPerFlit, out.EnergyPerFlit)
		out.BaseAvgLatency = base.Result.AvgNetLatency()
		out.AvgLatency = rec.Result.AvgNetLatency()
		out.LatencyDeltaPct = deltaPct(out.BaseAvgLatency, out.AvgLatency)
		out.BaseThroughput = base.Result.Throughput()
		out.Throughput = rec.Result.Throughput()
	}
	return report, nil
}

// deltaPct is the relative change new vs base in percent (0 when the
// base is zero — no meaningful delta against nothing).
func deltaPct(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (new - base) / base * 100
}
