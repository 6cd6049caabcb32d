// Package campaign is the batch-simulation subsystem: it expands a
// declarative campaign spec (a parameter grid of switching mode,
// workload — a synthetic traffic pattern at an injection rate, or a
// Section V CPU+GPU benchmark mix — mesh size, slot-table size and
// seed) into independent jobs, runs them on a bounded worker pool with
// per-job timeout, cancellation and panic recovery, dedups work
// through a result cache keyed by the canonical config hash, and
// persists results incrementally as JSONL so an interrupted campaign
// resumes without recomputing finished jobs.
//
// The paper's whole evaluation — and the profile-driven sweeps of the
// related hybrid-switching literature — is exactly this workload: a
// large grid of independent (config, seed) simulations. cmd/experiments
// (built-in figures and spec files alike) and the cmd/nocsimd HTTP
// service both execute through this one engine.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/hetero"
	"tdmnoc/internal/policy"
	"tdmnoc/internal/workload"
)

// MeshSize is one topology point of the grid.
type MeshSize struct {
	Width  int `json:"width"`
	Height int `json:"height"`
}

// Spec is a declarative campaign: the cross product of its axes is the
// job list. Zero-valued axes fall back to the Table-I defaults during
// Normalize.
type Spec struct {
	// Name labels the campaign in listings and logs.
	Name string `json:"name,omitempty"`
	// Modes are switching architectures: packet|tdm|sdm.
	Modes []string `json:"modes"`
	// Patterns are the workloads: synthetic traffic patterns
	// (ur|tornado|transpose|bc|neighbor|hotspot) and Section V mixes,
	// spelled mix:<CPU>+<GPU> with the benchmark names of
	// hsnoc.CPUBenchmarks / hsnoc.GPUBenchmarks (e.g. mix:EQUAKE+LPS).
	// Mixes run on packet and tdm only.
	Patterns []string `json:"patterns"`
	// Meshes are topology sizes (default: one 6x6 mesh).
	Meshes []MeshSize `json:"meshes,omitempty"`
	// Rates are offered loads in flits/node/cycle, a synthetic-only
	// axis: a mix offers whatever its benchmarks generate, so it
	// collapses this axis to a single point (recorded as rate 0) and a
	// mix-only spec may leave it empty.
	Rates []float64 `json:"rates"`
	// SlotTables are slot-table capacities, a TDM-only axis (default:
	// the 128-entry Table-I capacity). Non-TDM modes collapse this
	// axis to a single point since it cannot affect them.
	SlotTables []int `json:"slot_tables,omitempty"`
	// Seeds replicate every grid point (default: seed 1).
	Seeds []uint64 `json:"seeds,omitempty"`

	// Scalar options applied to every job.
	PathSharing              bool `json:"path_sharing,omitempty"`
	VCPowerGating            bool `json:"vc_power_gating,omitempty"`
	LatencyBasedVCGating     bool `json:"latency_based_vc_gating,omitempty"`
	DisableTimeSlotStealing  bool `json:"disable_time_slot_stealing,omitempty"`
	DisableDynamicSlotSizing bool `json:"disable_dynamic_slot_sizing,omitempty"`
	// WarmupCycles and MeasureCycles default to the paper's 8000/40000.
	WarmupCycles  int `json:"warmup_cycles,omitempty"`
	MeasureCycles int `json:"measure_cycles,omitempty"`
	// SimWorkers sets per-simulation executor parallelism (default 1;
	// results are bit-identical for any value — the barrier executor
	// and active-node scheduler are digest-verified against serial — so
	// it is not a grid axis and does not enter cache keys). Campaigns
	// usually saturate cores with concurrent jobs instead, but on large
	// meshes with spare cores per job it is now a real speedup knob.
	SimWorkers int `json:"sim_workers,omitempty"`
	// TelemetryEvery, when positive, attaches a per-job observability
	// recorder sampling every K cycles; its deterministic Summary rides
	// in every record (telemetry_every re-keys jobs, so telemetry and
	// plain campaigns never share cached records). Works at any
	// SimWorkers; not available for sdm mode.
	TelemetryEvery int `json:"telemetry_every,omitempty"`
	// CheckInvariants enables the runtime invariant layer on every job.
	// Checking only observes a run (it never changes results), so like
	// SimWorkers it does not enter cache keys; jobs whose checked run
	// reports violations fail with a descriptive Err instead of
	// persisting a corrupt record. Not available for sdm mode.
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// PolicyProfile turns the campaign into a policy study
	// (Engine.RunSpec): wave 1 runs every grid point with the flow
	// profiler attached, wave 2 re-runs each point under every listed
	// policy's decision, and Report gives the energy/latency deltas
	// against the static baseline. Requires tdm-only modes and is
	// mutually exclusive with TelemetryEvery (wave 1 attaches its own
	// recorder).
	PolicyProfile *PolicyProfileSpec `json:"policy_profile,omitempty"`
}

// PolicyProfileSpec is the policy axis of a Spec.
type PolicyProfileSpec struct {
	// Policies are the adaptive policies to compare, in policy.Parse
	// syntax ("static", "threshold:64", "greedy:8", "sdm-gate"). The
	// "static" baseline is prepended when absent — every comparison
	// needs its anchor.
	Policies []string `json:"policies"`
	// ProfileEvery is wave 1's telemetry sampling interval in cycles
	// (default 512). It shapes the window series in the record, not the
	// flow aggregates, and is part of the wave-1 job key.
	ProfileEvery int `json:"profile_every,omitempty"`
}

// ParseSpec reads a JSON spec, rejecting unknown fields so typos fail
// loudly, and normalizes it.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: bad spec: %w", err)
	}
	if err := s.Normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Normalize fills defaulted axes and validates the grid.
func (s *Spec) Normalize() error {
	if len(s.Modes) == 0 {
		return fmt.Errorf("campaign: spec needs at least one mode")
	}
	if len(s.Patterns) == 0 {
		return fmt.Errorf("campaign: spec needs at least one pattern")
	}
	mixes := s.mixCount()
	if len(s.Rates) == 0 && mixes < len(s.Patterns) {
		return fmt.Errorf("campaign: spec needs at least one rate")
	}
	for _, r := range s.Rates {
		if r <= 0 || r > 1 {
			return fmt.Errorf("campaign: rate %v outside (0, 1]", r)
		}
	}
	if len(s.Meshes) == 0 {
		s.Meshes = []MeshSize{{Width: 6, Height: 6}}
	}
	for _, m := range s.Meshes {
		if m.Width <= 0 || m.Height <= 0 {
			return fmt.Errorf("campaign: mesh %dx%d invalid", m.Width, m.Height)
		}
	}
	if len(s.SlotTables) == 0 {
		s.SlotTables = []int{128}
	}
	for _, st := range s.SlotTables {
		if st <= 0 {
			return fmt.Errorf("campaign: slot-table size %d invalid", st)
		}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1}
	}
	if s.WarmupCycles == 0 {
		s.WarmupCycles = 8000
	}
	if s.MeasureCycles == 0 {
		s.MeasureCycles = 40000
	}
	if s.WarmupCycles < 0 || s.MeasureCycles <= 0 {
		return fmt.Errorf("campaign: warmup %d / measure %d cycles invalid", s.WarmupCycles, s.MeasureCycles)
	}
	if s.TelemetryEvery < 0 {
		return fmt.Errorf("campaign: telemetry_every %d negative", s.TelemetryEvery)
	}
	for _, m := range s.Modes {
		mode, err := ParseMode(m)
		if err != nil {
			return err
		}
		if s.TelemetryEvery > 0 && mode == hsnoc.HybridSDM {
			return fmt.Errorf("campaign: telemetry is not available for sdm mode")
		}
		if s.CheckInvariants && mode == hsnoc.HybridSDM {
			return fmt.Errorf("campaign: check_invariants is not available for sdm mode")
		}
		if mixes > 0 && mode == hsnoc.HybridSDM {
			return fmt.Errorf("campaign: mix workloads run on packet and tdm only, not sdm")
		}
	}
	for _, p := range s.Patterns {
		cpu, gpu, mix := parseMix(p)
		if !mix {
			if _, err := ParsePattern(p); err != nil {
				return err
			}
			continue
		}
		if _, ok := workload.CPUBenchmarkByName(cpu); !ok {
			return fmt.Errorf("campaign: pattern %q: unknown CPU benchmark %q (%s)", p, cpu, strings.Join(hsnoc.CPUBenchmarks(), "|"))
		}
		if _, ok := workload.GPUBenchmarkByName(gpu); !ok {
			return fmt.Errorf("campaign: pattern %q: unknown GPU benchmark %q (%s)", p, gpu, strings.Join(hsnoc.GPUBenchmarks(), "|"))
		}
	}
	if mixes > 0 {
		for _, m := range s.Meshes {
			if _, err := hetero.LayoutFor(m.Width, m.Height); err != nil {
				return fmt.Errorf("campaign: mix workloads: %w", err)
			}
		}
	}
	if s.gridSize() > MaxJobs {
		return fmt.Errorf("campaign: grid expands to more than %d jobs", MaxJobs)
	}
	if pp := s.PolicyProfile; pp != nil {
		if s.TelemetryEvery > 0 {
			return fmt.Errorf("campaign: policy_profile and telemetry_every are mutually exclusive (wave 1 attaches its own recorder)")
		}
		for _, m := range s.Modes {
			if mode, err := ParseMode(m); err != nil || mode != hsnoc.HybridTDM {
				return fmt.Errorf("campaign: policy_profile requires tdm-only modes (got %q)", m)
			}
		}
		if pp.ProfileEvery < 0 {
			return fmt.Errorf("campaign: profile_every %d negative", pp.ProfileEvery)
		}
		if pp.ProfileEvery == 0 {
			pp.ProfileEvery = 512
		}
		if len(pp.Policies) == 0 {
			return fmt.Errorf("campaign: policy_profile needs at least one policy (%s)", strings.Join(policy.Names(), "|"))
		}
		hasStatic := false
		for _, ps := range pp.Policies {
			pol, err := policy.Parse(ps)
			if err != nil {
				return fmt.Errorf("campaign: %w", err)
			}
			if pol.Name() == "static" {
				hasStatic = true
			}
			if _, sdm := pol.(policy.SDMGate); sdm && mixes > 0 {
				return fmt.Errorf("campaign: policy %q re-runs under sdm, which mix workloads do not run on", ps)
			}
		}
		if !hasStatic {
			// The baseline anchors every delta; silently missing it would
			// make the report compare policies against nothing.
			pp.Policies = append([]string{"static"}, pp.Policies...)
		}
	}
	return nil
}

// Rehydrate re-normalizes a spec read back from persisted state (a
// fleet journal, a checkpoint) and verifies it still hashes to
// wantHash. A mismatch means the binary's spec semantics drifted since
// the spec was persisted — defaults changed, an axis was added — and
// the re-expanded job grid would no longer match the recorded one;
// failing loudly beats silently re-sharding. An empty wantHash skips
// the check.
func (s Spec) Rehydrate(wantHash string) (Spec, error) {
	c := s
	if err := c.Normalize(); err != nil {
		return Spec{}, err
	}
	if wantHash != "" {
		if got := c.Hash(); got != wantHash {
			return Spec{}, fmt.Errorf("campaign: rehydrated spec hash %s != recorded %s (spec semantics changed since it was persisted?)", got, wantHash)
		}
	}
	return c, nil
}

// Hash is the canonical fingerprint of a normalized spec, used to name
// its result store so re-submitting the same spec resumes from the
// same JSONL file.
func (s Spec) Hash() string {
	c := s
	if err := c.Normalize(); err != nil {
		// An invalid spec still hashes (over its raw encoding) so
		// callers can log it; it will never reach the engine.
		c = s
	}
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("campaign: spec hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// MaxJobs caps a spec's grid cardinality. Specs arrive over HTTP, and a
// body well inside the request-size cap can list thousands of values per
// axis; without a cap their product is an allocation the service makes
// before any quota can refuse it. The largest grids in the repo (the
// benchmark's control-plane workloads) are under 10 000 jobs.
const MaxJobs = 1 << 20

// Jobs returns the expanded job count without building the jobs
// (0 for an invalid spec).
func (s Spec) Jobs() int {
	if err := s.Normalize(); err != nil {
		return 0
	}
	return s.gridSize()
}

// gridSize is the job count of a spec whose axes are filled and modes
// valid, saturating at MaxJobs+1 so a hostile grid cannot overflow.
func (s *Spec) gridSize() int {
	mixes := s.mixCount()
	var n int64
	for _, m := range s.Modes {
		slots := len(s.SlotTables)
		if mode, err := ParseMode(m); err != nil || mode != hsnoc.HybridTDM {
			slots = 1
		}
		// Workload points: every synthetic pattern at every rate, plus
		// the mixes once each.
		per := min(int64(len(s.Patterns)-mixes)*int64(len(s.Rates))+int64(mixes), MaxJobs+1)
		for _, axis := range []int{len(s.Meshes), slots, len(s.Seeds)} {
			if per *= int64(axis); per > MaxJobs {
				return MaxJobs + 1
			}
		}
		if n += per; n > MaxJobs {
			return MaxJobs + 1
		}
	}
	return int(n)
}

// mixCount is how many of the spec's patterns are mix:<CPU>+<GPU>.
func (s *Spec) mixCount() (n int) {
	for _, p := range s.Patterns {
		if _, _, mix := parseMix(p); mix {
			n++
		}
	}
	return n
}

// parseMix splits the mix:<CPU>+<GPU> spelling of a Section V workload;
// mix is false for every other pattern name. A malformed mix comes back
// with an empty name, which no benchmark has.
func parseMix(pattern string) (cpu, gpu string, mix bool) {
	rest, mix := strings.CutPrefix(pattern, "mix:")
	cpu, gpu, _ = strings.Cut(rest, "+")
	return cpu, gpu, mix
}

// Expand builds the deterministic job list: modes, then patterns,
// meshes, slot tables, rates, seeds — the same nesting every time, so
// serial and parallel campaigns emit records for identical job
// sequences.
func (s Spec) Expand() ([]Job, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return s.expand(0, s.gridSize())
}

// expand builds jobs [lo, hi) of a normalized spec's job list. It is
// the one place the axis order lives: Expand takes the whole range and
// ShardJobs one shard of it. The nest counts every job index but builds
// (and validates) only those in range, steps over a seed run lying
// wholly below lo in one addition, and returns once the index reaches
// hi — so a shard costs its own jobs plus an integer walk of the grid.
func (s *Spec) expand(lo, hi int) ([]Job, error) {
	jobs := make([]Job, 0, hi-lo)
	next := 0 // index of the next job in the full list
	for _, modeName := range s.Modes {
		mode, err := ParseMode(modeName)
		if err != nil {
			return nil, err
		}
		slots := s.SlotTables
		if mode != hsnoc.HybridTDM {
			// Slot tables only exist in TDM routers; collapsing the
			// axis avoids simulating identical configs under distinct
			// cache keys.
			slots = slots[:1]
		}
		for _, patName := range s.Patterns {
			cpu, gpu, mix := parseMix(patName)
			pat, rates := hsnoc.Pattern(0), s.Rates
			if mix {
				// A mix generates its own load: one point, not one per rate.
				rates = []float64{0}
			} else if pat, err = ParsePattern(patName); err != nil {
				return nil, err
			}
			for _, mesh := range s.Meshes {
				for _, slot := range slots {
					// Labels name the slot-table point only where the
					// axis has more than one, so single-point labels
					// keep their historical spelling.
					slotTag := ""
					if len(slots) > 1 {
						slotTag = fmt.Sprintf("/s%d", slot)
					}
					for _, rate := range rates {
						if next+len(s.Seeds) <= lo {
							next += len(s.Seeds)
							continue
						}
						for _, seed := range s.Seeds {
							i := next
							next++
							if i < lo {
								continue
							}
							if i == hi {
								return jobs, nil
							}
							cfg := hsnoc.DefaultConfig(mesh.Width, mesh.Height)
							cfg.Mode = mode
							cfg.Seed = seed
							cfg.PathSharing = s.PathSharing && mode == hsnoc.HybridTDM
							cfg.VCPowerGating = s.VCPowerGating
							cfg.LatencyBasedVCGating = s.LatencyBasedVCGating
							cfg.DisableTimeSlotStealing = s.DisableTimeSlotStealing
							cfg.DisableDynamicSlotSizing = s.DisableDynamicSlotSizing
							if mode == hsnoc.HybridTDM {
								cfg.SlotTableEntries = slot
							}
							if s.SimWorkers > 0 {
								cfg.Workers = s.SimWorkers
							}
							cfg.CheckInvariants = s.CheckInvariants
							if err := cfg.Validate(); err != nil {
								return nil, err
							}
							var j Job
							if mix {
								label := fmt.Sprintf("%v/%s/%dx%d%s/seed%d", mode, patName, mesh.Width, mesh.Height, slotTag, seed)
								j = NewMixJob(cfg, cpu, gpu, s.WarmupCycles, s.MeasureCycles, label)
							} else {
								label := fmt.Sprintf("%v/%v/%dx%d%s/r%.3f/seed%d", mode, pat, mesh.Width, mesh.Height, slotTag, rate, seed)
								j = NewJob(cfg, pat, rate, s.WarmupCycles, s.MeasureCycles, label)
							}
							if s.TelemetryEvery > 0 {
								j = j.WithTelemetry(s.TelemetryEvery)
							}
							jobs = append(jobs, j)
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// ParseMode maps the CLI/spec mode names onto hsnoc modes.
func ParseMode(s string) (hsnoc.Mode, error) {
	switch strings.ToLower(s) {
	case "packet", "ps", "packet-vc4":
		return hsnoc.PacketSwitched, nil
	case "tdm", "hybrid-tdm":
		return hsnoc.HybridTDM, nil
	case "sdm", "hybrid-sdm":
		return hsnoc.HybridSDM, nil
	}
	return 0, fmt.Errorf("campaign: unknown mode %q (packet|tdm|sdm)", s)
}

// ParsePattern maps the CLI/spec pattern names onto traffic patterns.
func ParsePattern(s string) (hsnoc.Pattern, error) {
	switch strings.ToLower(s) {
	case "ur", "uniform", "random":
		return hsnoc.UniformRandom, nil
	case "tor", "tornado":
		return hsnoc.Tornado, nil
	case "tr", "transpose":
		return hsnoc.Transpose, nil
	case "bc", "bitcomplement":
		return hsnoc.BitComplement, nil
	case "nbr", "neighbor":
		return hsnoc.Neighbor, nil
	case "hot", "hotspot":
		return hsnoc.Hotspot, nil
	}
	return 0, fmt.Errorf("campaign: unknown pattern %q (ur|tornado|transpose|bc|neighbor|hotspot)", s)
}
