// Package campaign is the batch-simulation subsystem: it expands a
// declarative campaign spec (a parameter grid of switching mode or
// named configuration, workload — a synthetic traffic pattern at an
// injection rate, or a Section V CPU+GPU benchmark mix — mesh size,
// slot-table size and seed) into independent jobs, runs them on a
// bounded worker pool with cancellation and panic recovery, dedups work
// through a result cache keyed by the canonical config hash, and
// persists results incrementally as JSONL so an interrupted campaign
// resumes without recomputing finished jobs.
//
// The paper's whole evaluation — and the profile-driven sweeps of the
// related hybrid-switching literature — is exactly this workload: a
// large grid of independent (config, seed) simulations. cmd/experiments
// (whose figures are the committed specs of package scenarios) and the
// cmd/nocsimd HTTP service both execute through this one engine.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/policy"
	"tdmnoc/internal/tablei"
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
	// Modes are switching architectures: packet|tdm|sdm. A spec sets
	// Modes or Variants, never both.
	Modes []string `json:"modes"`
	// Variants are named configurations, each a mode and its switches,
	// for grids such as the paper's figures that compare several
	// configurations of one mode.
	Variants []Variant `json:"variants,omitempty"`
	// Patterns are the workloads: synthetic traffic patterns
	// (ur|tornado|transpose|bc|neighbor|hotspot) and Section V mixes,
	// spelled mix:<CPU>+<GPU> with the benchmark names of
	// hsnoc.CPUBenchmarks / hsnoc.GPUBenchmarks (e.g. mix:EQUAKE+LPS).
	// Mixes run on packet and tdm only.
	Patterns []string `json:"patterns"`
	// Meshes are topology sizes (default: one 6x6 mesh; at most
	// maxMeshNodes nodes each).
	Meshes []MeshSize `json:"meshes,omitempty"`
	// Rates are offered loads in flits/node/cycle, a synthetic-only
	// axis: a mix offers whatever its benchmarks generate, so it
	// collapses this axis to a single point (recorded as rate 0) and a
	// mix-only spec may leave it empty.
	Rates []float64 `json:"rates"`
	// SlotTables are slot-table capacities, a TDM-only axis (default:
	// the 128-entry Table-I capacity; at most maxSlotTable). Non-TDM
	// modes collapse this axis to a single point since it cannot affect
	// them.
	SlotTables []int `json:"slot_tables,omitempty"`
	// Seeds replicate every grid point (default: seed 1).
	Seeds []uint64 `json:"seeds,omitempty"`

	// Scalar options applied to every job of a Modes spec (a Variants
	// spec sets them per variant).
	PathSharing              bool `json:"path_sharing,omitempty"`
	VCPowerGating            bool `json:"vc_power_gating,omitempty"`
	LatencyBasedVCGating     bool `json:"latency_based_vc_gating,omitempty"`
	DisableTimeSlotStealing  bool `json:"disable_time_slot_stealing,omitempty"`
	DisableDynamicSlotSizing bool `json:"disable_dynamic_slot_sizing,omitempty"`
	// WarmupCycles and MeasureCycles default to the paper's 8000/40000.
	WarmupCycles  int `json:"warmup_cycles,omitempty"`
	MeasureCycles int `json:"measure_cycles,omitempty"`
	// SimWorkers sets per-simulation executor parallelism (default 1,
	// at most maxSimWorkers; results are bit-identical for any value —
	// the barrier executor and active-node scheduler are
	// digest-verified against serial — so it is not a grid axis and does
	// not enter cache keys). Campaigns
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

// Variant is one named configuration of a spec's variants axis. Its
// name leads the label of every job it makes.
type Variant struct {
	Name                     string `json:"name"`
	Mode                     string `json:"mode"`
	PathSharing              bool   `json:"path_sharing,omitempty"`
	VCPowerGating            bool   `json:"vc_power_gating,omitempty"`
	LatencyBasedVCGating     bool   `json:"latency_based_vc_gating,omitempty"`
	DisableTimeSlotStealing  bool   `json:"disable_time_slot_stealing,omitempty"`
	DisableDynamicSlotSizing bool   `json:"disable_dynamic_slot_sizing,omitempty"`
	SAIterations             int    `json:"sa_iterations,omitempty"` // switch-allocator passes (0 = Table I's one)
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

// Normalize fills defaulted axes and validates the grid. It never
// writes through a pointer or slice s shares with the spec it was
// copied from, so normalizing a copy leaves the original as it was.
func (s *Spec) Normalize() error {
	switch {
	case len(s.Modes) == 0 && len(s.Variants) == 0:
		return fmt.Errorf("campaign: spec needs at least one mode or variant")
	case len(s.Variants) > 0 && (len(s.Modes) > 0 || s.PathSharing || s.VCPowerGating || s.LatencyBasedVCGating ||
		s.DisableTimeSlotStealing || s.DisableDynamicSlotSizing):
		return fmt.Errorf("campaign: a variants spec sets no modes and no spec-wide switches (each variant carries its own)")
	}
	if len(s.Patterns) == 0 {
		return fmt.Errorf("campaign: spec needs at least one pattern")
	}
	mixes := s.mixCount()
	if len(s.Rates) == 0 && mixes < len(s.Patterns) {
		return fmt.Errorf("campaign: spec needs at least one rate")
	}
	for _, r := range s.Rates {
		if !(r > 0 && r <= 1) { // NaN included
			return fmt.Errorf("campaign: rate %v outside (0, 1]", r)
		}
	}
	if err := ratesKeyApart(s.Rates); err != nil {
		return err
	}
	if len(s.Meshes) == 0 {
		s.Meshes = []MeshSize{{Width: 6, Height: 6}}
	}
	for _, m := range s.Meshes {
		if m.Width <= 0 || m.Height <= 0 {
			return fmt.Errorf("campaign: mesh %dx%d invalid", m.Width, m.Height)
		}
		if m.Width > maxMeshNodes || m.Height > maxMeshNodes || m.Width*m.Height > maxMeshNodes {
			return fmt.Errorf("campaign: meshes: %dx%d has more than %d nodes", m.Width, m.Height, maxMeshNodes)
		}
	}
	if len(s.SlotTables) == 0 {
		s.SlotTables = []int{tablei.SlotTableEntries}
	}
	for _, st := range s.SlotTables {
		if st <= 0 {
			return fmt.Errorf("campaign: slot-table size %d invalid", st)
		}
		if st > maxSlotTable {
			return fmt.Errorf("campaign: slot_tables: %d entries exceed %d", st, maxSlotTable)
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
	if s.SimWorkers < 0 || s.SimWorkers > maxSimWorkers {
		return fmt.Errorf("campaign: sim_workers %d outside [0, %d]", s.SimWorkers, maxSimWorkers)
	}
	if s.TelemetryEvery < 0 {
		return fmt.Errorf("campaign: telemetry_every %d negative", s.TelemetryEvery)
	}
	names := make(map[string]bool, len(s.Variants))
	modes := make([]hsnoc.Mode, 0, 3) // the distinct modes jobs run in
	for _, v := range s.variants() {
		// Labels start with the name (a lowered mode's may repeat).
		if len(s.Variants) > 0 && (v.Name == "" || strings.Contains(v.Name, "/") || names[v.Name]) {
			return fmt.Errorf("campaign: variant name %q empty, duplicated or containing '/'", v.Name)
		}
		names[v.Name] = true
		mode, err := ParseMode(v.Mode)
		if err != nil {
			return err
		}
		if s.PolicyProfile != nil && mode != hsnoc.HybridTDM {
			return fmt.Errorf("campaign: policy_profile requires tdm-only modes (got %q)", v.Mode)
		}
		if s.TelemetryEvery > 0 && mode == hsnoc.HybridSDM {
			return fmt.Errorf("campaign: telemetry is not available for sdm mode")
		}
		if s.CheckInvariants && mode == hsnoc.HybridSDM {
			return fmt.Errorf("campaign: check_invariants is not available for sdm mode")
		}
		if !slices.Contains(modes, mode) {
			modes = append(modes, mode)
		}
	}
	if s.gridSize() > MaxJobs {
		return fmt.Errorf("campaign: grid expands to more than %d jobs", MaxJobs)
	}
	if s.PolicyProfile != nil {
		// Defaults go into a copy: the profile is shared with the spec
		// s was copied from.
		pp := *s.PolicyProfile
		s.PolicyProfile = &pp
		if s.TelemetryEvery > 0 {
			return fmt.Errorf("campaign: policy_profile and telemetry_every are mutually exclusive (wave 1 attaches its own recorder)")
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
			if _, sdm := pol.(policy.SDMGate); sdm {
				if s.CheckInvariants {
					return fmt.Errorf("campaign: policy %q re-runs under sdm, which check_invariants cannot check", ps)
				}
				modes = append(modes, hsnoc.HybridSDM) // the mode its re-runs use
			}
		}
		if !hasStatic {
			// The baseline anchors every delta; silently missing it would
			// make the report compare policies against nothing.
			pp.Policies = append([]string{"static"}, pp.Policies...)
		}
	}
	// hsnoc.Check decides whether each mix runs on each mesh in each
	// mode a job or a policy's re-run uses; a pattern runs everywhere.
	for _, p := range s.Patterns {
		cpu, gpu, mix := parseMix(p)
		if !mix {
			if _, err := ParsePattern(p); err != nil {
				return err
			}
			continue
		}
		for _, m := range s.Meshes {
			for _, mode := range modes {
				cfg := hsnoc.DefaultConfig(m.Width, m.Height)
				cfg.Mode = mode
				if err := hsnoc.Check(cfg, hsnoc.Mix{CPU: cpu, GPU: gpu}); err != nil {
					return fmt.Errorf("campaign: %w", err)
				}
			}
		}
	}
	return nil
}

// ratesKeyApart refuses two distinct rates a job key cannot tell apart.
// Keys spell a rate as %.9g, so 0.1 and 0.1000000001 would be two
// simulations under one key (and one label), and a store would serve
// whichever ran first for both. Equal rates are one grid point listed
// twice and stay allowed.
func ratesKeyApart(rates []float64) error {
	if !slices.IsSorted(rates) {
		rates = slices.Clone(rates)
		slices.Sort(rates)
	}
	// Rounding to nine digits is monotonic, so rates sharing a spelling
	// sit next to each other once sorted.
	var x, y [32]byte
	for i := 1; i < len(rates); i++ {
		a, b := rates[i-1], rates[i]
		if a != b && bytes.Equal(strconv.AppendFloat(x[:0], a, 'g', 9, 64), strconv.AppendFloat(y[:0], b, 'g', 9, 64)) {
			return fmt.Errorf("campaign: rates %v and %v differ but both key as %.9g; list one of them", a, b, a)
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

// Hash is the canonical fingerprint of a normalized spec: the fleet
// journal records it, and a resubmitted spec with the same hash is the
// same campaign.
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

// Bounds on the spec values that size one job's memory, for the same
// reason: a job past them would OOM-kill the worker that leases it, and
// the expired lease would hand it to the next. Each is well above what
// the repo runs (32x32 meshes, the paper's 256-entry slot tables, 2
// workers per simulation).
const (
	maxMeshNodes  = 4096 // nodes per mesh: 64x64
	maxSlotTable  = 1024 // slot-table entries
	maxSimWorkers = 64   // executor workers per simulation
)

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
	for _, v := range s.variants() {
		slots := len(s.SlotTables)
		if mode, err := ParseMode(v.Mode); err != nil || mode != hsnoc.HybridTDM {
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

// variants is the configuration axis expand iterates: Variants, or the
// lowering of Modes and the spec-wide switches, one variant per mode
// named as the mode prints. The lowering is never written back, so a
// modes spec hashes, keys and labels its jobs as it always has.
func (s *Spec) variants() []Variant {
	if len(s.Variants) > 0 {
		return s.Variants
	}
	vs := make([]Variant, len(s.Modes))
	for i, m := range s.Modes {
		mode, _ := ParseMode(m) // an invalid mode is refused by its caller
		vs[i] = Variant{Name: mode.String(), Mode: m, PathSharing: s.PathSharing, VCPowerGating: s.VCPowerGating,
			LatencyBasedVCGating: s.LatencyBasedVCGating, DisableTimeSlotStealing: s.DisableTimeSlotStealing,
			DisableDynamicSlotSizing: s.DisableDynamicSlotSizing}
	}
	return vs
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
	if !mix {
		return "", "", false
	}
	cpu, gpu, _ = strings.Cut(rest, "+")
	return cpu, gpu, true
}

// Expand builds the deterministic job list: variants (or modes), then
// patterns, meshes, slot tables, rates, seeds — the same nesting every
// time, so serial and parallel campaigns emit records for identical job
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
// A grid point's config, label prefix and key suffix are built once for
// its seeds, and only when one of them is in range. A configuration (a
// variant's mesh, slot table and seed) is hashed once into memo, which
// every pattern and rate sharing it reads; memo is made only for a
// range holding at least as many jobs as it has entries, so a lease
// still costs its shard.
func (s *Spec) expand(lo, hi int) ([]Job, error) {
	jobs := make([]Job, 0, hi-lo)
	var prefix, suffixBuf, hashBuf [128]byte
	vs := s.variants()
	var memo [][64]byte
	if n := len(vs) * len(s.Meshes) * len(s.SlotTables) * len(s.Seeds); n <= hi-lo {
		memo = make([][64]byte, n)
	}
	next := 0 // index of the next job in the full list
	for vi, v := range vs {
		mode, err := ParseMode(v.Mode)
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
			// Normalize has checked both benchmarks of a mix, so its
			// name is already the mix:<CPU>+<GPU> a job spells.
			pat, rates, name := hsnoc.Pattern(0), s.Rates, patName
			if mix {
				// A mix generates its own load: one point, not one per rate.
				rates = []float64{0}
			} else if pat, err = ParsePattern(patName); err != nil {
				return nil, err
			} else {
				name = pat.String()
			}
			for mi, mesh := range s.Meshes {
				for si, slot := range slots {
					for _, rate := range rates {
						if next+len(s.Seeds) <= lo {
							next += len(s.Seeds)
							continue
						}
						if next == hi {
							return jobs, nil
						}
						cfg := hsnoc.DefaultConfig(mesh.Width, mesh.Height)
						cfg.Mode = mode
						cfg.PathSharing = v.PathSharing && mode == hsnoc.HybridTDM
						cfg.VCPowerGating = v.VCPowerGating
						cfg.LatencyBasedVCGating = v.LatencyBasedVCGating
						cfg.DisableTimeSlotStealing = v.DisableTimeSlotStealing
						cfg.DisableDynamicSlotSizing = v.DisableDynamicSlotSizing
						cfg.SAIterations = v.SAIterations
						if mode == hsnoc.HybridTDM {
							cfg.SlotTableEntries = slot
						}
						if s.SimWorkers > 0 {
							cfg.Workers = s.SimWorkers
						}
						cfg.CheckInvariants = s.CheckInvariants
						if err := cfg.Validate(); err != nil { // Validate never reads Seed
							return nil, err
						}
						// Labels name the slot-table point only where the
						// axis has more than one, so single-point labels
						// keep their historical spelling.
						label := append(append(append(prefix[:0], v.Name...), '/'), name...)
						label = strconv.AppendInt(append(label, '/'), int64(mesh.Width), 10)
						label = strconv.AppendInt(append(label, 'x'), int64(mesh.Height), 10)
						if len(slots) > 1 {
							label = strconv.AppendInt(append(label, "/s"...), int64(slot), 10)
						}
						if !mix {
							label = strconv.AppendFloat(append(label, "/r"...), rate, 'f', 3, 64)
						}
						label = append(label, "/seed"...)
						j := Job{Config: cfg, Pattern: pat, Rate: rate, CPU: cpu, GPU: gpu, PatternName: name,
							Warmup: s.WarmupCycles, Measure: s.MeasureCycles, TelemetryEvery: s.TelemetryEvery}
						suffix := j.appendSuffix(suffixBuf[:0], hsnoc.ModelVersion)
						for k, seed := range s.Seeds {
							i := next
							next++
							if i < lo {
								continue
							}
							if i == hi {
								return jobs, nil
							}
							j.Config.Seed = seed
							var h []byte
							if memo == nil {
								h = j.Config.AppendHash(hashBuf[:0])
							} else if h = memo[((vi*len(s.Meshes)+mi)*len(s.SlotTables)+si)*len(s.Seeds)+k][:]; h[0] == 0 {
								j.Config.AppendHash(h[:0]) // a zero byte is no hex digit: not hashed yet
							}
							j.Label = string(strconv.AppendUint(label, seed, 10))
							j.Key = keyOf(h, suffix, s.TelemetryEvery)
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
