package hsnoc

import (
	"cmp"
	"fmt"

	"tdmnoc/internal/obs"
	"tdmnoc/internal/policy"
	"tdmnoc/internal/tablei"
)

// Profile is the adaptive-policy traffic profile (re-exported from the
// pure policy engine so public callers never import internal packages).
type Profile = policy.Profile

// Decision is a policy's configuration delta.
type Decision = policy.Decision

// ParsePolicy resolves a policy spec string ("static", "threshold",
// "greedy:8", "sdm-gate", ...).
func ParsePolicy(spec string) (policy.Policy, error) { return policy.Parse(spec) }

// ExtractProfile is the profile policies decide from, read off this
// run: DecisionProfile over the attached recorder's Summary, so it is
// exactly what a campaign's policy study rebuilds from the stored
// wave-1 record. It requires telemetry attached with TrackFlows
// (FlowProfileTelemetry; `nocsim -policy` attaches it to its profiling
// pass) and is not available for HybridSDM, whose engine predates the
// obs layer. The result is a pure function of the simulation, the same
// at any worker count.
func (s *Simulator) ExtractProfile() (*Profile, error) {
	if s.net == nil {
		return nil, fmt.Errorf("hsnoc: profile extraction is not available for %v", s.cfg.Mode)
	}
	if s.rec == nil || !s.rec.FlowTracking() {
		return nil, fmt.Errorf("hsnoc: profile extraction requires AttachTelemetry with TrackFlows")
	}
	return DecisionProfile(s.cfg, s.rec.Summary()), nil
}

// DecisionProfile builds the profile policies decide from out of the
// Summary of a flow-tracking run of cfg (FlowProfileTelemetry): the
// per-flow table, the coverage and injected count, the mesh and, for
// Hybrid-TDM, the slot-table capacity. It is the one constructor of a
// Profile, so a live run (ExtractProfile) and a stored campaign record
// decide alike.
func DecisionProfile(cfg Config, sum *obs.Summary) *Profile {
	p := &Profile{Width: cfg.Width, Height: cfg.Height, Cycles: sum.Cycles, Injected: sum.Injected, Flows: sum.Flows}
	if cfg.Mode == HybridTDM {
		p.SlotCapacity = cmp.Or(cfg.SlotTableEntries, tablei.SlotTableEntries)
	}
	return p
}

// ApplyDecision returns cfg with a policy Decision applied: pinned
// flows, setup restriction, the initial slot-table region, or — for
// SDM-gating decisions — the switch to HybridSDM with gated planes. The
// result must pass Validate; its error is returned when it does not (an
// out-of-mesh pin, an oversized slot_init, fewer than 2 planes left on). The mapping is pure configuration, so the
// re-run's results and state digest are a function of (cfg, d) alone;
// applying the same decision twice yields byte-identical digests (pinned
// by test).
func ApplyDecision(cfg Config, d Decision) (Config, error) {
	if d.UseSDM {
		cfg.Mode = HybridSDM
		// TDM-only and engine-unsupported options are cleared rather
		// than rejected: an SDM-gating decision applied to the TDM base
		// config is the expected cross-architecture comparison.
		cfg.PathSharing = false
		cfg.VCPowerGating = false
		cfg.LatencyBasedVCGating = false
		cfg.CheckInvariants = false
		cfg.DisableDynamicSlotSizing = false
		cfg.SlotInit, cfg.PinnedFlows, cfg.RestrictSetups = 0, nil, false
		cfg.GatedPlanes = d.GatedPlanes
		return cfg, cfg.Validate()
	}
	// Validate would name one TDM-only field; what does not fit is the
	// decision as a whole.
	if cfg.Mode != HybridTDM && (len(d.PinnedFlows) > 0 || d.RestrictSetups || d.SlotInit > 0) {
		return cfg, fmt.Errorf("hsnoc: policy %q decision needs a Hybrid-TDM base config", d.Policy)
	}
	cfg.PinnedFlows = append([]FlowPin(nil), d.PinnedFlows...)
	cfg.RestrictSetups = d.RestrictSetups
	cfg.SlotInit = d.SlotInit
	return cfg, cfg.Validate()
}
