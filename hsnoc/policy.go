package hsnoc

import (
	"fmt"

	"tdmnoc/internal/policy"
	"tdmnoc/internal/topology"
)

// Profile is the adaptive-policy traffic profile (re-exported from the
// pure policy engine so public callers never import internal packages).
type Profile = policy.Profile

// Decision is a policy's configuration delta.
type Decision = policy.Decision

// ParsePolicy resolves a policy spec string ("static", "threshold",
// "greedy:8", "sdm-gate", ...).
func ParsePolicy(spec string) (policy.Policy, error) { return policy.Parse(spec) }

// ReadProfileFile loads a profile written by Profile.WriteFile (or
// `nocsim -profile-out`), rejecting unknown fields.
func ReadProfileFile(path string) (*Profile, error) { return policy.ReadProfileFile(path) }

// modeToken is the campaign/scenario spelling of a Mode.
func (m Mode) modeToken() string {
	switch m {
	case HybridTDM:
		return "tdm"
	case HybridSDM:
		return "sdm"
	default:
		return "packet"
	}
}

// ExtractProfile derives the run's traffic profile from the attached
// telemetry recorder: per-flow volume/latency/setup aggregates, link
// heat, the setup-latency histogram, and the converged slot-table
// state, keyed by this configuration's Hash. It requires telemetry
// attached with TrackFlows (the profile→re-run campaign driver and
// `nocsim -profile-out` both attach it for you) and is not available
// for HybridSDM, whose engine predates the obs layer. The result is a
// pure function of the simulation — byte-identical JSON at any worker
// count.
func (s *Simulator) ExtractProfile() (*Profile, error) {
	if s.net == nil {
		return nil, fmt.Errorf("hsnoc: profile extraction is not available for %v", s.cfg.Mode)
	}
	if s.rec == nil || !s.rec.FlowTracking() {
		return nil, fmt.Errorf("hsnoc: profile extraction requires AttachTelemetry with TrackFlows")
	}
	p, err := policy.FromRecorder(s.rec, s.cfg.Width, s.cfg.Height, int(topology.NumPorts))
	if err != nil {
		return nil, err
	}
	p.ConfigHash = s.cfg.Hash()
	p.Mode = s.cfg.Mode.modeToken()
	if s.cfg.Mode == HybridTDM {
		p.SlotActive = s.net.ActiveSlots()
		p.SlotCapacity = s.net.Config().Router.SlotCapacity
		p.ResizeEvents = s.net.ResizeEvents()
	}
	return p, nil
}

// AdaptiveRepins reports how many epoch re-allocations the online
// controller performed (0 unless Config.AdaptiveEpoch; see the config
// field). Not available for HybridSDM.
func (s *Simulator) AdaptiveRepins() int {
	if s.net == nil {
		return 0
	}
	return s.net.AdaptiveRepins()
}

// ApplyDecision returns cfg with a policy Decision applied: pinned
// flows, setup restriction, the initial slot-table region, the DLT
// size, or — for SDM-gating decisions — the switch to HybridSDM with
// gated planes. The result must pass Validate; its error is returned
// when it does not (an out-of-mesh pin, an oversized slot_init, fewer
// than 2 planes left on). The mapping is pure configuration, so the
// re-run's results and state digest are a function of (cfg, d) alone;
// applying the same decision twice yields byte-identical digests (pinned
// by test). The caller is responsible for checking that the profile that
// produced d matches cfg (Profile.ConfigHash vs cfg.Hash()).
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
		cfg.AdaptiveEpoch, cfg.AdaptiveTopK = 0, 0
		cfg.GatedPlanes = d.GatedPlanes
		return cfg, cfg.Validate()
	}
	// Validate would name one TDM-only field; what does not fit is the
	// decision as a whole (and Validate has no rule for DLTEntries).
	if cfg.Mode != HybridTDM && (len(d.PinnedFlows) > 0 || d.RestrictSetups || d.SlotInit > 0 || d.DLTEntries > 0) {
		return cfg, fmt.Errorf("hsnoc: policy %q decision needs a Hybrid-TDM base config", d.Policy)
	}
	cfg.PinnedFlows = append([]FlowPin(nil), d.PinnedFlows...)
	cfg.RestrictSetups = d.RestrictSetups
	cfg.SlotInit = d.SlotInit
	if d.DLTEntries > 0 {
		cfg.DLTEntries = d.DLTEntries
	}
	return cfg, cfg.Validate()
}
