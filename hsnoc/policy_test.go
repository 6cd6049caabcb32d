package hsnoc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tdmnoc/internal/obs"
	"tdmnoc/internal/policy"
)

// profiledScenario is the profile-extraction worker-matrix scenario:
// tornado on a 4x4 hybrid-TDM mesh with flow tracking attached.
func profiledScenario(workers int) Config {
	cfg := DefaultConfig(4, 4)
	cfg.Mode = HybridTDM
	cfg.Seed = 11
	cfg.Workers = workers
	return cfg
}

// profiledRun executes the scenario serially and returns the extracted
// profile's indented JSON bytes.
func profiledRun(t *testing.T) []byte {
	t.Helper()
	s := NewSynthetic(profiledScenario(1), Tornado, 0.15)
	defer s.Close()
	if _, err := s.AttachTelemetry(TelemetryOptions{Every: 64, RingCapacity: 1 << 17, TrackFlows: true}); err != nil {
		t.Fatalf("AttachTelemetry: %v", err)
	}
	s.Warmup(300)
	s.Run(1200)
	p, err := s.ExtractProfile()
	if err != nil {
		t.Fatalf("ExtractProfile: %v", err)
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestProfileGolden pins what policies decide from on the scenario: the
// profile's JSON matches the committed golden file (regenerate with
// `go test ./hsnoc -run ProfileGolden -update` after an intentional
// simulation change). Its flow table's worker invariance is the
// traced-4x4 row of TestEquivalence.
func TestProfileGolden(t *testing.T) {
	serial := profiledRun(t)

	golden := filepath.Join("testdata", "golden-profile.json")
	if *updateGolden {
		if err := os.WriteFile(golden, serial, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden profile (regenerate with -update): %v", err)
	}
	if !bytes.Equal(want, serial) {
		t.Errorf("profile JSON changed vs golden (%d vs %d bytes); intentional changes: regenerate with -update",
			len(serial), len(want))
	}
}

// TestExtractProfileIsTheRecordProfile: the profile a live run yields
// is the one a campaign rebuilds from the run's stored Summary, field
// for field, so nocsim and a policy study decide from the same input.
func TestExtractProfileIsTheRecordProfile(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Mode = HybridTDM
	s := NewSynthetic(cfg, Tornado, 0.2)
	defer s.Close()
	if _, err := s.AttachTelemetry(FlowProfileTelemetry(0)); err != nil {
		t.Fatal(err)
	}
	s.Warmup(500)
	s.Run(2000)
	got, err := s.ExtractProfile()
	if err != nil {
		t.Fatal(err)
	}
	if want := DecisionProfile(cfg, s.Telemetry().Summary()); !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractProfile = %+v\nDecisionProfile over the Summary = %+v", got, want)
	}
	if len(got.Flows) == 0 || got.SlotCapacity == 0 {
		t.Errorf("profile carries %d flows, slot capacity %d: nothing to decide from", len(got.Flows), got.SlotCapacity)
	}
}

// decisionDigest applies d to the profiled scenario's config and runs
// it with invariant checking, returning the rolling state digest.
func decisionDigest(t *testing.T, d Decision, workers int) uint64 {
	t.Helper()
	cfg := profiledScenario(workers)
	cfg.CheckInvariants = true
	cfg.CheckInterval = 64
	cfg2, err := ApplyDecision(cfg, d)
	if err != nil {
		t.Fatalf("ApplyDecision: %v", err)
	}
	if err := cfg2.Validate(); err != nil {
		t.Fatalf("decision produced invalid config: %v", err)
	}
	s := NewSynthetic(cfg2, Tornado, 0.15)
	defer s.Close()
	s.Warmup(300)
	s.Run(1200)
	if err := s.InvariantError(); err != nil {
		t.Fatalf("invariant violations under decision %q: %v", d.Policy, err)
	}
	return s.RollingDigest()
}

// TestDecisionReapplyDigestIdentical is the offline loop's
// reproducibility acceptance: deriving a Decision from a profile and
// applying it twice yields bit-identical state digests — across worker
// counts too, since the decision is plain config.
func TestDecisionReapplyDigestIdentical(t *testing.T) {
	s := NewSynthetic(profiledScenario(1), Tornado, 0.15)
	if _, err := s.AttachTelemetry(TelemetryOptions{Every: 64, RingCapacity: 1 << 17, TrackFlows: true}); err != nil {
		t.Fatalf("AttachTelemetry: %v", err)
	}
	s.Warmup(300)
	s.Run(1200)
	prof, err := s.ExtractProfile()
	if err != nil {
		t.Fatalf("ExtractProfile: %v", err)
	}
	s.Close()

	pol, err := ParsePolicy("greedy")
	if err != nil {
		t.Fatal(err)
	}
	d := pol.Decide(prof)
	if len(d.PinnedFlows) == 0 {
		t.Fatal("greedy pinned no flows on tornado — nothing to reproduce")
	}

	first := decisionDigest(t, d, 1)
	if first == 0 {
		t.Fatal("digest is zero — invariant checking not active")
	}
	if again := decisionDigest(t, d, 1); again != first {
		t.Errorf("re-applying the same decision changed the digest: %#x vs %#x", again, first)
	}
	if par := decisionDigest(t, d, 8); par != first {
		t.Errorf("decision digest at Workers=8 = %#x, serial = %#x", par, first)
	}
}

// TestApplyDecisionValidation: the application layer rejects decisions
// that do not fit the config they are applied to.
func TestApplyDecisionValidation(t *testing.T) {
	cfg := profiledScenario(1)
	if _, err := ApplyDecision(cfg, Decision{PinnedFlows: []FlowPin{{Src: 0, Dst: 99}}}); err == nil {
		t.Error("out-of-mesh pin accepted")
	}
	if _, err := ApplyDecision(cfg, Decision{SlotInit: 4096}); err == nil {
		t.Error("oversized slot_init accepted")
	}
	if _, err := ApplyDecision(cfg, Decision{UseSDM: true, GatedPlanes: 3}); err == nil {
		t.Error("gating 3 of 4 planes accepted")
	}
	pkt := cfg
	pkt.Mode = PacketSwitched
	if _, err := ApplyDecision(pkt, Decision{Policy: "greedy", RestrictSetups: true}); err == nil {
		t.Error("TDM decision on packet-switched base accepted")
	}
	// SDM gating clears TDM-only knobs rather than failing validation.
	tdm := cfg
	tdm.SlotInit, tdm.RestrictSetups = 32, true
	got, err := ApplyDecision(tdm, Decision{Policy: "sdm-gate", UseSDM: true, GatedPlanes: 2})
	if err != nil {
		t.Fatalf("SDM decision on TDM base: %v", err)
	}
	if got.Mode != HybridSDM || got.GatedPlanes != 2 || got.SlotInit != 0 || got.RestrictSetups {
		t.Errorf("SDM application left TDM residue: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("SDM-gated config invalid: %v", err)
	}
}

// TestSDMGateDecisionApplies: sdm-gate's decision on a TDM base is a
// valid SDM config at every load, gating 2, 1 and 0 of the re-run's
// planes below a quarter, below a half and above half of link capacity.
func TestSDMGateDecisionApplies(t *testing.T) {
	tdm := DefaultConfig(4, 4)
	tdm.Mode = HybridTDM
	for _, c := range []struct {
		load  float64 // offered flits per node per cycle
		gated int
	}{{0.1, 2}, {0.3, 1}, {0.7, 0}} {
		p := &Profile{Width: 4, Height: 4, Cycles: 1000,
			Flows: []obs.FlowStat{{Src: 0, Dst: 5, Flits: int64(c.load * 16 * 1000)}}}
		got, err := ApplyDecision(tdm, policy.SDMGate{}.Decide(p))
		if err != nil {
			t.Fatalf("load %.2f: %v", c.load, err)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("load %.2f: %v", c.load, err)
		}
		if got.Mode != HybridSDM || got.GatedPlanes != c.gated {
			t.Errorf("load %.2f: mode %v gating %d planes, want HybridSDM gating %d", c.load, got.Mode, got.GatedPlanes, c.gated)
		}
	}
}
