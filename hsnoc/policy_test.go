package hsnoc

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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

// profiledRun executes the scenario and returns the extracted profile's
// stable JSON bytes.
func profiledRun(t *testing.T, workers int) []byte {
	t.Helper()
	s := NewSynthetic(profiledScenario(workers), Tornado, 0.15)
	defer s.Close()
	if _, err := s.AttachTelemetry(TelemetryOptions{Every: 64, RingCapacity: 1 << 17, TrackFlows: true}); err != nil {
		t.Fatalf("AttachTelemetry(workers=%d): %v", workers, err)
	}
	s.Warmup(300)
	s.Run(1200)
	p, err := s.ExtractProfile()
	if err != nil {
		t.Fatalf("ExtractProfile(workers=%d): %v", workers, err)
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProfileGoldenWorkerInvariant pins the profile's stable-JSON
// contract twice over: the encoded profile is byte-identical at Workers
// 1, 4 and 8 (sharded flow tracking merges deterministically), and it
// matches the committed golden file (regenerate with
// `go test ./hsnoc -run ProfileGolden -update` after an intentional
// schema or simulation change).
func TestProfileGoldenWorkerInvariant(t *testing.T) {
	serial := profiledRun(t, 1)
	for _, w := range []int{4, 8} {
		if b := profiledRun(t, w); !bytes.Equal(serial, b) {
			t.Errorf("profile JSON differs between Workers=1 (%d bytes) and Workers=%d (%d bytes)",
				len(serial), w, len(b))
		}
	}

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

	// The golden bytes round-trip through the reader unchanged.
	p, err := ReadProfileFile(golden)
	if err != nil {
		t.Fatalf("ReadProfileFile(golden): %v", err)
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Error("golden profile decode→encode not byte-identical")
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

// TestAdaptiveControllerParallelDeterminism drives the online in-sim
// controller (epoch re-pinning) and asserts the three contracts at
// once: it actually re-pins, it never breaks slot-table ownership
// invariants, and its state digest is identical serial vs Workers=8.
func TestAdaptiveControllerParallelDeterminism(t *testing.T) {
	run := func(workers int) (uint64, int) {
		cfg := profiledScenario(workers)
		cfg.CheckInvariants = true
		cfg.CheckInterval = 64
		cfg.AdaptiveEpoch = 256
		cfg.AdaptiveTopK = 8
		s := NewSynthetic(cfg, Tornado, 0.15)
		defer s.Close()
		if _, err := s.AttachTelemetry(TelemetryOptions{Every: 64, RingCapacity: 1 << 17, TrackFlows: true}); err != nil {
			t.Fatalf("AttachTelemetry(workers=%d): %v", workers, err)
		}
		s.Warmup(300)
		s.Run(1200)
		if err := s.InvariantError(); err != nil {
			t.Fatalf("workers=%d: adaptive run violated invariants: %v", workers, err)
		}
		return s.RollingDigest(), s.AdaptiveRepins()
	}
	serialDigest, serialRepins := run(1)
	if serialRepins == 0 {
		t.Fatal("controller performed no epoch re-pins — scenario too short?")
	}
	if serialDigest == 0 {
		t.Fatal("digest is zero — invariant checking not active")
	}
	t.Logf("serial: %d re-pins, digest %#x", serialRepins, serialDigest)
	parDigest, parRepins := run(8)
	if parDigest != serialDigest {
		t.Errorf("adaptive digest at Workers=8 = %#x, serial = %#x", parDigest, serialDigest)
	}
	if parRepins != serialRepins {
		t.Errorf("re-pin count differs: serial %d, Workers=8 %d", serialRepins, parRepins)
	}
}
