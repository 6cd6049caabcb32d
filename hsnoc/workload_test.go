package hsnoc

import (
	"strings"
	"testing"

	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
	"tdmnoc/internal/traffic"
)

// The tests in this file exercise what became possible when the Section
// V tile system and trace replay turned into workloads of Simulator:
// rolling digests, telemetry, profiles and policies on a hetero run,
// and replay through the validated, pooled front door.

// heteroMix builds the 6x6 LPS/ART mix in Hybrid-TDM-hop-VCt.
func heteroMix(t *testing.T, workers int, check bool) *Simulator {
	t.Helper()
	cfg := DefaultConfig(6, 6)
	cfg.Mode = HybridTDM
	cfg.PathSharing = true
	cfg.VCPowerGating = true
	cfg.Workers = workers
	cfg.CheckInvariants = check
	cfg.CheckInterval = 4
	s, err := NewHeterogeneous(cfg, "ART", "LPS")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestHeteroProfilePolicyRerun walks the offline loop on the paper's
// own workload: profile a mix, let the greedy policy pin flows, apply
// the decision, re-run.
func TestHeteroProfilePolicyRerun(t *testing.T) {
	s := heteroMix(t, 1, false)
	if _, err := s.AttachTelemetry(TelemetryOptions{TrackFlows: true}); err != nil {
		t.Fatal(err)
	}
	s.Warmup(500)
	s.Run(2500)
	prof, err := s.ExtractProfile()
	if err != nil {
		t.Fatal(err)
	}
	// Every packet the recorder saw belongs to exactly one flow.
	var packets, ejected, flits int64
	for _, f := range prof.Flows {
		packets += f.Packets
		ejected += f.Ejected
		flits += f.Flits
	}
	sum := s.Telemetry().Summary()
	if packets != prof.Injected || ejected != sum.Ejected || flits < packets {
		t.Errorf("flows sum to %d injected / %d ejected packets (%d flits), recorder counted %d / %d",
			packets, ejected, flits, prof.Injected, sum.Ejected)
	}

	pol, err := ParsePolicy("greedy")
	if err != nil {
		t.Fatal(err)
	}
	d := pol.Decide(prof)
	if len(d.PinnedFlows) == 0 {
		t.Fatal("greedy pinned nothing on a GPU-heavy mix")
	}
	cfg, err := ApplyDecision(s.cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckInvariants = true
	cfg.CheckInterval = 16
	re, err := NewHeterogeneous(cfg, "ART", "LPS")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.Warmup(500)
	res := re.Run(2500)
	if res.CPUInstructions == 0 || res.GPUIterations == 0 || res.GPUCSFraction == 0 {
		t.Errorf("policy re-run did no hybrid work: %+v", res)
	}
	if d := re.Diagnose(); d.MisroutedCS != 0 || d.DroppedCS != 0 || d.LatchConflicts != 0 {
		t.Errorf("policy re-run diagnostics dirty: %+v", d)
	}
	if err := re.InvariantError(); err != nil {
		t.Error(err)
	}
}

// TestHeteroStopTrafficAndDrain: halted cores let the network empty,
// and the drained cycles extend the measured region.
func TestHeteroStopTrafficAndDrain(t *testing.T) {
	s := heteroMix(t, 1, false)
	s.Warmup(500)
	before := s.Run(1500)
	s.StopTraffic()
	if !s.Drain(20000) {
		t.Fatal("hetero system did not drain")
	}
	after := s.Run(0)
	if after.Cycles <= before.Cycles || after.Packets < before.Packets {
		t.Errorf("drain did not extend the measured region: %d cycles / %d packets, then %d / %d",
			before.Cycles, before.Packets, after.Cycles, after.Packets)
	}
}

func TestReplayErrors(t *testing.T) {
	tr := trace.Synthesize(traffic.Tornado, topology.NewMesh(4, 4), 0.1, 5, 200, 3)
	cfg := DefaultConfig(4, 4)
	for _, tc := range []struct {
		name string
		mod  func(*Config, *Trace)
		want string
	}{
		{"sdm", func(c *Config, _ *Trace) { c.Mode = HybridSDM }, "PacketSwitched and HybridTDM only"},
		{"mesh mismatch", func(c *Config, _ *Trace) { c.Width = 6 }, "4x4 trace cannot replay on a 6x4 mesh"},
		{"invalid config", func(c *Config, _ *Trace) { c.VCs = -1 }, "negative"},
		{"invalid trace", func(_ *Config, t *Trace) { t.Events[0].Dst = 99 }, "outside 4x4 mesh"},
	} {
		c, bad := cfg, *tr
		bad.Events = append([]trace.Event(nil), tr.Events...)
		tc.mod(&c, &bad)
		if _, err := New(c, Replay{Trace: &bad}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(cfg, Replay{}); err == nil || !strings.Contains(err.Error(), "no trace") {
		t.Errorf("no trace: got %v", err)
	}
}

// TestReplayStopTraffic: a stopped replay injects nothing further and
// delivers exactly what it had sent.
func TestReplayStopTraffic(t *testing.T) {
	tr := trace.Synthesize(traffic.Tornado, topology.NewMesh(4, 4), 0.1, 5, 2000, 3)
	cfg := DefaultConfig(4, 4)
	cfg.Mode = HybridTDM
	s, err := New(cfg, Replay{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(500)
	s.StopTraffic()
	if !s.Drain(20000) {
		t.Fatal("stopped replay did not drain")
	}
	var sentBy500 int64
	for _, e := range tr.Events {
		if e.Cycle < 500 {
			sentBy500++
		}
	}
	if got := s.Run(1000).Packets; got != sentBy500 || got == 0 {
		t.Errorf("delivered %d packets, trace holds %d events before cycle 500", got, sentBy500)
	}
}
