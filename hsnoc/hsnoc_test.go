package hsnoc

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
	"tdmnoc/internal/traffic"
)

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		PacketSwitched: "Packet-VC4", HybridTDM: "Hybrid-TDM", HybridSDM: "Hybrid-SDM",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q want %q", m, m.String(), s)
		}
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode empty")
	}
}

func TestSyntheticPacketSwitched(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	s := NewSynthetic(cfg, Tornado, 0.10)
	defer s.Close()
	s.Warmup(2000)
	res := s.Run(8000)
	if res.Packets == 0 {
		t.Fatal("no packets delivered")
	}
	if res.AvgNetLatency < 10 || res.AvgNetLatency > 60 {
		t.Errorf("implausible latency %.1f", res.AvgNetLatency)
	}
	if math.Abs(res.Throughput-0.10) > 0.02 {
		t.Errorf("throughput %.3f, offered 0.10", res.Throughput)
	}
	if res.CSFlitFraction != 0 {
		t.Error("packet-switched run had CS flits")
	}
	d := s.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 || d.LatchConflicts != 0 {
		t.Errorf("diagnostics dirty: %+v", d)
	}
}

func TestSyntheticHybridTDM(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Mode = HybridTDM
	s := NewSynthetic(cfg, Tornado, 0.10)
	defer s.Close()
	s.Warmup(4000)
	res := s.Run(10000)
	if res.CSFlitFraction == 0 {
		t.Error("hybrid run circuit-switched nothing")
	}
	if res.CircuitsEstablished == 0 {
		t.Error("no circuits established")
	}
	if res.ActiveSlotEntries == 0 {
		t.Error("no active slot entries reported")
	}
	if res.Energy.TotalPJ <= 0 {
		t.Error("no energy recorded")
	}
	d := s.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 {
		t.Errorf("CS invariants: %+v", d)
	}
	if d.StolenSlots == 0 {
		t.Error("no time-slot stealing observed")
	}
}

func TestHybridSavesEnergyOnTornado(t *testing.T) {
	run := func(mode Mode) Results {
		cfg := DefaultConfig(6, 6)
		cfg.Mode = mode
		s := NewSynthetic(cfg, Tornado, 0.15)
		defer s.Close()
		s.Warmup(4000)
		return s.Run(12000)
	}
	base := run(PacketSwitched)
	tdm := run(HybridTDM)
	saving := tdm.EnergySavingVs(base)
	if saving <= 0.05 {
		t.Errorf("TDM energy saving %.3f on tornado, want > 5%%", saving)
	}
	if tdm.AvgNetLatency >= base.AvgNetLatency {
		t.Errorf("TDM net latency %.1f not below baseline %.1f", tdm.AvgNetLatency, base.AvgNetLatency)
	}
}

func TestSDMMode(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Mode = HybridSDM
	s := NewSynthetic(cfg, Tornado, 0.08)
	defer s.Close()
	s.Warmup(3000)
	res := s.Run(8000)
	if res.Packets == 0 {
		t.Fatal("SDM delivered nothing")
	}
	// Serialization: SDM latency must exceed the full-width baseline's.
	base := NewSynthetic(DefaultConfig(6, 6), Tornado, 0.08)
	defer base.Close()
	base.Warmup(3000)
	b := base.Run(8000)
	if res.AvgNetLatency <= b.AvgNetLatency {
		t.Errorf("SDM latency %.1f not above full-width %.1f at low load", res.AvgNetLatency, b.AvgNetLatency)
	}
}

func TestRouterArea(t *testing.T) {
	ps := DefaultConfig(6, 6)
	hy := DefaultConfig(6, 6)
	hy.Mode = HybridTDM
	a, b := ps.RouterAreaMM2(), hy.RouterAreaMM2()
	if math.Abs(a-0.177) > 0.002 || math.Abs(b-0.188) > 0.002 {
		t.Errorf("areas %.4f / %.4f, want 0.177 / 0.188", a, b)
	}
}

func TestBenchmarkLists(t *testing.T) {
	if len(CPUBenchmarks()) != 8 {
		t.Errorf("%d CPU benchmarks, want 8", len(CPUBenchmarks()))
	}
	if len(GPUBenchmarks()) != 7 {
		t.Errorf("%d GPU benchmarks, want 7", len(GPUBenchmarks()))
	}
}

func TestHeterogeneousFacade(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Mode = HybridTDM
	h, err := NewHeterogeneous(cfg, "EQUAKE", "BLACKSCHOLES")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.Warmup(3000)
	res := h.Run(8000)
	if res.CPUInstructions == 0 || res.GPUIterations == 0 {
		t.Fatal("no work completed")
	}
	if res.GPUCSFraction <= 0 {
		t.Error("no GPU circuit switching")
	}
	if res.Energy.TotalPJ <= 0 {
		t.Error("no energy")
	}
	d := h.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 {
		t.Errorf("invariants: %+v", d)
	}
}

func TestHeterogeneousErrors(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	if _, err := New(cfg, Mix{CPU: "NOPE", GPU: "STO"}); err == nil || !strings.Contains(err.Error(), `unknown CPU benchmark "NOPE"`) {
		t.Errorf("bogus CPU benchmark: got %v", err)
	}
	if _, err := New(cfg, Mix{CPU: "SWIM", GPU: "NOPE"}); err == nil || !strings.Contains(err.Error(), `unknown GPU benchmark "NOPE"`) {
		t.Errorf("bogus GPU benchmark: got %v", err)
	}
	cfg.Mode = HybridSDM
	if _, err := New(cfg, Mix{CPU: "SWIM", GPU: "STO"}); err == nil || !strings.Contains(err.Error(), "PacketSwitched and HybridTDM only") {
		t.Errorf("SDM hetero: got %v", err)
	}
	// Meshes on which the scaled layout loses a tile kind (the four
	// memory controllers overwrite the only GPU or L2 tiles) used to
	// panic inside the tile models; they must be refused by name.
	for _, d := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {6, 1}} {
		cfg := DefaultConfig(d[0], d[1])
		cfg.Mode = HybridTDM
		_, err := New(cfg, Mix{CPU: "SWIM", GPU: "STO"})
		if want := fmt.Sprintf("%dx%d mesh is too small", d[0], d[1]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%dx%d: got %v, want an error containing %q", d[0], d[1], err, want)
		}
	}
	for _, d := range [][2]int{{3, 3}, {1, 6}, {4, 3}, {8, 8}} {
		cfg := DefaultConfig(d[0], d[1])
		cfg.Mode = HybridTDM
		h, err := New(cfg, Mix{CPU: "SWIM", GPU: "STO"})
		if err != nil {
			t.Errorf("%dx%d refused: %v", d[0], d[1], err)
			continue
		}
		res := h.Run(1500)
		h.Close()
		if res.CPUInstructions == 0 || res.GPUIterations == 0 {
			t.Errorf("%dx%d did no work: %+v", d[0], d[1], res)
		}
	}
}

func TestScaledHeterogeneousLayout(t *testing.T) {
	cfg := DefaultConfig(8, 8)
	cfg.Mode = HybridTDM
	h, err := NewHeterogeneous(cfg, "ART", "LPS")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.Warmup(1000)
	res := h.Run(3000)
	if res.CPUInstructions == 0 || res.GPUIterations == 0 {
		t.Fatal("scaled layout did no work")
	}
}

func TestDeterministicFacade(t *testing.T) {
	run := func() Results {
		cfg := DefaultConfig(4, 4)
		cfg.Mode = HybridTDM
		cfg.Seed = 9
		s := NewSynthetic(cfg, UniformRandom, 0.1)
		defer s.Close()
		s.Warmup(1000)
		return s.Run(3000)
	}
	a, b := run(), run()
	if a.Packets != b.Packets || a.Energy.TotalPJ != b.Energy.TotalPJ {
		t.Fatalf("nondeterministic facade: %+v vs %+v", a.Packets, b.Packets)
	}
}

func TestConfigSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Mode = HybridTDM
	cfg.PathSharing = true
	cfg.SAIterations = 2
	cfg.Seed = 42
	var buf bytes.Buffer
	if err := SaveConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cfg) {
		t.Fatalf("round trip changed config:\n%+v\n%+v", got, cfg)
	}
}

func TestLoadConfigRejectsBadInput(t *testing.T) {
	cases := []string{
		"not json",
		`{"Width": 0, "Height": 6}`,
		`{"Width": 6, "Height": 6, "Mode": 99}`,
		`{"Width": 6, "Height": 6, "Typo": true}`,
		`{"Width": 6, "Height": 6, "VCs": -1}`,
		`{"Width": 6, "Height": 6, "VCs": 13}`, // 5 ports x 13 VCs overflow the router's mask word
		`{"Width": 6, "Height": 6, "Mode": 2, "PathSharing": true}`,
		`{"Width": 6, "Height": 6, "Mode": 0, "PathSharing": true}`,
		`{"Width": 6, "Height": 6, "Mode": 2, "CheckInvariants": true}`, // the SDM engine has no invariant layer
		`{"Width": 6, "Height": 6, "Mode": 1, "AdaptiveTopK": 3}`,       // no controller runs to use it
	}
	for i, c := range cases {
		if _, err := LoadConfig(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	for _, m := range []Mode{PacketSwitched, HybridTDM, HybridSDM} {
		cfg := DefaultConfig(6, 6)
		cfg.Mode = m
		if err := cfg.Validate(); err != nil {
			t.Errorf("default %v config rejected: %v", m, err)
		}
	}
}

// TestNewRefusesWhatValidateRefuses: New returns Validate's error in
// every mode and for every workload, so a knob the mode cannot honour
// (path sharing on a packet-switched network, say) is refused, not
// dropped. The NewSynthetic wrapper panics with the same text.
func TestNewRefusesWhatValidateRefuses(t *testing.T) {
	tr := trace.Synthesize(traffic.Tornado, topology.NewMesh(6, 6), 0.1, 5, 200, 3)
	for _, tc := range []struct {
		mode    Mode
		set     func(*Config)
		wrapper bool // through NewSynthetic, which panics
	}{
		{PacketSwitched, func(c *Config) { c.PathSharing = true }, false},
		{PacketSwitched, func(c *Config) { c.SlotInit = 8 }, false},
		{PacketSwitched, func(c *Config) { c.PinnedFlows = []FlowPin{{Src: 0, Dst: 5}} }, false},
		{PacketSwitched, func(c *Config) { c.RestrictSetups = true }, false},
		{PacketSwitched, func(c *Config) { c.AdaptiveEpoch = 256 }, false},
		{PacketSwitched, func(c *Config) { c.GatedPlanes = 1 }, false},
		{HybridTDM, func(c *Config) { c.SlotInit = 129 }, false},
		{HybridTDM, func(c *Config) { c.AdaptiveTopK = 3 }, false},
		{HybridTDM, func(c *Config) { c.VCs = 13 }, false},
		{HybridSDM, func(c *Config) { c.CheckInvariants = true }, false},
		{HybridSDM, func(c *Config) { c.VCPowerGating = true }, false},
		{HybridSDM, func(c *Config) { c.GatedPlanes = 3 }, false},
		{PacketSwitched, func(c *Config) { c.PathSharing = true }, true},
	} {
		cfg := DefaultConfig(6, 6)
		cfg.Mode = tc.mode
		tc.set(&cfg)
		want := cfg.Validate()
		if want == nil {
			t.Fatalf("%v %+v: Validate accepts it", tc.mode, cfg)
		}
		if tc.wrapper {
			func() {
				defer func() {
					if got := fmt.Sprint(recover()); got != want.Error() {
						t.Errorf("%v: NewSynthetic panicked with %q, want %q", tc.mode, got, want)
					}
				}()
				NewSynthetic(cfg, Tornado, 0.1).Close()
			}()
			continue
		}
		for _, w := range []Workload{Synthetic{Pattern: Tornado, Rate: 0.1}, Mix{CPU: "ART", GPU: "LPS"}, Replay{Trace: tr}} {
			s, err := New(cfg, w)
			if s != nil {
				s.Close()
			}
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%v %T: New returned %v, want %q", tc.mode, w, err, want)
			}
			if got := Check(cfg, w); got == nil || got.Error() != want.Error() {
				t.Errorf("%v %T: Check returned %v, want %q", tc.mode, w, got, want)
			}
		}
	}
	if _, err := New(DefaultConfig(6, 6), nil); err == nil {
		t.Error("New accepted a nil workload")
	}
}

func TestUtilizationGrid(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	s := NewSynthetic(cfg, Tornado, 0.2)
	defer s.Close()
	s.Warmup(500)
	s.Run(2000)
	grid := s.UtilizationGrid()
	if len(grid) != 4 || len(grid[0]) != 4 {
		t.Fatalf("grid shape %dx%d", len(grid), len(grid[0]))
	}
	busy := 0.0
	for _, row := range grid {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("utilisation %v out of [0,1]", v)
			}
			busy += v
		}
	}
	if busy == 0 {
		t.Fatal("no router did any work")
	}
	// SDM mode has no grid.
	sd := DefaultConfig(4, 4)
	sd.Mode = HybridSDM
	sdm := NewSynthetic(sd, Tornado, 0.1)
	defer sdm.Close()
	if sdm.UtilizationGrid() != nil {
		t.Error("SDM returned a grid")
	}
}

func TestStopTrafficAndDrain(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Mode = HybridTDM
	s := NewSynthetic(cfg, UniformRandom, 0.15)
	defer s.Close()
	s.Warmup(2000)
	s.StopTraffic()
	if !s.Drain(20000) {
		t.Fatal("network failed to drain after StopTraffic")
	}
	// SDM path too.
	sd := DefaultConfig(4, 4)
	sd.Mode = HybridSDM
	x := NewSynthetic(sd, Tornado, 0.1)
	defer x.Close()
	x.Warmup(2000)
	x.StopTraffic()
	if !x.Drain(30000) {
		t.Fatal("SDM failed to drain after StopTraffic")
	}
}
