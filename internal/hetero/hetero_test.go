package hetero

import (
	"fmt"
	"strings"
	"testing"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/network"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/workload"
)

func TestLayout36Counts(t *testing.T) {
	l := Layout36()
	if l.Mesh.Nodes() != 36 {
		t.Fatalf("layout has %d nodes", l.Mesh.Nodes())
	}
	if len(l.CPUs) != 8 {
		t.Errorf("%d CPU tiles, want 8", len(l.CPUs))
	}
	if len(l.GPUs) != 12 {
		t.Errorf("%d accelerator tiles, want 12", len(l.GPUs))
	}
	if len(l.L2s) != 12 {
		t.Errorf("%d L2 tiles, want 12", len(l.L2s))
	}
	if len(l.MCs) != 4 {
		t.Errorf("%d MC tiles, want 4", len(l.MCs))
	}
	// Every tile accounted for exactly once.
	total := len(l.CPUs) + len(l.GPUs) + len(l.L2s) + len(l.MCs)
	if total != 36 {
		t.Errorf("tiles sum to %d", total)
	}
}

func TestTileKindString(t *testing.T) {
	want := map[TileKind]string{TileCPU: "C", TileGPU: "A", TileL2: "L2", TileMC: "M"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q want %q", k, k.String(), s)
		}
	}
}

func TestLayoutScaled(t *testing.T) {
	for _, dim := range []int{8, 16} {
		l := LayoutScaled(dim, dim)
		if l.Mesh.Nodes() != dim*dim {
			t.Fatalf("%dx%d layout has %d nodes", dim, dim, l.Mesh.Nodes())
		}
		if len(l.MCs) != 4 {
			t.Errorf("%dx%d: %d MCs, want 4", dim, dim, len(l.MCs))
		}
		if len(l.CPUs) == 0 || len(l.GPUs) == 0 || len(l.L2s) == 0 {
			t.Errorf("%dx%d: empty tile class (C=%d A=%d L2=%d)", dim, dim, len(l.CPUs), len(l.GPUs), len(l.L2s))
		}
	}
}

func TestNearestMCAndBankFor(t *testing.T) {
	l := Layout36()
	mc := l.NearestMC(l.GPUs[0])
	if l.Kind(mc) != TileMC {
		t.Fatalf("NearestMC returned a %v tile", l.Kind(mc))
	}
	for i := 0; i < 40; i++ {
		if l.Kind(l.BankFor(i)) != TileL2 {
			t.Fatalf("BankFor(%d) is not an L2 tile", i)
		}
	}
}

func TestDeriveComputeCycles(t *testing.T) {
	for _, b := range workload.GPUBenchmarks {
		c := b.DeriveComputeCycles(60)
		if c < 1 {
			t.Errorf("%s: compute cycles %d", b.Name, c)
		}
		// Back-check: implied rate within 25% of Table III.
		flitsPerOp := (1-b.WriteFraction)*1 + b.WriteFraction*5
		implied := float64(b.Warps) * flitsPerOp / float64(c+60)
		if implied < b.InjectionRate*0.75 || implied > b.InjectionRate*1.35 {
			t.Errorf("%s: implied rate %.3f vs target %.3f", b.Name, implied, b.InjectionRate)
		}
	}
}

func TestMixEnumeration(t *testing.T) {
	if workload.MixCount() != 56 {
		t.Fatalf("mix count %d, want 56", workload.MixCount())
	}
	seen := map[string]bool{}
	for i := 0; i < workload.MixCount(); i++ {
		c, g := workload.Mix(i)
		key := c.Name + "/" + g.Name
		if seen[key] {
			t.Fatalf("duplicate mix %s", key)
		}
		seen[key] = true
	}
}

func TestBenchmarkLookups(t *testing.T) {
	if _, ok := workload.GPUBenchmarkByName("STO"); !ok {
		t.Error("STO not found")
	}
	if _, ok := workload.GPUBenchmarkByName("NOPE"); ok {
		t.Error("bogus GPU benchmark found")
	}
	if _, ok := workload.CPUBenchmarkByName("SWIM"); !ok {
		t.Error("SWIM not found")
	}
	if _, ok := workload.CPUBenchmarkByName("NOPE"); ok {
		t.Error("bogus CPU benchmark found")
	}
}

// rig wires a System onto its own 6x6 network, the way
// hsnoc.NewHeterogeneous does.
type rig struct {
	*System
	net *network.Network
}

func newRig(t *testing.T, cfg network.Config, cpuName, gpuName string) *rig {
	t.Helper()
	cpu, ok := workload.CPUBenchmarkByName(cpuName)
	if !ok {
		t.Fatalf("unknown CPU benchmark %s", cpuName)
	}
	gpu, ok := workload.GPUBenchmarkByName(gpuName)
	if !ok {
		t.Fatalf("unknown GPU benchmark %s", gpuName)
	}
	sys := NewSystem(Layout36(), cpu, gpu)
	r := &rig{System: sys, net: network.New(cfg, sys.Endpoint)}
	t.Cleanup(r.net.Close)
	return r
}

// measure warms up, then runs a measured region of the given length.
func (r *rig) measure(warm, cycles int) {
	r.net.Run(warm)
	r.net.EnableStats()
	r.ResetCounters()
	r.net.Run(cycles)
}

func quickSystem(t *testing.T, cfg network.Config) *rig {
	return newRig(t, cfg, "EQUAKE", "BLACKSCHOLES")
}

func TestSystemRunsPacketSwitched(t *testing.T) {
	s := quickSystem(t, network.DefaultConfig(6, 6))
	s.measure(2000, 6000)
	if s.CPUInstructions() == 0 {
		t.Error("CPUs retired nothing")
	}
	if s.GPUIterations() == 0 {
		t.Error("GPUs completed nothing")
	}
	if st := s.net.Stats(); st.EjectedPackets == 0 {
		t.Error("no network traffic")
	}
	d := s.net.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 || d.LatchConflicts != 0 {
		t.Errorf("diagnostics dirty: %+v", d)
	}
	if s.GPUInjectionRate(s.net, 6000) <= 0 {
		t.Error("no GPU injection measured")
	}
}

func TestSystemHybridUsesCircuitsForGPUOnly(t *testing.T) {
	s := quickSystem(t, network.HybridTDMConfig(6, 6))
	s.measure(4000, 12000)
	st := s.net.Stats()
	if st.ClassCSFraction(flit.ClassGPU) <= 0 {
		t.Error("no GPU traffic was circuit-switched")
	}
	// CPU traffic must remain packet-switched (Section V-A2).
	if cs := st.ClassCSFraction(flit.ClassCPU); cs != 0 {
		t.Errorf("CPU traffic circuit-switched fraction %.3f, want 0", cs)
	}
	d := s.net.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 {
		t.Errorf("CS invariants violated: %+v", d)
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		s := quickSystem(t, network.HybridTDMConfig(6, 6))
		s.net.Run(3000)
		return s.CPUInstructions(), s.GPUIterations()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestMemoryLatencyThrottlesCPU(t *testing.T) {
	// A benchmark with a heavy miss rate must retire fewer instructions
	// than a compute-bound one on the same network.
	run := func(name string) int64 {
		s := newRig(t, network.DefaultConfig(6, 6), name, "STO")
		s.measure(1000, 5000)
		return s.CPUInstructions()
	}
	light := run("WUPWISE") // 4 misses/KI, IPC 1.7
	heavy := run("SWIM")    // 16 misses/KI, IPC 0.9
	if heavy >= light {
		t.Errorf("memory-bound SWIM (%d) retired as much as WUPWISE (%d)", heavy, light)
	}
}

func TestGPUWarpPoolHidesLatency(t *testing.T) {
	// Iterations should scale roughly with the benchmark's injection
	// intensity: LPS (0.20) completes more memory ops than STO (0.05).
	run := func(name string) int64 {
		s := newRig(t, network.DefaultConfig(6, 6), "AMMP", name)
		s.measure(1000, 5000)
		return s.GPUIterations()
	}
	if lps, sto := run("LPS"), run("STO"); lps <= sto {
		t.Errorf("LPS iterations %d not above STO %d", lps, sto)
	}
}

func TestTableIIIInjectionRatesReproduced(t *testing.T) {
	// The measured GPU injection rate should land near each benchmark's
	// Table III value (the warp-pool parameters were derived from it).
	for _, gpu := range workload.GPUBenchmarks {
		s := newRig(t, network.DefaultConfig(6, 6), "ART", gpu.Name)
		s.measure(2000, 8000)
		got := s.GPUInjectionRate(s.net, 8000)
		if got < gpu.InjectionRate*0.5 || got > gpu.InjectionRate*1.6 {
			t.Errorf("%s: measured injection %.3f, Table III says %.2f", gpu.Name, got, gpu.InjectionRate)
		}
	}
}

func TestL2MissPathReachesMC(t *testing.T) {
	s := quickSystem(t, network.DefaultConfig(6, 6))
	s.net.Run(8000)
	var mcReqs int64
	for _, m := range s.mcs {
		mcReqs += m.Requests
	}
	if mcReqs == 0 {
		t.Error("no L2 misses reached the memory controllers")
	}
	var l2Reqs int64
	for _, b := range s.banks {
		l2Reqs += b.Requests
	}
	if l2Reqs == 0 {
		t.Error("no requests reached the L2 banks")
	}
	if mcReqs >= l2Reqs {
		t.Errorf("MC requests (%d) exceed L2 requests (%d) — hit rate broken", mcReqs, l2Reqs)
	}
}

// TestHaltLetsTheNetworkDrain: halted cores issue nothing new, banks and
// controllers still answer, so every request in flight completes.
func TestHaltLetsTheNetworkDrain(t *testing.T) {
	s := quickSystem(t, network.HybridTDMConfig(6, 6))
	s.net.Run(3000)
	s.Halt()
	if !s.net.Drain(20000) {
		t.Fatalf("halted system did not drain: %d packets in flight", s.net.InFlight())
	}
	instr, iters := s.CPUInstructions(), s.GPUIterations()
	s.net.Run(500)
	if s.CPUInstructions() != instr || s.GPUIterations() != iters {
		t.Error("halted cores kept working")
	}
}

// TestLayoutForRefusesSmallMeshes: on these meshes the four memory
// controllers overwrite the only GPU or L2 tiles.
func TestLayoutForRefusesSmallMeshes(t *testing.T) {
	for _, d := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {6, 1}, {1, 1}} {
		if _, err := LayoutFor(d[0], d[1]); err == nil {
			t.Errorf("%dx%d layout accepted", d[0], d[1])
		} else if !strings.Contains(err.Error(), fmt.Sprintf("%dx%d", d[0], d[1])) {
			t.Errorf("%dx%d: error does not name the mesh: %v", d[0], d[1], err)
		}
	}
	for _, d := range [][2]int{{6, 6}, {3, 3}, {1, 6}, {4, 3}, {8, 8}} {
		if _, err := LayoutFor(d[0], d[1]); err != nil {
			t.Errorf("%dx%d layout refused: %v", d[0], d[1], err)
		}
	}
}

func TestLayoutKindAccess(t *testing.T) {
	l := Layout36()
	if l.Kind(topology.NodeID(0)) != TileCPU {
		t.Error("tile 0 should be a CPU")
	}
	if l.Kind(l.Mesh.ID(topology.Coord{X: 0, Y: 5})) != TileGPU {
		t.Error("bottom-left should be an accelerator")
	}
}

func TestLayoutString(t *testing.T) {
	s := Layout36().String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines, want 6", len(lines))
	}
	if !strings.HasPrefix(lines[0], "C") {
		t.Errorf("first row should start with a CPU tile: %q", lines[0])
	}
	if !strings.Contains(lines[2], "M") || !strings.Contains(lines[1], "L2") {
		t.Errorf("layout rows wrong:\n%s", s)
	}
	if !strings.HasPrefix(lines[5], "A") {
		t.Errorf("bottom row should be accelerators: %q", lines[5])
	}
}
