package router

import (
	"strings"
	"testing"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/invariant"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
)

// harness drives a row of routers without the network package: flits are
// injected straight onto local input latches and collected from local
// output latches, standing in for the NIs.
type harness struct {
	mesh    topology.Mesh
	routers []*Router
	now     sim.Cycle
	ejected map[topology.NodeID][]*flit.Flit
}

func newRow(t testing.TB, n int, cfg Config) *harness {
	t.Helper()
	h := &harness{
		mesh:    topology.NewMesh(n, 1),
		ejected: map[topology.NodeID][]*flit.Flit{},
	}
	for i := 0; i < n; i++ {
		h.routers = append(h.routers, New(topology.NodeID(i), h.mesh, cfg))
	}
	for i := 0; i < n; i++ {
		for _, p := range []topology.Port{topology.East, topology.West} {
			if nb, ok := h.mesh.Neighbor(topology.NodeID(i), p); ok {
				h.routers[i].Connect(p, h.routers[nb])
			}
		}
	}
	return h
}

// step runs one full cycle: the flit staged via inject is processed at
// the cycle at which step is called.
func (h *harness) step() {
	for _, r := range h.routers {
		r.Tick(h.now, sim.PhaseCompute)
	}
	for _, r := range h.routers {
		r.Tick(h.now, sim.PhaseTransfer)
	}
	for _, r := range h.routers {
		if f := r.TakeLocalEject(); f != nil {
			h.ejected[r.ID()] = append(h.ejected[r.ID()], f)
		}
	}
	h.now++
}

func (h *harness) run(cycles int) {
	for i := 0; i < cycles; i++ {
		h.step()
	}
}

// inject stages a flit for processing at the *current* cycle.
func (h *harness) inject(id topology.NodeID, f *flit.Flit) {
	h.routers[id].StageLocalInject(f)
}

func (h *harness) diagClean(t testing.TB) {
	t.Helper()
	for _, r := range h.routers {
		if r.MisroutedCS != 0 || r.DroppedCS != 0 || r.LatchConflicts != 0 {
			t.Errorf("router %d diagnostics dirty: mis=%d drop=%d latch=%d",
				r.ID(), r.MisroutedCS, r.DroppedCS, r.LatchConflicts)
		}
	}
}

func dataPacket(id uint64, src, dst topology.NodeID, flits int) *flit.Packet {
	return &flit.Packet{ID: id, Kind: flit.DataPacket, Src: src, Dst: dst, Flits: flits}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{VCs: 0, BufDepth: 5},
		{VCs: 4, BufDepth: 0},
		{VCs: MaxVCs + 1, BufDepth: 5}, // one bit per port x VC must fit the mask word
		{VCs: 4, BufDepth: 5, Hybrid: true, SlotCapacity: 0},
		{VCs: 4, BufDepth: 5, Hybrid: true, SlotCapacity: 8, SlotActive: 16},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(0, topology.NewMesh(2, 2), cfg)
		}()
	}
}

func TestConnectErrors(t *testing.T) {
	m := topology.NewMesh(2, 1)
	a, b := New(0, m, DefaultConfig()), New(1, m, DefaultConfig())
	a.Connect(topology.East, b)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Connect did not panic")
			}
		}()
		a.Connect(topology.East, b)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Connect(Local) did not panic")
			}
		}()
		a.Connect(topology.Local, b)
	}()
}

func TestPSPacketTimingOneHop(t *testing.T) {
	h := newRow(t, 2, DefaultConfig())
	pkt := dataPacket(1, 0, 1, 1)
	fs := flit.Explode(pkt)
	fs[0].VC = 0
	h.inject(0, fs[0]) // processed at cycle 0
	h.run(20)
	got := h.ejected[1]
	if len(got) != 1 {
		t.Fatalf("ejected %d flits, want 1", len(got))
	}
	// Arrival at router 0 at cycle 0: RC@0, VA@1, SA@2, ST@3 -> link ->
	// arrival at router 1 at cycle 5; pipeline again; local latch at 5+3,
	// taken at the end of cycle 8.
	h2 := newRow(t, 2, DefaultConfig())
	pkt2 := dataPacket(2, 0, 1, 1)
	fs2 := flit.Explode(pkt2)
	h2.inject(0, fs2[0])
	cycles := 0
	for len(h2.ejected[1]) == 0 && cycles < 30 {
		h2.step()
		cycles++
	}
	if cycles != 9 { // ejected during cycle index 8 => 9 steps
		t.Errorf("one-hop 1-flit delivery took %d steps, want 9", cycles)
	}
	h.diagClean(t)
}

func TestPSMultiFlitWormhole(t *testing.T) {
	h := newRow(t, 3, DefaultConfig())
	pkt := dataPacket(1, 0, 2, 5)
	for i, f := range flit.Explode(pkt) {
		f.VC = 1
		// One flit per cycle onto the local link.
		h.inject(0, f)
		h.step()
		_ = i
	}
	h.run(40)
	if len(h.ejected[2]) != 5 {
		t.Fatalf("ejected %d flits, want 5", len(h.ejected[2]))
	}
	// Flit order must be preserved.
	for i, f := range h.ejected[2] {
		if f.Seq != i {
			t.Errorf("flit %d has seq %d", i, f.Seq)
		}
	}
	h.diagClean(t)
}

func TestTwoPacketsInterleaveAcrossVCs(t *testing.T) {
	h := newRow(t, 2, DefaultConfig())
	a := dataPacket(1, 0, 1, 3)
	b := dataPacket(2, 0, 1, 3)
	fa, fb := flit.Explode(a), flit.Explode(b)
	for _, f := range fa {
		f.VC = 0
	}
	for _, f := range fb {
		f.VC = 1
	}
	// Interleave injection: a0 b0 a1 b1 a2 b2.
	for i := 0; i < 3; i++ {
		h.inject(0, fa[i])
		h.step()
		h.inject(0, fb[i])
		h.step()
	}
	h.run(30)
	if len(h.ejected[1]) != 6 {
		t.Fatalf("ejected %d flits, want 6", len(h.ejected[1]))
	}
	counts := map[uint64]int{}
	for _, f := range h.ejected[1] {
		counts[f.Pkt.ID]++
	}
	if counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("per-packet flit counts: %v", counts)
	}
	h.diagClean(t)
}

func hybridRow(t *testing.T, n int) *harness {
	cfg := HybridConfig()
	cfg.SlotCapacity = 16
	cfg.SlotActive = 16
	return newRow(t, n, cfg)
}

// reservePath books a circuit from the local port of src through the row
// to the local port of dst, starting at baseSlot, and returns the slot at
// which the source must inject.
func reservePath(t *testing.T, h *harness, src, dst topology.NodeID, baseSlot, dur int) {
	t.Helper()
	hops := h.mesh.HopDistance(src, dst)
	cur := src
	in := topology.Local
	for i := 0; i <= hops; i++ {
		var out topology.Port
		if cur == dst {
			out = topology.Local
		} else if dst > cur {
			out = topology.East
		} else {
			out = topology.West
		}
		slot := (baseSlot + 2*i) % h.routers[cur].Tables().Active()
		if !h.routers[cur].Tables().Reserve(in, out, slot, dur, int64(h.now)) {
			t.Fatalf("manual reservation failed at router %d", cur)
		}
		if out == topology.Local {
			break
		}
		next, _ := h.mesh.Neighbor(cur, out)
		in = out.Opposite()
		cur = next
	}
}

func TestCSBypassTiming(t *testing.T) {
	h := hybridRow(t, 3)
	reservePath(t, h, 0, 2, 4, 4)
	// Wait until cycle 4 (slot 4 of 16), then inject the 4 CS flits.
	pkt := dataPacket(9, 0, 2, 4)
	pkt.Switching = flit.CircuitSwitched
	fs := flit.Explode(pkt)
	h.run(4) // now == 4
	start := h.now
	for _, f := range fs {
		h.inject(0, f)
		h.step()
	}
	h.run(10)
	got := h.ejected[2]
	if len(got) != 4 {
		t.Fatalf("ejected %d CS flits, want 4", len(got))
	}
	// Head: processed at router 0 at cycle 4, router 1 at 6, router 2 at
	// 8, ejected during cycle 8 → two cycles per hop.
	_ = start
	h.diagClean(t)
	if h.routers[1].Meter().BufWrites != 0 {
		t.Errorf("CS flits were buffered at the intermediate router (%d writes)", h.routers[1].Meter().BufWrites)
	}
	if h.routers[1].Meter().CSLatches != 4 {
		t.Errorf("CS latch count %d, want 4", h.routers[1].Meter().CSLatches)
	}
}

func TestCSExactLatency(t *testing.T) {
	h := hybridRow(t, 3)
	reservePath(t, h, 0, 2, 0, 1)
	pkt := dataPacket(9, 0, 2, 1)
	pkt.Switching = flit.CircuitSwitched
	fs := flit.Explode(pkt)
	// Slot 0 of 16: inject so the flit is processed at cycle 16.
	h.run(16)
	h.inject(0, fs[0])
	steps := 0
	for len(h.ejected[2]) == 0 && steps < 30 {
		h.step()
		steps++
	}
	// Processed at router 0 at cycle 16, router 1 at 18, router 2 at 20:
	// ejected at the end of the 5th step after injection (16,17,18,19,20).
	if steps != 5 {
		t.Errorf("CS 2-hop delivery took %d steps, want 5 (2 cycles/hop)", steps)
	}
	h.diagClean(t)
}

func TestMisroutedCSCounted(t *testing.T) {
	h := hybridRow(t, 2)
	pkt := dataPacket(5, 0, 1, 1)
	pkt.Switching = flit.CircuitSwitched
	fs := flit.Explode(pkt)
	h.inject(0, fs[0]) // no reservation exists
	h.run(5)
	if h.routers[0].MisroutedCS != 1 || h.routers[0].DroppedCS != 1 {
		t.Errorf("misrouted CS not counted: mis=%d drop=%d", h.routers[0].MisroutedCS, h.routers[0].DroppedCS)
	}
}

func TestTimeSlotStealing(t *testing.T) {
	// Reserve EVERY slot of router 0's East output for a circuit that
	// never sends; with stealing on, PS traffic flows anyway, with
	// stealing off it cannot make progress.
	run := func(stealing bool) int {
		cfg := HybridConfig()
		cfg.SlotCapacity, cfg.SlotActive = 8, 8
		cfg.TimeSlotStealing = stealing
		h := newRow(t, 2, cfg)
		if !h.routers[0].Tables().Reserve(topology.North, topology.East, 0, 7, 0) {
			t.Fatal("blanket reservation failed")
		}
		// Occupancy cap (90 %) prevents a full reservation; 7 of 8 slots
		// suffice to strangle PS traffic to 1/8 bandwidth without stealing.
		pkt := dataPacket(1, 0, 1, 5)
		for _, f := range flit.Explode(pkt) {
			h.inject(0, f)
			h.step()
		}
		h.run(60)
		return len(h.ejected[1])
	}
	if got := run(true); got != 5 {
		t.Errorf("with stealing: ejected %d flits, want 5", got)
	}
	without := run(false)
	if without == 5 {
		// 1 free slot of 8 still lets flits trickle; the packet should
		// not complete within the short window above.
		t.Log("note: packet completed without stealing (trickle)")
	}
	// The stronger assertion: stolen slots are counted when stealing on.
	cfg := HybridConfig()
	cfg.SlotCapacity, cfg.SlotActive = 8, 8
	h := newRow(t, 2, cfg)
	h.routers[0].Tables().Reserve(topology.North, topology.East, 0, 7, 0)
	pkt := dataPacket(2, 0, 1, 5)
	for _, f := range flit.Explode(pkt) {
		h.inject(0, f)
		h.step()
	}
	h.run(60)
	if h.routers[0].StolenSlots == 0 {
		t.Error("no stolen slots counted")
	}
}

func injectConfig(h *harness, src topology.NodeID, pkt *flit.Packet) {
	fs := flit.Explode(pkt)
	h.inject(src, fs[0])
}

func TestSetupReservesAndAcks(t *testing.T) {
	h := hybridRow(t, 3)
	setup := &flit.Packet{
		ID: 1, Kind: flit.SetupMsg, Src: 0, Dst: 2, Class: flit.ClassConfig, Flits: 1,
		Config: flit.ConfigPayload{Slot: 3, BaseSlot: 3, Duration: 4},
	}
	injectConfig(h, 0, setup)
	h.run(60)
	// Ack(success) must come back to node 0.
	got := h.ejected[0]
	if len(got) != 1 {
		t.Fatalf("ejected %d packets at source, want 1 ack", len(got))
	}
	ack := got[0].Pkt
	if ack.Kind != flit.AckMsg || !ack.Config.OK {
		t.Fatalf("expected successful ack, got %+v", ack)
	}
	if ack.Config.CircuitDst != 2 || ack.Config.BaseSlot != 3 {
		t.Fatalf("ack payload wrong: %+v", ack.Config)
	}
	// Reservations: router 0 (Local->East, slot 3), router 1 (West->East,
	// slot 5), router 2 (West->Local, slot 7), all duration 4.
	checks := []struct {
		node topology.NodeID
		in   topology.Port
		slot int
		out  topology.Port
	}{
		{0, topology.Local, 3, topology.East},
		{1, topology.West, 5, topology.East},
		{2, topology.West, 7, topology.Local},
	}
	for _, c := range checks {
		for i := 0; i < 4; i++ {
			out, ok := h.routers[c.node].Tables().LookupSlot(c.in, (c.slot+i)%16, int64(h.now))
			if !ok || out != c.out {
				t.Errorf("router %d in[%v] slot %d: (%v,%v), want %v", c.node, c.in, (c.slot+i)%16, out, ok, c.out)
			}
		}
	}
	h.diagClean(t)
}

func TestSetupFailureProducesNackAndTeardownCleans(t *testing.T) {
	h := hybridRow(t, 3)
	// Block router 1's West input at slot 5 (where the setup will need it).
	if !h.routers[1].Tables().Reserve(topology.West, topology.North, 5, 4, 0) {
		t.Fatal("blocking reservation failed")
	}
	setup := &flit.Packet{
		ID: 1, Kind: flit.SetupMsg, Src: 0, Dst: 2, Class: flit.ClassConfig, Flits: 1,
		Config: flit.ConfigPayload{Slot: 3, BaseSlot: 3, Duration: 4},
	}
	injectConfig(h, 0, setup)
	h.run(60)
	got := h.ejected[0]
	if len(got) != 1 {
		t.Fatalf("ejected %d packets at source, want 1 nack", len(got))
	}
	ack := got[0].Pkt
	if ack.Kind != flit.AckMsg || ack.Config.OK {
		t.Fatalf("expected failure ack, got %+v", ack.Config)
	}
	if ack.Config.FailHop != 1 {
		t.Fatalf("FailHop = %d, want 1 (only router 0 reserved)", ack.Config.FailHop)
	}
	// Router 0 still holds the prefix; a teardown must release it.
	if h.routers[0].Tables().ReservedEntries() != 4 {
		t.Fatalf("prefix reservation missing: %d entries", h.routers[0].Tables().ReservedEntries())
	}
	td := &flit.Packet{
		ID: 2, Kind: flit.TeardownMsg, Src: 0, Dst: 2, Class: flit.ClassConfig, Flits: 1,
		// FailHop bounds the walk to the reserved prefix (1 router).
		Config: flit.ConfigPayload{Slot: 3, BaseSlot: 3, Duration: 4, FailHop: 1},
	}
	injectConfig(h, 0, td)
	h.run(40)
	if h.routers[0].Tables().ReservedEntries() != 0 {
		t.Fatalf("teardown left %d entries at router 0", h.routers[0].Tables().ReservedEntries())
	}
	// The blocking reservation on router 1 must be untouched.
	if h.routers[1].Tables().ReservedEntries() != 4 {
		t.Fatalf("teardown disturbed router 1: %d entries", h.routers[1].Tables().ReservedEntries())
	}
	h.diagClean(t)
}

func TestStaleEpochSetupRejected(t *testing.T) {
	h := hybridRow(t, 2)
	h.routers[0].Epoch = 1
	h.routers[1].Epoch = 1
	setup := &flit.Packet{
		ID: 1, Kind: flit.SetupMsg, Src: 0, Dst: 1, Class: flit.ClassConfig, Flits: 1,
		Config: flit.ConfigPayload{Slot: 3, BaseSlot: 3, Duration: 4, Epoch: 0},
	}
	injectConfig(h, 0, setup)
	h.run(40)
	got := h.ejected[0]
	if len(got) != 1 || got[0].Pkt.Config.OK {
		t.Fatal("stale-epoch setup was not rejected")
	}
	if h.routers[0].Tables().ReservedEntries() != 0 {
		t.Fatal("stale-epoch setup left reservations")
	}
}

func TestResetCircuitsClearsState(t *testing.T) {
	h := hybridRow(t, 2)
	h.routers[0].Tables().Reserve(topology.Local, topology.East, 0, 4, 0)
	h.routers[0].ResetCircuits(16, 2)
	if h.routers[0].Tables().ReservedEntries() != 0 {
		t.Fatal("reset left reservations")
	}
	if h.routers[0].Epoch != 2 {
		t.Fatalf("epoch %d after reset, want 2", h.routers[0].Epoch)
	}
}

func TestMeterAccumulates(t *testing.T) {
	h := newRow(t, 2, DefaultConfig())
	pkt := dataPacket(1, 0, 1, 5)
	for _, f := range flit.Explode(pkt) {
		h.inject(0, f)
		h.step()
	}
	h.run(30)
	m0 := h.routers[0].Meter()
	if m0.BufWrites != 5 || m0.BufReads != 5 {
		t.Errorf("router 0 buffer events: w=%d r=%d, want 5/5", m0.BufWrites, m0.BufReads)
	}
	if m0.XbarFlits != 5 || m0.LinkFlits != 5 {
		t.Errorf("router 0 xbar/link: %d/%d, want 5/5", m0.XbarFlits, m0.LinkFlits)
	}
	if m0.Cycles == 0 || m0.BufSlotCycles == 0 {
		t.Error("leakage integrators did not advance")
	}
	if m0.ActiveCycles == 0 || m0.ActiveCycles == m0.Cycles {
		t.Errorf("clock gating not reflected: active=%d total=%d", m0.ActiveCycles, m0.Cycles)
	}
}

func TestDebugStateReportsOccupancy(t *testing.T) {
	h := newRow(t, 2, DefaultConfig())
	if lines := h.routers[0].DebugState(); len(lines) != 0 {
		t.Errorf("idle router reported state: %v", lines)
	}
	pkt := dataPacket(1, 0, 1, 5)
	fs := flit.Explode(pkt)
	h.inject(0, fs[0])
	h.step()
	h.step()
	if lines := h.routers[0].DebugState(); len(lines) == 0 {
		t.Error("busy router reported no state")
	}
}

func TestVCGatingEvacuatesBeforeShrink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCGating = true
	h := newRow(t, 2, cfg)
	if h.routers[0].ActiveVCs() != cfg.VCs {
		t.Fatalf("initial active VCs %d", h.routers[0].ActiveVCs())
	}
	// Idle long enough for several gating epochs: VCs shrink to MinVCs.
	h.run(4000)
	r0 := h.routers[0]
	if r0.ActiveVCs() >= cfg.VCs {
		t.Fatalf("idle router kept %d VCs active", r0.ActiveVCs())
	}
	// The published limit follows, so upstream allocators stop using the
	// gated VCs.
	if r0.LocalVCLimit() != r0.ActiveVCs() {
		t.Fatalf("published limit %d != active %d", r0.LocalVCLimit(), r0.ActiveVCs())
	}
	// Traffic still flows on the remaining VCs (within the limit).
	pkt := dataPacket(1, 0, 1, 5)
	for _, f := range flit.Explode(pkt) {
		f.VC = 0
		h.inject(0, f)
		h.step()
	}
	h.run(30)
	if len(h.ejected[1]) != 5 {
		t.Fatalf("gated network delivered %d flits, want 5", len(h.ejected[1]))
	}
	h.diagClean(t)
}

func TestBufSlotCyclesShrinkWithGating(t *testing.T) {
	run := func(gating bool) int64 {
		cfg := DefaultConfig()
		cfg.VCGating = gating
		h := newRow(t, 2, cfg)
		h.run(5000)
		return h.routers[0].Meter().BufSlotCycles
	}
	if gated, full := run(true), run(false); gated >= full {
		t.Fatalf("gating did not reduce powered buffer slots: %d vs %d", gated, full)
	}
}

func TestConsecutiveSingleFlitPackets(t *testing.T) {
	// Back-to-back 1-flit packets on one VC exercise the tail-frees-VC
	// then head-restarts path.
	h := newRow(t, 2, DefaultConfig())
	for i := uint64(1); i <= 8; i++ {
		f := flit.Explode(dataPacket(i, 0, 1, 1))[0]
		f.VC = 2
		h.inject(0, f)
		// The harness has no credit flow control; space packets so the
		// 3-cycle head pipeline keeps the 5-deep buffer from overflowing.
		h.run(4)
	}
	h.run(40)
	if len(h.ejected[1]) != 8 {
		t.Fatalf("delivered %d of 8 single-flit packets", len(h.ejected[1]))
	}
	for i, f := range h.ejected[1] {
		if f.Pkt.ID != uint64(i+1) {
			t.Fatalf("packet order broken at %d: id %d", i, f.Pkt.ID)
		}
	}
	h.diagClean(t)
}

func TestIncomingCSSignal(t *testing.T) {
	h := hybridRow(t, 3)
	reservePath(t, h, 0, 2, 0, 1)
	pkt := dataPacket(9, 0, 2, 1)
	pkt.Switching = flit.CircuitSwitched
	fs := flit.Explode(pkt)
	h.run(16) // align to slot 0 (16 % 16)
	h.inject(0, fs[0])
	h.step() // flit processed at router 0, now in its out latch
	// During the next cycle the flit sits in router 1's linkReg: the
	// advance signal must report it.
	h.routers[1].Tick(h.now, sim.PhaseCompute) // harmless extra observation
	if !h.routers[1].IncomingCS(topology.West) {
		t.Fatal("advance signal did not report incoming CS flit")
	}
	h.run(10)
	h.diagClean(t)
}

func TestISLIPIterationsImproveMatching(t *testing.T) {
	// Two inputs, both preferring the same output first: one iteration
	// matches one input per cycle; with two iterations, the loser's
	// second-choice VC (to a different output) can also be served.
	run := func(iters int) int {
		cfg := DefaultConfig()
		cfg.SAIterations = iters
		h := newRow(t, 3, cfg)
		// From the middle router's perspective, traffic from 0 to 2 and
		// local traffic from 1 to 2 and 1 to 0 compete.
		deliver := 0
		for i := uint64(0); i < 12; i++ {
			fa := flit.Explode(dataPacket(100+i, 0, 2, 1))[0]
			fa.VC = int(i) % 2
			h.inject(0, fa)
			fb := flit.Explode(dataPacket(200+i, 1, 2, 1))[0]
			fb.VC = int(i) % 2
			h.inject(1, fb)
			h.run(1)
			fc := flit.Explode(dataPacket(300+i, 1, 0, 1))[0]
			fc.VC = 2 + int(i)%2
			h.inject(1, fc)
			h.run(4)
		}
		h.run(80)
		for _, fs := range h.ejected {
			deliver += len(fs)
		}
		return deliver
	}
	one := run(1)
	two := run(2)
	if two < one {
		t.Fatalf("two SA iterations delivered fewer flits (%d) than one (%d)", two, one)
	}
	if one != 36 || two != 36 {
		t.Fatalf("deliveries %d/%d, want 36 each", one, two)
	}
}

// TestEventTracing drives setup, circuit-switched and packet-switched
// traffic along a row and checks the pipeline's obs emit sites fire.
func TestEventTracing(t *testing.T) {
	h := hybridRow(t, 3)
	rec := obs.NewRecorder(obs.RecorderConfig{Nodes: len(h.routers)})
	for _, r := range h.routers {
		r.SetProbe(rec.Handle(0))
	}
	// Setup along the row, then a CS packet, then a PS packet.
	setup := &flit.Packet{
		ID: 1, Kind: flit.SetupMsg, Src: 0, Dst: 2, Class: flit.ClassConfig, Flits: 1,
		Config: flit.ConfigPayload{Slot: 0, BaseSlot: 0, Duration: 2},
	}
	injectConfig(h, 0, setup)
	h.run(48) // completes; now == 48, slot 0 of 16 aligned
	pkt := dataPacket(2, 0, 2, 2)
	pkt.Switching = flit.CircuitSwitched
	for _, f := range flit.Explode(pkt) {
		h.inject(0, f)
		h.step()
	}
	ps := dataPacket(3, 0, 2, 1)
	h.inject(0, flit.Explode(ps)[0])
	h.run(30)

	kinds := map[obs.Kind]int{}
	rec.Rings()[0].Do(func(e obs.Event) { kinds[e.Kind]++ })
	if kinds[obs.KindSetupReserve] != 3 {
		t.Errorf("setup events %d, want 3 (one per router)", kinds[obs.KindSetupReserve])
	}
	if kinds[obs.KindCSBypass] == 0 {
		t.Error("no CS bypass events")
	}
	if kinds[obs.KindBufferWrite] == 0 || kinds[obs.KindSwitchTraverse] == 0 {
		t.Error("no PS events traced")
	}
}

// TestMaskConsistencyInvariant drives traffic through every pipeline
// state and checks that the checked state walk finds the occupancy masks
// in step with the VC states after each cycle — and that it reports a
// mask-consistency violation once a mask bit is flipped behind its back.
func TestMaskConsistencyInvariant(t *testing.T) {
	h := newRow(t, 3, DefaultConfig())
	check := func() (kinds []string) {
		for _, r := range h.routers {
			r.Walk(&flit.Walk{H: invariant.NewHasher(), Report: func(kind, detail string) {
				kinds = append(kinds, kind+": "+detail)
			}})
		}
		return kinds
	}
	for _, f := range flit.Explode(dataPacket(1, 0, 2, 5)) {
		h.inject(0, f)
		h.step()
		if v := check(); len(v) != 0 {
			t.Fatalf("cycle %d: %v", h.now, v)
		}
	}
	// Stop mid-flight so the corrupted router holds live VCs.
	h.routers[1].occupied ^= 1
	v := check()
	if len(v) != 1 || !strings.HasPrefix(v[0], "mask-consistency") {
		t.Fatalf("flipped occupancy bit reported as %v, want one mask-consistency violation", v)
	}
	h.routers[1].occupied ^= 1
	h.routers[1].stateMask[vcActive] ^= 1 << 7
	if v := check(); len(v) != 1 || !strings.HasPrefix(v[0], "mask-consistency") {
		t.Fatalf("flipped state bit reported as %v, want one mask-consistency violation", v)
	}
	h.routers[1].stateMask[vcActive] ^= 1 << 7
	h.run(40)
	if v := check(); len(v) != 0 {
		t.Fatal(v)
	}
	if len(h.ejected[2]) != 5 {
		t.Fatalf("ejected %d flits, want 5", len(h.ejected[2]))
	}
	h.diagClean(t)
}

// BenchmarkRouterCompute times the compute phase per router per cycle:
// idle (nothing buffered: every stage takes its empty-mask exit) and
// loaded (a 4-router row carrying two opposing streams of 5-flit
// packets, one flit injected per end per cycle).
func BenchmarkRouterCompute(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		r := New(0, topology.NewMesh(1, 1), DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Tick(sim.Cycle(i), sim.PhaseCompute)
		}
	})
	b.Run("loaded", func(b *testing.B) {
		h := newRow(b, 4, DefaultConfig())
		// Flits are recycled: a packet is long delivered by the time the
		// 64-packet window comes round to it again.
		var streams [2][]*flit.Flit
		ends := [2]topology.NodeID{0, 3}
		for s := range streams {
			for k := 0; k < 64; k++ {
				streams[s] = append(streams[s], flit.Explode(dataPacket(uint64(s*64+k+1), ends[s], ends[1-s], 5))...)
			}
		}
		cycle := func(i int) {
			for s, fs := range streams {
				f := fs[i%len(fs)]
				f.VC = i / 5 % 4
				h.inject(ends[s], f)
			}
			for _, r := range h.routers {
				r.Tick(h.now, sim.PhaseCompute)
			}
			for _, r := range h.routers {
				r.Tick(h.now, sim.PhaseTransfer)
				r.TakeLocalEject()
			}
			h.now++
		}
		for i := 0; i < 1000; i++ {
			cycle(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(1000 + i)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(h.routers)), "ns/router-cycle")
		h.diagClean(b)
	})
}
