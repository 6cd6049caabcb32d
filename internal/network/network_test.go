package network

import (
	"testing"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
)

// oneShot sends a single packet from a fixed source at cycle 1. It keeps
// the delivered packet, so its networks run unpooled.
type oneShot struct {
	src, dst topology.NodeID
	opt      SendOptions
	sent     *flit.Packet
	got      *flit.Packet
	gotAt    sim.Cycle
}

func (o *oneShot) Tick(now sim.Cycle, ni *NI) {
	if now == 1 && ni.ID() == o.src && o.sent == nil {
		o.sent = ni.Send(now, o.dst, o.opt)
	}
}

func (o *oneShot) OnDeliver(now sim.Cycle, ni *NI, pkt *flit.Packet) {
	if ni.ID() == o.dst {
		o.got = pkt
		o.gotAt = now
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	shot := &oneShot{src: 0, dst: 35}
	net := New(cfg, func(id topology.NodeID) Endpoint { return shot })
	defer net.Close()
	net.EnableStats()
	net.Run(200)
	if shot.got == nil {
		t.Fatal("packet never delivered")
	}
	if shot.got.ID != shot.sent.ID {
		t.Fatal("delivered a different packet")
	}
	// Zero-load latency for a 10-hop 5-flit packet: 5 cycles per hop for
	// the head plus dest-router pipeline and 4 trailing flits.
	lat := shot.got.NetworkLatency()
	want := int64(5*10 + 3 + 4)
	if lat != want {
		t.Errorf("zero-load latency %d, want %d", lat, want)
	}
	d := net.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 || d.LatchConflicts != 0 {
		t.Errorf("diagnostics dirty: %+v", d)
	}
	s := net.Stats()
	if s.EjectedPackets != 1 || s.InjectedPackets != 1 {
		t.Errorf("stats: injected=%d ejected=%d", s.InjectedPackets, s.EjectedPackets)
	}
}

func TestSinglePacketShortHop(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	shot := &oneShot{src: 0, dst: 1}
	net := New(cfg, func(id topology.NodeID) Endpoint { return shot })
	defer net.Close()
	net.Run(100)
	if shot.got == nil {
		t.Fatal("packet never delivered")
	}
	if lat := shot.got.NetworkLatency(); lat != 5*1+3+4 {
		t.Errorf("1-hop latency %d, want 12", lat)
	}
}

// burst sends many packets from every node to a fixed pattern then stops.
type burst struct {
	count   int
	dstOf   func(src topology.NodeID, m topology.Mesh) (topology.NodeID, bool)
	allowCS bool
	sent    int
	period  sim.Cycle
}

func (b *burst) Tick(now sim.Cycle, ni *NI) {
	if b.sent >= b.count || now%b.period != 1 {
		return
	}
	dst, ok := b.dstOf(ni.ID(), ni.Mesh())
	if !ok {
		b.sent = b.count
		return
	}
	ni.Send(now, dst, SendOptions{Class: flit.ClassOther, AllowCS: b.allowCS, Slack: -1})
	b.sent++
}

func (b *burst) OnDeliver(now sim.Cycle, ni *NI, pkt *flit.Packet) {}

func reversePattern(src topology.NodeID, m topology.Mesh) (topology.NodeID, bool) {
	d := topology.NodeID(m.Nodes() - 1 - int(src))
	return d, d != src
}

func TestConservationPacketSwitched(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	eps := map[topology.NodeID]*burst{}
	net := New(cfg, func(id topology.NodeID) Endpoint {
		b := &burst{count: 20, dstOf: reversePattern, period: 7}
		eps[id] = b
		return b
	})
	defer net.Close()
	net.EnableStats()
	net.Run(7 * 25)
	if !net.Drain(5000) {
		t.Fatalf("network failed to drain; in flight: %d", net.InFlight())
	}
	s := net.Stats()
	if s.InjectedPackets != s.EjectedPackets {
		t.Fatalf("conservation violated: injected=%d ejected=%d", s.InjectedPackets, s.EjectedPackets)
	}
	if s.InjectedPackets == 0 {
		t.Fatal("no traffic generated")
	}
	d := net.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 || d.LatchConflicts != 0 {
		t.Errorf("diagnostics dirty: %+v", d)
	}
}

func TestHybridCircuitEstablishmentAndUse(t *testing.T) {
	cfg := HybridTDMConfig(6, 6)
	net := New(cfg, func(id topology.NodeID) Endpoint {
		return &burst{count: 200, dstOf: reversePattern, allowCS: true, period: 11}
	})
	defer net.Close()
	net.EnableStats()
	net.Run(11 * 220)
	if !net.Drain(20000) {
		t.Fatalf("network failed to drain; in flight: %d", net.InFlight())
	}
	s := net.Stats()
	if s.InjectedPackets != s.EjectedPackets {
		t.Fatalf("conservation violated: injected=%d ejected=%d", s.InjectedPackets, s.EjectedPackets)
	}
	if s.SetupsOK == 0 {
		t.Error("no circuits were established")
	}
	if s.CSFlits == 0 {
		t.Error("no flits travelled circuit-switched")
	}
	d := net.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 || d.LatchConflicts != 0 {
		t.Errorf("diagnostics dirty: %+v", d)
	}
	if f := s.ConfigTrafficFraction(); f > 0.05 {
		t.Errorf("config traffic fraction %.3f too high", f)
	}
}

func TestCircuitSwitchedLatencyBeatsPS(t *testing.T) {
	// Same workload on PS-only and hybrid networks; with an established
	// circuit the CS path must cut average latency for long-haul pairs.
	run := func(cfg Config) float64 {
		net := New(cfg, func(id topology.NodeID) Endpoint {
			return &burst{count: 300, dstOf: reversePattern, allowCS: true, period: 20}
		})
		defer net.Close()
		net.Run(2000) // warm up: let circuits establish
		net.EnableStats()
		net.Run(20 * 300)
		net.Drain(20000)
		st := net.Stats()
		avg, ok := st.AvgNetLatency()
		if !ok {
			t.Fatal("no latency samples")
		}
		return avg
	}
	ps := run(DefaultConfig(6, 6))
	hy := run(HybridTDMConfig(6, 6))
	if hy >= ps {
		t.Errorf("hybrid avg latency %.1f not better than packet-switched %.1f", hy, ps)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int64, int64) {
		cfg := HybridTDMConfig(4, 4)
		cfg.Seed = 77
		net := New(cfg, func(id topology.NodeID) Endpoint {
			return &burst{count: 50, dstOf: reversePattern, allowCS: true, period: 3}
		})
		defer net.Close()
		net.EnableStats()
		net.Run(1500)
		s := net.Stats()
		return s.EjectedPackets, s.NetLatencySum
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("same seed produced different results: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestTeardownReleasesSlots(t *testing.T) {
	cfg := HybridTDMConfig(6, 6)
	cfg.idleTeardown = 100
	cfg.maxCircuits = 1
	net := New(cfg, func(id topology.NodeID) Endpoint { return nil })
	defer net.Close()
	ni := net.NI(0)

	// Manually drive two setups from node 0 to different destinations;
	// with maxCircuits=1 the second must tear the first down once idle.
	for i := 0; i < 10; i++ {
		ni.Send(net.Now(), 35, SendOptions{AllowCS: true, Slack: -1})
		net.Run(5)
	}
	net.RunUntil(func() bool { return ni.Circuits() == 1 }, 3000)
	if ni.Circuits() != 1 {
		t.Fatal("first circuit not established")
	}
	net.Run(200) // exceed idleTeardown
	for i := 0; i < 10; i++ {
		ni.Send(net.Now(), 30, SendOptions{AllowCS: true, Slack: -1})
		net.Run(5)
	}
	net.RunUntil(func() bool {
		_, has30 := niCircuit(ni, 30)
		return has30
	}, 5000)
	if _, ok := niCircuit(ni, 30); !ok {
		t.Fatal("second circuit did not replace the idle first")
	}
	if _, ok := niCircuit(ni, 35); ok {
		t.Fatal("idle circuit was not torn down")
	}
	// Eventually every slot of the torn circuit must be free again at the
	// source router's local table beyond those held by the new circuit.
	net.Run(500)
	tbl := net.Router(0).Tables()
	if got := tbl.ReservedEntries(); got != cfg.ReserveDuration() {
		t.Errorf("source router holds %d reserved entries, want %d", got, cfg.ReserveDuration())
	}
}

func niCircuit(ni *NI, dst topology.NodeID) (*circuit, bool) {
	c, ok := ni.circuits[dst]
	return c, ok
}

func TestVCGatingReducesActiveVCs(t *testing.T) {
	cfg := gatedConfig(HybridTDMConfig(6, 6))
	net := New(cfg, func(id topology.NodeID) Endpoint { return nil })
	defer net.Close()
	net.Run(5000) // idle network: utilisation 0, VCs gate down
	gated := 0
	for i := 0; i < net.Mesh().Nodes(); i++ {
		if net.Router(topology.NodeID(i)).ActiveVCs() < cfg.VCs {
			gated++
		}
	}
	if gated != net.Mesh().Nodes() {
		t.Errorf("only %d/%d routers gated VCs on an idle network", gated, net.Mesh().Nodes())
	}
}

func TestVCGatingKeepsTrafficFlowing(t *testing.T) {
	cfg := gatedConfig(HybridTDMConfig(6, 6))
	net := New(cfg, func(id topology.NodeID) Endpoint {
		return &burst{count: 150, dstOf: reversePattern, allowCS: true, period: 6}
	})
	defer net.Close()
	net.EnableStats()
	net.Run(6 * 170)
	if !net.Drain(30000) {
		t.Fatalf("gated network failed to drain; in flight %d", net.InFlight())
	}
	s := net.Stats()
	if s.InjectedPackets != s.EjectedPackets {
		t.Fatalf("conservation violated under gating: %d vs %d", s.InjectedPackets, s.EjectedPackets)
	}
}

func TestPathSharingHitchhike(t *testing.T) {
	// Node 0 builds a circuit 0 -> 5 along the top row; node 2 (on the
	// path) should then hitchhike to destination 5 instead of packet
	// switching everything.
	cfg := sharingConfig(6, 6)
	type sender struct{ burst }
	net := New(cfg, func(id topology.NodeID) Endpoint { return nil })
	defer net.Close()

	owner := net.NI(0)
	rider := net.NI(2)
	// Drive the owner until its circuit exists.
	for i := 0; i < 12; i++ {
		owner.Send(net.Now(), 5, SendOptions{AllowCS: true, Slack: -1})
		net.Run(4)
	}
	net.RunUntil(func() bool { return owner.Circuits() == 1 }, 3000)
	if owner.Circuits() != 1 {
		t.Fatal("owner circuit not established")
	}
	net.EnableStats()
	// The owner keeps using its circuit (whose flits advertise it in the
	// DLTs of on-path nodes); the rider sends to the same destination and
	// should hitchhike.
	for i := 0; i < 40; i++ {
		owner.Send(net.Now(), 5, SendOptions{AllowCS: true, Slack: 400})
		net.Run(13)
		rider.Send(net.Now(), 5, SendOptions{AllowCS: true, Slack: 400})
		net.Run(17)
	}
	if !net.Drain(20000) {
		t.Fatalf("failed to drain; in flight %d", net.InFlight())
	}
	s := net.Stats()
	if s.Hitchhikes == 0 {
		t.Errorf("no hitchhike rides (contentions=%d)", s.ShareContentions)
	}
	d := net.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 {
		t.Errorf("CS invariants violated: %+v", d)
	}
	_ = sender{}
}

func TestDynamicSlotResize(t *testing.T) {
	cfg := HybridTDMConfig(6, 6)
	net := New(cfg, func(id topology.NodeID) Endpoint {
		// Uniform-random-ish spread: many (src,dst) pairs to overflow the
		// small initial active slot region.
		return &burst{count: 400, allowCS: true, period: 3,
			dstOf: func(src topology.NodeID, m topology.Mesh) (topology.NodeID, bool) {
				d := topology.NodeID((int(src)*7 + 11) % m.Nodes())
				return d, d != src
			}}
	})
	defer net.Close()
	initial := net.ActiveSlots()
	net.Run(20000)
	if net.ActiveSlots() <= initial && net.ResizeEvents() == 0 {
		t.Skip("no resize triggered under this workload (acceptable but unexpected)")
	}
	if net.ActiveSlots() <= initial {
		t.Errorf("resize events %d but active slots did not grow (%d)", net.ResizeEvents(), net.ActiveSlots())
	}
	d := net.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 {
		t.Errorf("resize broke CS invariants: %+v", d)
	}
}

func TestEnergyAccountingBasics(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	net := New(cfg, func(id topology.NodeID) Endpoint {
		return &burst{count: 50, dstOf: reversePattern, period: 4}
	})
	defer net.Close()
	net.EnableStats()
	net.Run(1000)
	e := net.Energy()
	if e.TotalDynamicPJ() <= 0 {
		t.Error("no dynamic energy recorded")
	}
	if e.TotalStaticPJ() <= 0 {
		t.Error("no static energy recorded")
	}
	if e.DynamicPJ[2] < 0 { // crossbar index sanity
		t.Error("negative component energy")
	}
}
