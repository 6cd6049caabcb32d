package network

import (
	"testing"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
)

// driver is a programmable endpoint: the test scripts sends and observes
// deliveries.
type driver struct {
	delivered []*flit.Packet
}

func (d *driver) Tick(now sim.Cycle, ni *NI) {}
func (d *driver) OnDeliver(now sim.Cycle, ni *NI, pkt *flit.Packet) {
	d.delivered = append(d.delivered, pkt)
}

func driverNet(t *testing.T, cfg Config) (*Network, map[topology.NodeID]*driver) {
	t.Helper()
	drivers := map[topology.NodeID]*driver{}
	net := New(cfg, func(id topology.NodeID) Endpoint {
		d := &driver{}
		drivers[id] = d
		return d
	})
	return net, drivers
}

// establishCircuit drives sends from src to dst until a circuit exists.
func establishCircuit(t *testing.T, net *Network, src, dst topology.NodeID) {
	t.Helper()
	ni := net.NI(src)
	for i := 0; i < 20 && ni.circuits[dst] == nil; i++ {
		ni.Send(net.Now(), dst, SendOptions{AllowCS: true, Slack: -1})
		net.Run(50)
	}
	net.RunUntil(func() bool { return ni.circuits[dst] != nil }, 3000)
	if ni.circuits[dst] == nil {
		t.Fatal("circuit did not establish")
	}
}

func TestVicinityHopOffEndToEnd(t *testing.T) {
	cfg := HybridTDMConfig(6, 6).WithSharing()
	cfg.SetupThreshold = 2
	net, drivers := driverNet(t, cfg)
	defer net.Close()

	src := topology.NodeID(0)
	circuitDst := topology.NodeID(35) // (5,5)
	vicinity := topology.NodeID(34)   // (4,5), adjacent
	establishCircuit(t, net, src, circuitDst)

	ni := net.NI(src)
	// Send to the adjacent node with generous slack: should take the
	// circuit and hop off.
	var sent []*flit.Packet
	for i := 0; i < 30; i++ {
		p := ni.Send(net.Now(), vicinity, SendOptions{AllowCS: true, Slack: 500})
		sent = append(sent, p)
		net.Run(40)
	}
	if !net.Drain(20000) {
		t.Fatalf("drain failed, in flight %d", net.InFlight())
	}
	st := net.Stats()
	if st.VicinityRides == 0 {
		t.Fatal("no vicinity rides occurred")
	}
	// Every packet must arrive at the true destination with Src intact.
	got := drivers[vicinity].delivered
	if len(got) != len(sent) {
		t.Fatalf("delivered %d of %d packets", len(got), len(sent))
	}
	for _, p := range got {
		if p.Src != src {
			t.Fatalf("delivered packet has Src %d, want %d (hop-off must preserve Src)", p.Src, src)
		}
		if p.HopOff {
			t.Fatal("delivered packet still flagged HopOff")
		}
	}
	d := net.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 {
		t.Fatalf("CS invariants: %+v", d)
	}
}

func TestMultiBlockCircuitScalesBandwidth(t *testing.T) {
	cfg := HybridTDMConfig(6, 6)
	cfg.OverflowForExtraBlock = 2
	net, _ := driverNet(t, cfg)
	defer net.Close()

	src, dst := topology.NodeID(0), topology.NodeID(35)
	establishCircuit(t, net, src, dst)
	ni := net.NI(src)
	if len(ni.circuits[dst].blocks) != 1 {
		t.Fatalf("fresh circuit has %d blocks", len(ni.circuits[dst].blocks))
	}
	// Saturate the single block: sends denser than one packet per frame.
	for i := 0; i < 400; i++ {
		ni.Send(net.Now(), dst, SendOptions{AllowCS: true, Slack: 40})
		net.Run(3)
	}
	net.RunUntil(func() bool { return len(ni.circuits[dst].blocks) > 1 }, 8000)
	if got := len(ni.circuits[dst].blocks); got < 2 {
		t.Fatalf("overflowing circuit still has %d block(s)", got)
	}
	if !net.Drain(30000) {
		t.Fatalf("drain failed, in flight %d", net.InFlight())
	}
	d := net.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 {
		t.Fatalf("CS invariants: %+v", d)
	}
}

func TestSetupBackoffLimitsConfigTraffic(t *testing.T) {
	// A source that cannot ever establish a circuit (tables full via an
	// artificially tiny occupancy cap) must stop hammering setups.
	cfg := HybridTDMConfig(6, 6)
	cfg.RetrySetups = 2
	net, _ := driverNet(t, cfg)
	defer net.Close()
	// Fill node 0's local table so every setup fails at hop 0.
	tbl := net.Router(0).Tables()
	tbl.ReserveCap = 0.01
	ni := net.NI(0)
	for i := 0; i < 100; i++ {
		ni.Send(net.Now(), 35, SendOptions{AllowCS: true, Slack: -1})
		net.Run(20)
	}
	net.Drain(10000)
	st := net.Stats()
	if st.SetupsOK != 0 {
		t.Fatalf("setups succeeded despite cap: %d", st.SetupsOK)
	}
	// Without backoff this would be ~100/SetupThreshold * retries; with
	// backoff it must stay small.
	if st.SetupsSent > 12 {
		t.Fatalf("%d setups sent; backoff not effective", st.SetupsSent)
	}
}

func TestCPUClassNeverCircuitSwitched(t *testing.T) {
	cfg := HybridTDMConfig(6, 6)
	net, _ := driverNet(t, cfg)
	defer net.Close()
	net.EnableStats()
	ni := net.NI(0)
	for i := 0; i < 200; i++ {
		ni.Send(net.Now(), 35, SendOptions{Class: flit.ClassCPU, AllowCS: false})
		net.Run(10)
	}
	net.Drain(20000)
	st := net.Stats()
	if st.ClassCSFlits[int(flit.ClassCPU)] != 0 {
		t.Fatal("CPU-class flits were circuit-switched")
	}
	if st.SetupsSent != 0 {
		t.Fatal("CPU traffic triggered circuit setups")
	}
}

func TestSlackGovernsDecision(t *testing.T) {
	cfg := HybridTDMConfig(6, 6)
	net, _ := driverNet(t, cfg)
	defer net.Close()
	src, dst := topology.NodeID(0), topology.NodeID(35)
	establishCircuit(t, net, src, dst)
	ni := net.NI(src)
	net.EnableStats()

	// Zero slack: only rides whose latency beats packet switching count;
	// a huge slack rides almost always.
	for i := 0; i < 60; i++ {
		ni.Send(net.Now(), dst, SendOptions{AllowCS: true, Slack: 100000})
		net.Run(30)
	}
	net.Drain(20000)
	st := net.Stats()
	if st.OwnCircuitSends < 50 {
		t.Fatalf("with unlimited slack only %d of 60 rode the circuit", st.OwnCircuitSends)
	}
}

func TestTotalLatencyIncludesSlotWait(t *testing.T) {
	cfg := HybridTDMConfig(6, 6)
	net, drivers := driverNet(t, cfg)
	defer net.Close()
	src, dst := topology.NodeID(0), topology.NodeID(35)
	establishCircuit(t, net, src, dst)
	ni := net.NI(src)
	net.EnableStats()
	ni.Send(net.Now(), dst, SendOptions{AllowCS: true, Slack: 100000})
	net.Drain(5000)
	got := drivers[dst].delivered
	if len(got) == 0 {
		t.Fatal("nothing delivered")
	}
	p := got[len(got)-1]
	if p.Switching != flit.CircuitSwitched {
		t.Skip("packet went packet-switched; nothing to check")
	}
	if p.TotalLatency() < p.NetworkLatency() {
		t.Fatalf("total latency %d below network latency %d", p.TotalLatency(), p.NetworkLatency())
	}
}

func TestNoPSStarvationUnderHeavyReservation(t *testing.T) {
	// The anti-starvation pair: the 90 % reservation cap plus time-slot
	// stealing must keep packet-switched tail latency bounded even when
	// circuits occupy most slots. Drive heavy CS traffic and a trickle of
	// PS packets along the same row.
	cfg := HybridTDMConfig(6, 6)
	cfg.SetupThreshold = 1
	net, drivers := driverNet(t, cfg)
	defer net.Close()
	csSrc, psSrc, dst := topology.NodeID(0), topology.NodeID(1), topology.NodeID(5)
	establishCircuit(t, net, csSrc, dst)
	for i := 0; i < 150; i++ {
		net.NI(csSrc).Send(net.Now(), dst, SendOptions{AllowCS: true, Slack: 100000})
		if i%3 == 0 {
			net.NI(psSrc).Send(net.Now(), dst, SendOptions{AllowCS: false})
		}
		net.Run(8)
	}
	if !net.Drain(30000) {
		t.Fatalf("drain failed: %d in flight", net.InFlight())
	}
	var ps int
	var worst int64
	for _, p := range drivers[dst].delivered {
		if p.Src == psSrc {
			ps++
			worst = max(worst, p.TotalLatency())
		}
	}
	if ps != 50 {
		t.Fatalf("%d of 50 packet-switched packets delivered", ps)
	}
	if worst > 512 {
		t.Fatalf("packet-switched max latency %d cycles — starvation", worst)
	}
	t.Logf("packet-switched max latency %d cycles", worst)
}
