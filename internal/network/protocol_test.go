package network

import (
	"testing"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/policy"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
)

// driver is a programmable endpoint: the test scripts sends and observes
// deliveries. It keeps every delivered packet, so its networks run
// unpooled.
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
	cfg := sharingConfig(6, 6)
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
	// Without backoff this would be ~100/tablei.SetupThreshold * retries; with
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

// TestRevertedPacketsReachTheirDestination drives vicinity rides off the
// circuit-switched path each way a packet can leave it — hop-off at the
// circuit's end, a hitchhiker losing its slot to the circuit's owner,
// and a slot-table reset flushing the queue — and checks that every data
// packet is delivered at the destination it was sent to, with its
// packet-switched length.
func TestRevertedPacketsReachTheirDestination(t *testing.T) {
	const src, end, vicinity = topology.NodeID(0), topology.NodeID(35), topology.NodeID(34)
	for _, tc := range []struct {
		name string
		// drive sends traffic through send after the src→end circuit is
		// up and reports whether the reversion under test happened.
		drive func(t *testing.T, net *Network, send func(from, to topology.NodeID))
	}{
		{"hop-off re-injection", func(t *testing.T, net *Network, send func(from, to topology.NodeID)) {
			for i := 0; i < 30; i++ {
				send(src, vicinity)
				net.Run(40)
			}
			if net.Stats().VicinityRides == 0 {
				t.Fatal("no vicinity ride")
			}
		}},
		{"hitchhiker contention fallback", func(t *testing.T, net *Network, send func(from, to topology.NodeID)) {
			// Circuit traffic advertises the circuit along its path. The
			// rider sits on that path as far from the vicinity node as
			// possible, so a hitchhike there beats packet switching; the
			// owner keeps the slot busy.
			for i := 0; i < 5; i++ {
				send(src, end)
				net.Run(40)
			}
			rider := topology.NodeID(-1)
			for id := topology.NodeID(1); id < end; id++ {
				if _, ok := net.NI(id).dlt.Find(end); ok &&
					(rider < 0 || net.mesh.HopDistance(id, vicinity) > net.mesh.HopDistance(rider, vicinity)) {
					rider = id
				}
			}
			if rider < 0 {
				t.Fatal("no node on the circuit's path")
			}
			for i := 0; i < 400; i++ {
				send(src, end)
				send(rider, vicinity)
				net.Run(4)
			}
			if st := net.Stats(); st.ShareContentions == 0 || st.VicinityRides == 0 {
				t.Fatalf("%d contentions, %d vicinity rides", st.ShareContentions, st.VicinityRides)
			}
		}},
		{"resize flush", func(t *testing.T, net *Network, send func(from, to topology.NodeID)) {
			ni := net.NI(src)
			for i := 0; i < 200 && len(ni.csJobs) == 0; i++ {
				send(src, vicinity)
				net.Run(1)
			}
			if len(ni.csJobs) == 0 || !ni.csJobs[0].pkt.HopOff {
				t.Fatal("no vicinity ride queued")
			}
			net.scheduleReset(net.Now(), net.ActiveSlots())
			net.Run(2 * drainWindow)
			if len(ni.csJobs) != 0 {
				t.Fatal("the reset did not flush the queue")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Only the pinned src→end flow sets a circuit up, so every
			// ride below uses it.
			cfg := sharingConfig(6, 6)
			cfg.PinnedFlows = []policy.FlowPin{{Src: int(src), Dst: int(end)}}
			cfg.RestrictSetups = true
			net, drivers := driverNet(t, cfg)
			defer net.Close()
			establishCircuit(t, net, src, end)
			net.EnableStats()
			sentTo := map[uint64]topology.NodeID{}
			tc.drive(t, net, func(from, to topology.NodeID) {
				sentTo[net.NI(from).Send(net.Now(), to, SendOptions{AllowCS: true, Slack: 500}).ID] = to
			})
			if !net.Drain(30000) {
				t.Fatalf("drain failed, in flight %d", net.InFlight())
			}
			delivered := 0
			for id, d := range drivers {
				for _, p := range d.delivered {
					to, ok := sentTo[p.ID]
					if !ok {
						continue // a packet of establishCircuit
					}
					delivered++
					if to != id {
						t.Errorf("packet %d sent to %d arrived at %d", p.ID, to, id)
					}
					if p.Switching == flit.PacketSwitched && p.Flits != cfg.PSDataFlits {
						t.Errorf("packet %d arrived packet-switched with %d flits, want %d", p.ID, p.Flits, cfg.PSDataFlits)
					}
				}
			}
			if delivered != len(sentTo) {
				t.Fatalf("delivered %d of %d packets", delivered, len(sentTo))
			}
		})
	}
}
