package network

import (
	"testing"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
)

// chaos is an endpoint that exercises every protocol path at once:
// random destinations, random classes, random slacks, random packet
// sizes, bursts, and occasional idle periods.
type chaos struct {
	until sim.Cycle
	sent  int64
}

func (c *chaos) Tick(now sim.Cycle, ni *NI) {
	if now >= c.until {
		return
	}
	rng := ni.RNG()
	// Bursty on/off injection.
	if rng.Intn(100) < 20 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			dst := topology.NodeID(rng.Intn(ni.Mesh().Nodes()))
			size := 0
			if rng.Intn(4) == 0 {
				size = 1 + rng.Intn(5)
			}
			ni.Send(now, dst, SendOptions{
				Class:      flit.TrafficClass(rng.Intn(2)),
				AllowCS:    rng.Intn(3) != 0,
				Slack:      rng.Intn(300) - 50,
				SizeFlits:  size,
				ReplyFlits: 0,
			})
			c.sent++
		}
	}
}

func (c *chaos) OnDeliver(now sim.Cycle, ni *NI, pkt *flit.Packet) {}

// TestChaosMonkey runs every feature at once — sharing, gating, dynamic
// sizing, multi-block circuits, mixed sizes and classes — and checks the
// network stays conservative and invariant-clean.
func TestChaosMonkey(t *testing.T) {
	cfg := HybridTDMConfig(6, 6).WithSharing().WithVCGating()
	cfg.SetupThreshold = 2
	cfg.OverflowForExtraBlock = 3
	cfg.MaxCircuits = 6
	cfg.IdleTeardown = 500
	const horizon = 12000
	net := New(cfg, func(id topology.NodeID) Endpoint {
		return &chaos{until: horizon}
	})
	defer net.Close()
	net.EnableStats()
	net.Run(horizon)
	drained := net.Drain(40000)
	d := net.Diagnose()
	// Path sharing has two corners the one-cycle advance signal cannot
	// close: hitchhikers boarding one circuit from different hop-on nodes
	// cannot see each other, and a rider that launches in the cycles
	// between a teardown's slot release and its DLT-removal event can
	// outlive the release grace. Both are detected at the router, counted
	// and dropped; the paper does not address either. Under this
	// adversarial workload (aggressive teardown churn plus resizes) the
	// loss must stay vanishingly rare and fully accounted for.
	if d.LatchConflicts != 0 {
		t.Fatalf("invariants violated under chaos: %+v", d)
	}
	if d.DroppedCS > 8 {
		t.Fatalf("excessive sharing-collision drops: %+v", d)
	}
	if !drained && net.InFlight() > d.DroppedCS {
		for i := 0; i < net.Mesh().Nodes(); i++ {
			ni := net.NI(topology.NodeID(i))
			if q := ni.QueuedPackets(); q > 0 {
				t.Logf("NI %d queued %d (circuits %d)", i, q, ni.Circuits())
			}
		}
		t.Fatalf("chaos run failed to drain: %d in flight, only %d drops counted", net.InFlight(), d.DroppedCS)
	}
	st := net.Stats()
	if st.EjectedPackets == 0 {
		t.Fatal("chaos generated nothing")
	}
	t.Logf("chaos: %d packets, %d setups ok, %d hitchhikes, %d vicinity, %d teardowns, resizes=%d",
		st.EjectedPackets, st.SetupsOK, st.Hitchhikes, st.VicinityRides, st.TeardownsSent, net.ResizeEvents())
}

// TestChaosMonkeySeeds runs shorter chaos under several seeds.
func TestChaosMonkeySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := uint64(2); seed < 6; seed++ {
		cfg := HybridTDMConfig(6, 6).WithSharing().WithVCGating()
		cfg.Seed = seed
		cfg.SetupThreshold = 2
		cfg.IdleTeardown = 300
		net := New(cfg, func(id topology.NodeID) Endpoint {
			return &chaos{until: 5000}
		})
		net.Run(5000)
		ok := net.Drain(30000)
		d := net.Diagnose()
		net.Close()
		if d.LatchConflicts != 0 || d.DroppedCS > 8 {
			t.Fatalf("seed %d: invariants %+v", seed, d)
		}
		if !ok && net.InFlight() > d.DroppedCS {
			t.Fatalf("seed %d: failed to drain beyond counted drops", seed)
		}
	}
}
