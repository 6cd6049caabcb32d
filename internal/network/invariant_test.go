package network

import (
	"math"
	"reflect"
	"testing"

	"tdmnoc/internal/hybrid"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
)

// TestInvariantCheckerCleanRuns drives real traffic through checked
// networks and requires zero violations: the checker must not
// false-positive on any legitimate state the protocols produce.
func TestInvariantCheckerCleanRuns(t *testing.T) {
	cases := map[string]Config{
		"packet": DefaultConfig(6, 6),
		"hybrid": HybridTDMConfig(6, 6),
		"shared": HybridTDMConfig(6, 6).WithSharing().WithVCGating(),
	}
	for name, cfg := range cases {
		cfg.CheckInvariants = true
		if name == "shared" {
			cfg.CheckInterval = 4 // also cover the every-N-cycles path
		}
		net := New(cfg, func(id topology.NodeID) Endpoint {
			return &burst{count: 100, dstOf: reversePattern, allowCS: true, period: 5}
		})
		net.Run(1500)
		net.Drain(10000)
		if n := net.InvariantCount(); n != 0 {
			t.Errorf("%s: %d invariant violations; first: %s", name, n, net.InvariantViolations()[0])
		}
		if net.RollingDigest() == 0 {
			t.Errorf("%s: rolling digest never accumulated", name)
		}
		net.Close()
	}
}

// TestInvariantCheckerCatchesDroppedCredit seeds the one fault class
// the credit invariant exists for — a credit lost in flight — and
// requires the checker to localise it to the right router, kind and
// cycle.
func TestInvariantCheckerCatchesDroppedCredit(t *testing.T) {
	cfg := HybridTDMConfig(6, 6)
	cfg.CheckInvariants = true
	net := New(cfg, func(id topology.NodeID) Endpoint {
		return &burst{count: 50, dstOf: reversePattern, allowCS: true, period: 5}
	})
	defer net.Close()
	net.Run(50)
	if n := net.InvariantCount(); n != 0 {
		t.Fatalf("%d violations before the fault was injected", n)
	}
	net.Router(14).FaultDropCredit(topology.East, 0)
	net.Step()
	want := int64(net.Now())
	if net.InvariantCount() == 0 {
		t.Fatal("dropped credit went undetected")
	}
	v := net.InvariantViolations()[0]
	if v.Kind != "credit" || v.Router != 14 || v.Cycle != want {
		t.Fatalf("violation %s: want kind credit, router 14, cycle %d", v, want)
	}
	if v.Detail == "" {
		t.Fatal("violation carries no reproduction detail")
	}
}

// slotOwner is one valid slot-table reservation, for snapshotting.
type slotOwner struct {
	in   topology.Port
	slot int
	out  topology.Port
}

// validEntries lists rt's valid reservations in (input, slot) order: at
// the end of time every release grace has run out, so only valid entries
// still route.
func validEntries(rt *hybrid.RouterTables) []slotOwner {
	var out []slotOwner
	for in := topology.Port(0); in < topology.NumPorts; in++ {
		for s := 0; s < rt.Active(); s++ {
			if o, ok := rt.LookupSlot(in, s, math.MaxInt64); ok {
				out = append(out, slotOwner{in, s, o})
			}
		}
	}
	return out
}

// TestFailedSetupReleasesReservedPrefix exercises the bounded-teardown
// path at protocol level: a setup that reserved slots at hops 0..k-1
// and was refused at hop k must release exactly its own reserved
// prefix — every router it touched returns to its pre-setup table
// state, and an unrelated live circuit keeps every one of its slots.
func TestFailedSetupReleasesReservedPrefix(t *testing.T) {
	cfg := HybridTDMConfig(6, 6)
	cfg.DynamicSlots = false // keep tables stable so snapshots compare exactly
	cfg.CheckInvariants = true
	net, _ := driverNet(t, cfg)
	defer net.Close()
	net.EnableStats()

	// Live circuit A along row 0 (routers 0..5).
	establishCircuit(t, net, 0, 5)

	// Make every reservation at router 9 fail: setups from node 6 to 11
	// along row 1 (routers 6..11) reserve at hops 0..2 and are refused
	// at hop 3.
	net.Router(9).Tables().ReserveCap = 0.01

	before := make(map[int][]slotOwner)
	for r := 0; r < 12; r++ {
		before[r] = validEntries(net.Router(topology.NodeID(r)).Tables())
	}

	ni := net.NI(6)
	for i := 0; i < 30; i++ {
		ni.Send(net.Now(), 11, SendOptions{AllowCS: true, Slack: -1})
		net.Run(20)
	}
	net.RunUntil(func() bool { return net.Stats().SetupsFailed > 0 }, 5000)
	if net.Stats().SetupsFailed == 0 {
		t.Fatal("no setup failed despite the reservation cap")
	}
	if !net.Drain(20000) {
		t.Fatalf("drain failed, in flight %d", net.InFlight())
	}
	if _, ok := niCircuit(ni, 11); ok {
		t.Fatal("circuit established despite the reservation cap")
	}

	for r := 0; r < 12; r++ {
		after := validEntries(net.Router(topology.NodeID(r)).Tables())
		if !reflect.DeepEqual(before[r], after) {
			t.Errorf("router %d slot table changed by the failed setup:\n before %v\n after  %v", r, before[r], after)
		}
	}
	if n := net.InvariantCount(); n != 0 {
		t.Errorf("%d invariant violations; first: %s", n, net.InvariantViolations()[0])
	}
}

// heldCircuits sends a short circuit-switched burst from every fourth
// tile and then stays silent: the circuits it sets up stay reserved
// (nothing tears down an idle circuit while its NI's registry has room)
// through a long idle stretch, where their routers must still sleep.
func heldCircuits(id topology.NodeID) Endpoint {
	if int(id)%4 == 0 {
		return &burst{count: 12, dstOf: reversePattern, allowCS: true, period: 9}
	}
	return nil
}

// sleeping counts the routers (with holding, only those that hold slot
// reservations) that were not ticked in the last cycle: their lazily
// accrued meter lags the clock.
func sleeping(net *Network, holding bool) int {
	n := 0
	for id := 0; id < net.Mesh().Nodes(); id++ {
		r := net.Router(topology.NodeID(id))
		if (!holding || r.Tables().ReservedEntries() > 0) && r.Meter().Cycles < int64(net.Now()) {
			n++
		}
	}
	return n
}

// TestQuiescentTickIsNoOp is the quiescence soundness check: force-tick
// every node that reports Quiescent() and require the full-state digest
// to be bit-identical afterwards. If any Quiescent implementation
// over-reports (a node with hidden pending work claims to be idle), the
// forced tick performs that work early and the digest moves. The
// held-circuits row force-ticks routers that hold reservations.
func TestQuiescentTickIsNoOp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps int
		ep    func(topology.NodeID) Endpoint
		held  bool
	}{
		{"bursts", 800, func(id topology.NodeID) Endpoint {
			if int(id)%2 == 0 {
				return &burst{count: 60, dstOf: reversePattern, allowCS: true, period: 7}
			}
			return nil
		}, false},
		{"held-circuits", 1600, heldCircuits, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := HybridTDMConfig(6, 6).WithSharing()
			cfg.CheckInvariants = true
			net := New(cfg, tc.ep)
			defer net.Close()
			forced, forcedHolding, slept := 0, 0, 0
			for step := 0; step < tc.steps; step++ {
				net.Step()
				slept += sleeping(net, true)
				if step%20 != 0 {
					continue
				}
				now := net.Now()
				before := net.StateDigest()
				for id := 0; id < net.Mesh().Nodes(); id++ {
					nid := topology.NodeID(id)
					if r := net.Router(nid); r.Quiescent() {
						if r.Tables().ReservedEntries() > 0 {
							forcedHolding++
						}
						r.Tick(now, sim.PhaseCompute)
						r.Tick(now, sim.PhaseTransfer)
						forced++
					}
					if ni := net.NI(nid); ni.SchedState() != nil && ni.Quiescent() {
						ni.Tick(now, sim.PhaseCompute)
						ni.Tick(now, sim.PhaseTransfer)
						forced++
					}
				}
				if after := net.StateDigest(); after != before {
					t.Fatalf("cycle %d: forced ticks of quiescent nodes changed state: %016x -> %016x",
						int64(now), before, after)
				}
			}
			if forced == 0 {
				t.Fatal("no node ever reported quiescent; the soundness check never ran")
			}
			if tc.held && (forcedHolding == 0 || slept == 0) {
				t.Fatalf("routers holding reservations: %d forced quiescent ticks, %d router-cycles asleep; want both > 0", forcedHolding, slept)
			}
		})
	}
}
