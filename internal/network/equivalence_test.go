package network

import (
	"errors"
	"fmt"
	"testing"

	"tdmnoc/internal/difftest"
	"tdmnoc/internal/topology"
)

// netRun is a Network under the differential harness; each, when set,
// runs after every cycle.
type netRun struct {
	*Network
	each  func(*netRun)
	slept int // router-cycles asleep, counted by the always-tick rows
}

func (r *netRun) Advance(cycles int) {
	for ; cycles > 0; cycles-- {
		r.Step()
		if r.each != nil {
			r.each(r)
		}
	}
}

func (r *netRun) InvariantError() error {
	if n := r.InvariantCount(); n > 0 {
		return fmt.Errorf("%d invariant violations; first: %s", n, r.InvariantViolations()[0])
	}
	return nil
}

// netCase is a harness row over New(cfg, ep) with statistics on from
// cycle 0, each point's workers, checking and scheduling applied, and
// each as the per-cycle hook. Stats, energy and the in-flight count are
// outputs, and every point must deliver.
func netCase(name string, cfg Config, ep EndpointFactory, cycles int, each func(*netRun),
	points ...difftest.Point) difftest.Case[*netRun] {
	return difftest.Case[*netRun]{Name: name, Cycles: cycles, Points: points,
		Build: func(p difftest.Point) *netRun {
			cfg := cfg
			cfg.Workers, cfg.CheckInvariants, cfg.AlwaysTick = p.Workers, p.Checked, p.AlwaysTick
			cfg.PoolMessages = true // no row's endpoint keeps a packet past OnDeliver
			r := &netRun{Network: New(cfg, ep), each: each}
			r.EnableStats()
			return r
		},
		Outputs: map[string]func(*netRun) ([]byte, error){
			"stats": func(r *netRun) ([]byte, error) {
				return fmt.Appendf(nil, "%+v\n%+v\nin flight %d", r.Stats(), r.Energy(), r.InFlight()), nil
			},
		},
		Proof: func(r *netRun) error {
			if r.Stats().EjectedPackets == 0 {
				return errors.New("the run delivered nothing")
			}
			return nil
		},
	}
}

func bursts(count int) EndpointFactory {
	return func(topology.NodeID) Endpoint {
		return &burst{count: count, dstOf: reversePattern, allowCS: true, period: 5}
	}
}

// alwaysTickCase compares a scheduled run with an AlwaysTick one, and
// requires the scheduled run's routers (with holding, ones holding
// reservations) to sleep: skipped ticks are compared with real ones.
func alwaysTickCase(name string, ep EndpointFactory, cycles int, holding bool) difftest.Case[*netRun] {
	c := netCase(name, sharingConfig(6, 6), ep, cycles,
		func(r *netRun) { r.slept += sleeping(r.Network, holding) },
		difftest.Point{Workers: 1, Checked: true}, difftest.Point{Workers: 1, Checked: true, AlwaysTick: true})
	proof := c.Proof
	c.Proof = func(r *netRun) error {
		if !r.Config().AlwaysTick && r.slept == 0 {
			return errors.New("no router the row counts ever slept")
		}
		return proof(r)
	}
	return c
}

// TestEquivalence holds the network's "≡" rows: a parallel run is the
// serial one, checking only observes, and a skipped tick is an exact
// no-op. Each row compares state digests at checkpoints, rolling
// digests and the stats bytes with its first point.
func TestEquivalence(t *testing.T) {
	checked := difftest.Point{Checked: true}
	sharing := sharingConfig(6, 6)
	layout := func(w, h int) Config {
		cfg := sharingConfig(w, h)
		cfg.CheckInterval = 128
		return cfg
	}
	// A 32x32 state digest costs ≈80 ms: two checkpoints, not eight.
	mesh32 := netCase("layout-32x32", layout(32, 32), bursts(80), 600, nil, difftest.Matrix(checked, 1, 2, 8, 16)...)
	mesh32.Checkpoints = 2
	for _, c := range []difftest.Case[*netRun]{
		netCase("burst-6x6", HybridTDMConfig(6, 6), bursts(100), 1000, nil, difftest.Matrix(checked, 1, 4)...),
		netCase("burst-6x6-stats", HybridTDMConfig(6, 6), bursts(100), 3000, nil, difftest.Matrix(difftest.Point{}, 1, 4)...),
		netCase("sharing-6x6", sharing, bursts(80), 900, nil, difftest.Matrix(checked, 1, 2, 3, 8)...),
		// 50 tickers do not divide evenly: the last worker's span is short.
		netCase("sharing-5x5-ragged", sharingConfig(5, 5), bursts(80), 900, nil, difftest.Matrix(checked, 1, 3, 8)...),
		// Slab boundaries move with the worker count: the 2D block grid
		// cannot tile 10x6 evenly at most counts.
		netCase("layout-10x6", layout(10, 6), bursts(80), 900, nil, difftest.Matrix(checked, 1, 2, 8, 16)...),
		mesh32,
		netCase("chaos-6x6", sharing, func(topology.NodeID) Endpoint { return &chaos{until: 4000} }, 6000, nil,
			difftest.Matrix(difftest.Point{}, 1, 4)...),
		// Finite bursts from every third tile: the network goes almost
		// fully idle, deep-sleep territory where a broken re-arm diverges.
		alwaysTickCase("always-tick-bursts", func(id topology.NodeID) Endpoint {
			if int(id)%3 == 0 {
				return &burst{count: 40, dstOf: reversePattern, allowCS: true, period: 9}
			}
			return nil // sink tiles: their NIs sleep between deliveries
		}, 1200, false),
		// The idle routers still hold reservations, and must sleep anyway.
		alwaysTickCase("always-tick-held-circuits", heldCircuits, 2000, true),
	} {
		difftest.Run(t, c)
	}
}

// TestHarnessLocatesDroppedCredit: a credit dropped at router 14 in one
// point's run is reported at the checkpoint after it, localised to its
// cycle and to router 14.
func TestHarnessLocatesDroppedCredit(t *testing.T) {
	const at = 60
	fault := func(r *netRun) {
		if r.Workers() == 2 && r.Now() == at {
			r.Router(14).FaultDropCredit(topology.East, 0)
		}
	}
	c := netCase("dropped-credit", HybridTDMConfig(6, 6), bursts(50), 100, fault, difftest.Matrix(difftest.Point{}, 1, 2)...)
	c.Checkpoints = 4
	var m *difftest.Mismatch
	err := difftest.Check(c, false)
	if !errors.As(err, &m) || m.What != "state digest" || m.Checkpoint != 75 || m.Cycle != at || m.Component != "router 14" {
		t.Fatalf("harness reported %v; want the state digest at checkpoint 75, cycle %d, router 14", err, at)
	}
}
