// Package network assembles routers into a mesh NoC with per-tile network
// interfaces (NIs). The NI carries the source-side half of the paper's
// protocol: the switching decision (Section II-A, V-A2), circuit setup and
// teardown with retries (Section II-B), hitchhiker- and vicinity-sharing
// (Section III-A), and the network-wide dynamic slot-table sizing loop
// (Section II-C).
package network

import (
	"cmp"

	"tdmnoc/internal/hybrid"
	"tdmnoc/internal/router"
	"tdmnoc/internal/tablei"
)

// Config describes one simulated network: the public knobs (Params),
// plus what only callers of this package set.
type Config struct {
	Params

	// AlwaysTick disables active-node scheduling, ticking every router
	// and NI every phase regardless of quiescence. Results are identical
	// either way (skipped ticks are provably state no-ops); equivalence
	// tests use this to pin the skipping path against the exhaustive
	// one, and it is the escape hatch if a future component breaks the
	// quiescence contract.
	AlwaysTick bool

	// PSDataFlits is the packet-switched data packet length,
	// tablei.PSDataFlits (a circuit-switched packet carries the same
	// line in csDataFlits).
	PSDataFlits int

	// PoolMessages recycles packet/flit objects through one free list
	// per executor partition (flit.Pool), making the steady-state cycle
	// loop allocation-free. A delivered packet is returned to the
	// delivering NI's partition pool the moment its endpoint OnDeliver
	// callback returns, so it is only safe when no endpoint retains
	// packet pointers past OnDeliver. The hsnoc layer enables it (all
	// its endpoints are retention-free); raw network.Config users opt in
	// explicitly. Never changes results: recycled objects are zeroed on
	// release.
	PoolMessages bool

	// The protocol's maxCircuits, idleTeardown and
	// overflowForExtraBlock. Only this package's tests change them: a
	// registry of one circuit, and the chaos runs' teardown and
	// extra-block churn.
	maxCircuits, overflowForExtraBlock int
	idleTeardown                       int64
}

// DefaultConfig returns the Table-I baseline network: a 6x6 mesh of
// packet-switched 4-VC routers.
func DefaultConfig(width, height int) Config {
	return Config{
		Params: Params{Width: width, Height: height, VCs: tablei.VCs, SlotTableEntries: tablei.SlotTableEntries,
			Seed: 1, Workers: 1},
		PSDataFlits:           tablei.PSDataFlits,
		maxCircuits:           maxCircuits,
		overflowForExtraBlock: overflowForExtraBlock,
		idleTeardown:          idleTeardown,
	}
}

// HybridTDMConfig returns the Hybrid-TDM-VC4 configuration: hybrid routers
// with 128-entry slot tables and NI-side circuit switching.
func HybridTDMConfig(width, height int) Config {
	c := DefaultConfig(width, height)
	c.Mode = HybridTDM
	return c
}

// ReserveDuration is the consecutive-slot reservation length: the CS data
// length, plus one slot for the vicinity-sharing header when sharing is on
// (Section III-A2).
func (c Config) ReserveDuration() int {
	if c.PathSharing {
		return csDataFlits + 1
	}
	return csDataFlits
}

// routerConfig derives the routers' configuration from the public knobs
// and starts n's slot-table resizer. A non-TDM router keeps the Table-I
// slot table, unpowered, whatever SlotTableEntries says, and
// LatencyBasedVCGating implies VC gating in every mode.
func (n *Network) routerConfig() router.Config {
	p := &n.cfg.Params
	rc := router.Config{
		VCs:              cmp.Or(p.VCs, tablei.VCs),
		SlotCapacity:     tablei.SlotTableEntries,
		TimeSlotStealing: true,
		VCGating:         p.VCPowerGating || p.LatencyBasedVCGating,
		LatencyVCGating:  p.LatencyBasedVCGating,
		SAIterations:     p.SAIterations,
	}
	if p.Mode == HybridTDM {
		rc.Hybrid, rc.Sharing = true, p.PathSharing
		rc.SlotCapacity = p.slotCapacity()
		rc.TimeSlotStealing = !p.DisableTimeSlotStealing
		n.dynamicSlots = !p.DisableDynamicSlotSizing
	}
	switch {
	case n.dynamicSlots && p.SlotInit > 0:
		n.resizer = hybrid.ResizerWithInitial(rc.SlotCapacity, p.SlotInit)
	case n.dynamicSlots:
		n.resizer = hybrid.DefaultResizer(rc.SlotCapacity)
	default:
		n.resizer = hybrid.FixedResizer(rc.SlotCapacity)
	}
	n.slotActive = n.resizer.Active()
	rc.SlotActive = n.slotActive
	return rc
}
