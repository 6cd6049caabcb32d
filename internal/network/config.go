// Package network assembles routers into a mesh NoC with per-tile network
// interfaces (NIs). The NI carries the source-side half of the paper's
// protocol: the switching decision (Section II-A, V-A2), circuit setup and
// teardown with retries (Section II-B), hitchhiker- and vicinity-sharing
// (Section III-A), and the network-wide dynamic slot-table sizing loop
// (Section II-C).
package network

import (
	"tdmnoc/internal/policy"
	"tdmnoc/internal/router"
	"tdmnoc/internal/tablei"
)

// Config describes one simulated network.
type Config struct {
	// Width and Height of the mesh (Table I: 6x6).
	Width, Height int
	// Router is the per-router configuration. Its Hybrid flag also turns
	// on the NIs' circuit-switching decisions, and its Sharing flag their
	// hitchhiker- and vicinity-sharing.
	Router router.Config
	// Seed drives all randomness; identical seeds reproduce runs exactly.
	Seed uint64
	// Workers selects executor parallelism (1 = serial; results identical).
	Workers int
	// AlwaysTick disables active-node scheduling, ticking every router
	// and NI every phase regardless of quiescence. Results are identical
	// either way (skipped ticks are provably state no-ops); equivalence
	// tests use this to pin the skipping path against the exhaustive
	// one, and it is the escape hatch if a future component breaks the
	// quiescence contract.
	AlwaysTick bool

	// DynamicSlots enables the network-wide slot-table sizing policy.
	DynamicSlots bool

	// PSDataFlits is the packet-switched data packet length,
	// tablei.PSDataFlits (a circuit-switched packet carries the same
	// line in csDataFlits).
	PSDataFlits int

	// SlotInit, when > 0, overrides the dynamic resizer's initial
	// active slot-table region (normally capacity/8). Policy decisions
	// use it to start the table at the profiled demand instead of
	// discovering it through freeze→drain→reset doublings.
	SlotInit int
	// PinnedFlows lists (src, dst) node-id pairs whose circuits are set
	// up eagerly: the first send to a pinned destination triggers a
	// setup, skipping the tablei.SetupThreshold/freqWindow frequency filter.
	PinnedFlows []policy.FlowPin
	// RestrictSetups forbids circuit setups for flows not in
	// PinnedFlows (or, under the adaptive controller, not in the
	// current epoch's pin set). Non-pinned traffic stays packet-
	// switched, which keeps the slot tables small and eliminates their
	// setup/teardown config traffic. The NIs read it only through their
	// pin maps, which exist only once some flow is pinned: with
	// PinnedFlows empty and no controller, RestrictSetups does nothing
	// and every flow rides the frequency filter.
	RestrictSetups bool
	// AdaptiveEpoch, when > 0, enables the online controller: every
	// AdaptiveEpoch cycles the network decides policy.Greedy with
	// TopK = AdaptiveTopK on the recorder's flow deltas since the last
	// boundary, pins its flows, and — when the pin set changed —
	// re-allocates the slot tables through the same freeze→drain→reset
	// path the dynamic resizer uses. Requires an attached flow-tracking
	// recorder.
	AdaptiveEpoch int64
	// AdaptiveTopK bounds the online controller's pin set (default 8).
	AdaptiveTopK int

	// CheckInvariants enables the runtime invariant layer: flit
	// conservation, credit consistency, slot-table ownership, and the
	// rolling determinism digest. CheckInterval is the checking cadence
	// in cycles (<= 1 means every cycle). Checks run serially between
	// cycles, after the management step.
	CheckInvariants bool
	CheckInterval   int

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
		Width: width, Height: height,
		Router:                router.DefaultConfig(),
		Seed:                  1,
		Workers:               1,
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
	c.Router = router.HybridConfig()
	c.DynamicSlots = true
	return c
}

// WithSharing enables circuit-switched path sharing (the "hop"
// configurations of Fig. 8).
func (c Config) WithSharing() Config {
	c.Router.Sharing = true
	return c
}

// WithVCGating enables aggressive VC power gating (the "VCt"
// configurations).
func (c Config) WithVCGating() Config {
	c.Router.VCGating = true
	return c
}

// WithLatencyVCGating selects the latency-driven gating refinement of
// Section V-B4 instead of the utilisation-driven policy.
func (c Config) WithLatencyVCGating() Config {
	c.Router.VCGating = true
	c.Router.LatencyVCGating = true
	return c
}

// ReserveDuration is the consecutive-slot reservation length: the CS data
// length, plus one slot for the vicinity-sharing header when sharing is on
// (Section III-A2).
func (c Config) ReserveDuration() int {
	if c.Router.Sharing {
		return csDataFlits + 1
	}
	return csDataFlits
}

func (c Config) validate() {
	if c.Width <= 0 || c.Height <= 0 {
		panic("network: mesh dimensions must be positive")
	}
	if c.PSDataFlits <= 0 {
		panic("network: packet size must be positive")
	}
	if c.SlotInit < 0 || c.SlotInit > c.Router.SlotCapacity {
		panic("network: SlotInit outside [0, SlotCapacity]")
	}
	if c.AdaptiveEpoch > 0 && !c.Router.Hybrid {
		panic("network: AdaptiveEpoch requires Router.Hybrid")
	}
	nodes := c.Width * c.Height
	for _, p := range c.PinnedFlows {
		if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
			panic("network: PinnedFlows node id outside the mesh")
		}
	}
}
