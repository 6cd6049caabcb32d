package network

import (
	"tdmnoc/internal/flit"
	"tdmnoc/internal/hybrid"
	"tdmnoc/internal/invariant"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/power"
	"tdmnoc/internal/router"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/stats"
	"tdmnoc/internal/topology"
)

// drainWindow is how many cycles a slot-table reset waits after freezing
// circuit-switched injection, so in-flight CS flits land first.
const drainWindow = 64

// Network is one simulated NoC: the mesh of routers, the per-tile NIs,
// the executor that drives them, and the network-wide managers (dynamic
// slot-table sizing).
type Network struct {
	cfg   Config
	mesh  topology.Mesh
	clock sim.Clock
	exec  *sim.Executor

	routers []*router.Router
	nis     []*NI
	// tileOwner[id] is the worker whose partition ticks tile id (always
	// 0 when serial); observability handles bind to the owner's shard.
	tileOwner []int

	// checker is the optional runtime invariant layer and census what its
	// state walk counts (both nil unless cfg.CheckInvariants).
	checker *invariant.Checker
	census  *census

	// pools are the packet free lists, one per non-empty executor
	// partition (empty unless cfg.PoolMessages); sharedPool is the tier
	// packets migrate between them through (nil with fewer than two).
	pools      []*flit.Pool
	sharedPool *flit.SharedPool

	// slotBytes, routerBytes and niBytes sum the partition arenas' slabs
	// (see ArenaBytes).
	slotBytes, routerBytes, niBytes int

	// rec is the attached observability recorder (nil = tracing off);
	// control is its between-cycle control handle, used for the sampled
	// gauges; probeEvery is the telemetry sampling interval in cycles.
	rec        *obs.Recorder
	control    *obs.Handle
	probeEvery int64

	// resizer sizes the slot tables; the NIs feed it setup outcomes
	// only when dynamicSlots (HybridTDM without DisableDynamicSlotSizing).
	resizer      *hybrid.Resizer
	dynamicSlots bool
	// slotActive is the slot count the routers are actually using; it
	// lags the resizer's decision by the drain window so NIs and routers
	// always agree on the slot modulus.
	slotActive int
	epoch      int
	// resizeAt is non-zero while a reset is scheduled, and circuit-
	// switched injection is frozen until it fires (csFrozen).
	resizeAt sim.Cycle
	resizeTo int
}

// EndpointFactory builds the traffic endpoint for each tile; it may
// return nil for tiles that only sink traffic.
type EndpointFactory func(id topology.NodeID) Endpoint

// New builds a network from cfg, attaching endpoints from mk. It panics
// with Params.Validate's error on a configuration that fails it, and on
// HybridSDM, whose engine is internal/sdm.
func New(cfg Config, mk EndpointFactory) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Mode == HybridSDM {
		panic("network: HybridSDM runs on internal/sdm, not on this engine")
	}
	n := &Network{cfg: cfg, mesh: topology.NewMesh(cfg.Width, cfg.Height)}
	rc := n.routerConfig()

	nodes := n.mesh.Nodes()

	// Partition-contiguous construction: sim.BlockPartition decides
	// which tiles each worker owns, and each partition's routers and NIs
	// are carved from that partition's own arenas — a worker's per-cycle
	// working set is contiguous in memory, and two partitions never
	// share a cache line because they never share an allocation. The
	// partition can never change results: the phase contract (see
	// sim.Phase) makes tick order within a phase unobservable, and
	// everything order-sensitive at construction (RNG forking, endpoint
	// factory calls) runs in node-id order below regardless of layout.
	parts := sim.BlockPartition(cfg.Width, cfg.Height, cfg.Workers)
	order, spans := sim.PartitionSpans(parts, 2)

	n.routers = make([]*router.Router, nodes)
	n.tileOwner = make([]int, nodes)
	for wi, ids := range parts {
		if len(ids) == 0 {
			continue
		}
		arena := router.NewArena(len(ids), rc)
		for _, id := range ids {
			n.routers[id] = arena.New(topology.NodeID(id), n.mesh)
			n.tileOwner[id] = wi
		}
		slots, routers := arena.Bytes()
		n.slotBytes += slots
		n.routerBytes += routers
	}
	for id := 0; id < nodes; id++ {
		for _, p := range []topology.Port{topology.North, topology.East, topology.South, topology.West} {
			if nb, ok := n.mesh.Neighbor(topology.NodeID(id), p); ok {
				n.routers[id].Connect(p, n.routers[nb])
			}
		}
	}

	// RNG streams and endpoints are created in node-id order regardless
	// of the partition layout, so no layout or worker count can change
	// the stream any tile sees.
	master := sim.NewRNG(cfg.Seed)
	rngs := make([]*sim.RNG, nodes)
	eps := make([]Endpoint, nodes)
	for id := 0; id < nodes; id++ {
		rngs[id] = master.Fork()
		if mk != nil {
			eps[id] = mk(topology.NodeID(id))
		}
	}

	n.nis = make([]*NI, nodes)
	if cfg.PoolMessages && len(parts) > 1 {
		n.sharedPool = flit.NewSharedPool()
	}
	for _, ids := range parts {
		if len(ids) == 0 {
			continue
		}
		var pool *flit.Pool
		if cfg.PoolMessages {
			// One worker ticks all of a partition's NIs, so they can share
			// one unsynchronised packet pool.
			pool = flit.NewPool(n.sharedPool, len(ids))
			n.pools = append(n.pools, pool)
		}
		arena := newNIArena(len(ids), rc.VCs, pool)
		for _, id := range ids {
			n.nis[id] = arena.newNI(topology.NodeID(id), n, n.routers[id], rngs[id], eps[id])
		}
		n.niBytes += arena.bytes()
	}
	if len(cfg.PinnedFlows) > 0 {
		// Every NI gets a pin map, empty where nothing is pinned ("policy
		// active, nothing pinned here"); a config that pins nothing
		// leaves them nil.
		for _, ni := range n.nis {
			ni.pins = make(map[topology.NodeID]bool)
		}
		for _, p := range cfg.PinnedFlows {
			n.nis[p.Src].pins[topology.NodeID(p.Dst)] = true
		}
	}

	// Tickers are interleaved per tile (router_i, NI_i) in partition
	// order — matching the slab layout, so a worker walks its span of
	// the ticker slice in the same order its state sits in memory — and
	// the executor receives the partition's exact per-worker spans.
	tickers := make([]sim.Ticker, 0, 2*nodes)
	for _, id := range order {
		tickers = append(tickers, n.routers[id], n.nis[id])
	}
	n.exec = sim.NewExecutorSpans(&n.clock, tickers, spans)
	if cfg.AlwaysTick {
		n.exec.SetAlwaysTick(true)
	}
	if cfg.CheckInvariants {
		n.checker = invariant.NewChecker(cfg.CheckInterval)
		n.census = &census{mesh: n.mesh, vcs: rc.VCs, seen: make(map[uint64]struct{}),
			occ: make([]int, nodes*int(topology.NumPorts)*rc.VCs)}
	}
	return n
}

// Close releases the executor's worker pool.
func (n *Network) Close() { n.exec.Close() }

// BarrierWaits returns the parallel executor's per-participant barrier
// accounting (nil on a serial network); see sim.Executor.WaitStats.
func (n *Network) BarrierWaits() []sim.WaitStats { return n.exec.WaitStats() }

// Mesh returns the network topology.
func (n *Network) Mesh() topology.Mesh { return n.mesh }

// Workers returns the executor's effective worker count (>= 1). A
// recorder attached via AttachProbe needs at least this many shards.
func (n *Network) Workers() int { return n.exec.Workers() }

// Now returns the current simulation cycle.
func (n *Network) Now() sim.Cycle { return n.clock.Now() }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// NI returns the network interface of tile id.
func (n *Network) NI(id topology.NodeID) *NI { return n.nis[id] }

// Router returns the router of tile id.
func (n *Network) Router(id topology.NodeID) *router.Router { return n.routers[id] }

// PacketPool reports how many packets the pools have ever allocated and
// how many of those are free right now, summed over the partition pools
// and the shared tier (both zero unless cfg.PoolMessages); the
// difference is the packets alive in the simulation. Call between
// cycles.
func (n *Network) PacketPool() (allocated, free int) {
	for _, p := range n.pools {
		allocated += p.Allocated()
		free += p.Free()
	}
	return allocated, free + n.sharedPool.Free()
}

// ArenaBytes reports the bytes of the partition arenas' slabs, by owner:
// slot-table entry rows, routers (with their per-port and per-VC state
// and the slot tables' headers), and NIs. Map-backed NI state and
// packets are not in any slab and not counted.
func (n *Network) ArenaBytes() (slots, routers, nis int) {
	return n.slotBytes, n.routerBytes, n.niBytes
}

// ActiveSlots is the network-wide active slot-table size currently in
// force at the routers (a pending resize only takes effect after the
// drain window).
func (n *Network) ActiveSlots() int { return n.slotActive }

// ResizeEvents reports how many dynamic slot-table doublings occurred.
func (n *Network) ResizeEvents() int { return n.resizer.ResizeEvents() }

// Step advances the simulation one cycle, then runs the between-cycle
// manager (dynamic slot-table sizing) and, when enabled and due, the
// runtime invariant checks.
func (n *Network) Step() {
	n.exec.Step()
	n.manage()
	if n.rec != nil {
		now := int64(n.clock.Now())
		if n.probeEvery > 0 && now%n.probeEvery == 0 {
			n.sampleTelemetry(now)
		}
		n.rec.Sync(now)
	}
	if n.checker != nil {
		if now := int64(n.clock.Now()); n.checker.Due(now) {
			n.checkInvariants(now)
		}
	}
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		n.Step()
	}
}

// RunUntil steps until done reports true or limit cycles elapse. Like
// sim.Executor.RunUntil, a condition already satisfied at entry returns
// (0, true) without running a cycle.
func (n *Network) RunUntil(done func() bool, limit int) (int, bool) {
	if done() {
		return 0, true
	}
	for i := 0; i < limit; i++ {
		n.Step()
		if done() {
			return i + 1, true
		}
	}
	return limit, false
}

// manage is the serial between-cycle management step: it feeds setup
// outcomes to the resizing policy and orchestrates the freeze → drain →
// reset sequence of Section II-C for each doubling it decides.
func (n *Network) manage() {
	now := n.clock.Now()
	if n.dynamicSlots {
		for _, ni := range n.nis {
			for _, ok := range ni.setupResults {
				if newActive, resized := n.resizer.RecordSetupResultAt(ok, int64(now)); resized && n.resizeAt == 0 {
					n.scheduleReset(now, newActive)
				}
			}
			ni.setupResults = ni.setupResults[:0]
		}
	}
	if n.resizeAt != 0 && now >= n.resizeAt {
		for _, r := range n.routers {
			// The reset changes the powered slot-entry count the static
			// leakage integral depends on; flush the lazily-accrued
			// cycles at the old size first.
			r.SyncStatics(now)
			r.ResetCircuits(n.resizeTo, n.epoch)
		}
		for _, ni := range n.nis {
			ni.onResize()
		}
		n.slotActive = n.resizeTo
		n.resizeAt = 0
		// The reset mutated every router and NI outside the tick loop;
		// re-arm them all so no node sleeps through it.
		n.exec.WakeAll()
	}
}

// scheduleReset starts the freeze → drain → reset sequence toward an
// active region of size slots: CS injection freezes now, the tables are
// wiped drainWindow cycles later, and the epoch bump makes every router
// and NI discard the acks and teardowns of older circuits.
func (n *Network) scheduleReset(now sim.Cycle, size int) {
	n.resizeTo = size
	n.resizeAt = now + drainWindow
	n.epoch++
}

// csFrozen reports whether circuit-switched injection is frozen: a
// slot-table reset is scheduled and its drain window is running.
func (n *Network) csFrozen() bool { return n.resizeAt != 0 }

// EnableStats starts statistics collection (call after warm-up) and
// resets the energy meters so energy covers the measured region only.
func (n *Network) EnableStats() {
	for _, ni := range n.nis {
		ni.Stats.Enabled = true
	}
	now := n.clock.Now()
	for _, r := range n.routers {
		// Flush lazily-accrued pre-measurement cycles into the meter
		// being discarded, so they cannot leak into the fresh one.
		r.SyncStatics(now)
		r.Meter().Reset()
	}
}

// Stats merges every NI's collector.
func (n *Network) Stats() stats.Collector {
	var out stats.Collector
	for _, ni := range n.nis {
		out.Merge(&ni.Stats)
	}
	return out
}

// SyncMeters brings every router's lazily-accrued static energy up to
// the current cycle. Callers reading meters directly (rather than via
// Energy, which syncs itself) must call this first, or skipped-cycle
// leakage since the router's last tick is missing from the numbers.
func (n *Network) SyncMeters() {
	now := n.clock.Now()
	for _, r := range n.routers {
		r.SyncStatics(now)
	}
}

// Energy merges every router's meter into one breakdown and adds the
// NI-side DLT access energy to the circuit-switching component.
func (n *Network) Energy() power.Breakdown {
	n.SyncMeters()
	var out power.Breakdown
	for _, r := range n.routers {
		out = out.Add(r.Meter().Report())
	}
	var dlt power.RouterMeter
	for _, ni := range n.nis {
		dlt.DLTAccesses += ni.dltAccesses
	}
	return out.Add(dlt.Report())
}

// Diagnostics sums the protocol-invariant counters across routers; every
// field should be zero except StolenSlots.
type Diagnostics struct {
	MisroutedCS    int64
	DroppedCS      int64
	LatchConflicts int64
	StolenSlots    int64
}

// Diagnose aggregates router diagnostics.
func (n *Network) Diagnose() Diagnostics {
	var d Diagnostics
	for _, r := range n.routers {
		d.MisroutedCS += r.MisroutedCS
		d.DroppedCS += r.DroppedCS
		d.LatchConflicts += r.LatchConflicts
		d.StolenSlots += r.StolenSlots
	}
	return d
}

// InFlight reports packets sent but not yet finally ejected.
func (n *Network) InFlight() int64 {
	var sent, ejected int64
	for _, ni := range n.nis {
		sent += ni.TotalSent
		ejected += ni.TotalEjected
	}
	return sent - ejected
}

// Drain runs until every sent packet has been ejected or limit cycles
// pass; endpoints should have stopped generating first.
func (n *Network) Drain(limit int) bool {
	_, ok := n.RunUntil(func() bool { return n.InFlight() == 0 }, limit)
	return ok
}
