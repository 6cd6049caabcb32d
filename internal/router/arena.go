package router

import (
	"fmt"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/hybrid"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// Arena block-allocates the routers of one executor partition and all of
// their variable-size hot state — VC descriptors, queue backing, credit
// counters, free bitmaps, pending-credit and DLT-event buffers, slot
// tables — out of contiguous slabs in structure-of-arrays form, sized
// once at construction. The old layout heap-allocated each of these per
// router, scattering a partition's per-cycle working set across the
// heap; the arena keeps it adjacent, and giving each partition its own
// arena (separate allocations) means two workers' hot state can never
// share a cache line without needing pad bytes inside the slabs.
//
// Every carved slice uses a full-capacity (three-index) expression: an
// append past a buffer's nominal capacity — which the protocol bounds
// should make impossible, and the diagnostics count when it happens —
// reallocates out of the slab instead of silently overwriting the next
// router's state.
type Arena struct {
	cfg     Config
	routers []Router
	vcs     []inputVC
	q       []*flit.Flit
	credits []int
	vcFree  []bool
	pcs     []creditMsg
	dlt     []DLTEvent
	tables  *hybrid.TablesArena
	used    int
}

// NewArena creates an arena with room for count routers of the given
// configuration.
func NewArena(count int, cfg Config) *Arena {
	cfg.validate()
	if count <= 0 {
		panic(fmt.Sprintf("router: invalid arena count %d", count))
	}
	np := int(topology.NumPorts)
	a := &Arena{
		cfg:     cfg,
		routers: make([]Router, count),
		vcs:     make([]inputVC, count*np*cfg.VCs),
		q:       make([]*flit.Flit, count*np*cfg.VCs*tablei.BufDepth),
		credits: make([]int, count*np*cfg.VCs),
		vcFree:  make([]bool, count*np*cfg.VCs),
		pcs:     make([]creditMsg, count*np),
	}
	if cfg.Hybrid {
		a.tables = hybrid.NewTablesArena(count, cfg.SlotCapacity, cfg.SlotActive)
		a.dlt = make([]DLTEvent, count*np)
	}
	return a
}

// Bytes returns the arena's slab sizes: the slot-table entry rows, and
// everything else — the routers with their per-port and per-VC slabs and
// the slot tables' per-router headers.
func (a *Arena) Bytes() (slots, routers int) {
	routers = sim.SlabBytes(a.routers) + sim.SlabBytes(a.vcs) + sim.SlabBytes(a.q) + sim.SlabBytes(a.credits) +
		sim.SlabBytes(a.vcFree) + sim.SlabBytes(a.pcs) + sim.SlabBytes(a.dlt)
	if a.tables != nil {
		rows, headers := a.tables.Bytes()
		slots, routers = rows, routers+headers
	}
	return slots, routers
}

// New carves the next router from the arena. The returned pointer is
// stable for the arena's lifetime. The caller wires neighbours with
// Connect and attaches the NI credit sink with AttachLocal, exactly as
// with the standalone constructor. Panics when the arena is exhausted
// (a construction-time sizing bug).
func (a *Arena) New(id topology.NodeID, m topology.Mesh) *Router {
	if a.used >= len(a.routers) {
		panic(fmt.Sprintf("router: arena exhausted after %d routers", a.used))
	}
	i := a.used
	a.used++
	cfg := a.cfg
	np := int(topology.NumPorts)

	r := &a.routers[i]
	r.id, r.mesh, r.cfg = id, m, cfg
	c := m.Coord(id)
	r.selfX, r.selfY = c.X, c.Y
	r.activeVCs, r.pendingVCs, r.publishedVCLimit = cfg.VCs, cfg.VCs, cfg.VCs

	base := i * np * cfg.VCs
	r.vcs = a.vcs[base : base+np*cfg.VCs : base+np*cfg.VCs]
	for p := 0; p < np; p++ {
		off := base + p*cfg.VCs
		iu := &r.in[p]
		iu.vcs = a.vcs[off : off+cfg.VCs : off+cfg.VCs]
		for v := range iu.vcs {
			qo := (off + v) * tablei.BufDepth
			iu.vcs[v].q = a.q[qo : qo : qo+tablei.BufDepth]
			iu.vcs[v].idx, iu.vcs[v].port = uint8(p*cfg.VCs+v), topology.Port(p)
		}
		ou := &r.out[p]
		ou.credits = a.credits[off : off+cfg.VCs : off+cfg.VCs]
		ou.vcFree = a.vcFree[off : off+cfg.VCs : off+cfg.VCs]
		for v := 0; v < cfg.VCs; v++ {
			ou.credits[v] = tablei.BufDepth
			ou.vcFree[v] = true
		}
	}
	r.stateMask[vcIdle] = 1<<(np*cfg.VCs) - 1
	r.pendingCredits = a.pcs[i*np : i*np : (i+1)*np]
	r.out[topology.Local].connected = true
	if cfg.Hybrid {
		r.tables = a.tables.New()
		r.dltEvents = a.dlt[i*np : i*np : (i+1)*np]
	}
	if cfg.LatencyVCGating {
		r.latGate = hybrid.DefaultLatencyVCGate(cfg.VCs)
	} else if cfg.VCGating {
		r.gate = hybrid.DefaultVCGate(cfg.VCs)
	}
	// A gating router mutates observation state (and possibly activeVCs)
	// every compute tick, so its ticks are never state no-ops and it must
	// not be skipped.
	r.canSleep = r.gate == nil && r.latGate == nil
	r.meter.LinkChannels = 1 // local ejection channel; Connect adds more
	return r
}
