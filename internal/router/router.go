package router

import (
	"fmt"
	"math/bits"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/hybrid"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/power"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// Router is one mesh router: a canonical 4-stage virtual-channelled
// wormhole router, optionally extended with the hybrid-switched datapath
// of Fig. 2 (slot tables, circuit-switched latch path, demultiplexer and
// time-slot stealing).
//
// Concurrency contract: during the compute phase a router reads and
// writes only its own state, plus read-only neighbour state that is
// written exclusively in transfer phases (linkReg, publishedVCLimit,
// credits). During the transfer phase it moves flits across its incoming
// links (each link has exactly one downstream owner) and returns credits
// upstream. This makes parallel execution bit-identical to serial.
type Router struct {
	id   topology.NodeID
	mesh topology.Mesh
	cfg  Config

	in  [topology.NumPorts]inputUnit
	out [topology.NumPorts]outputUnit

	// vcs is every input VC, port-major (in[p].vcs are its per-port
	// windows). stateMask[s] has bit i set while vcs[i] is in pipeline
	// state s, and occupied while vcs[i] holds a flit. The compute phase
	// iterates these instead of scanning every VC, so its cost follows
	// the live VCs. They are derived state — inputVC.state and q stay
	// authoritative, and the checked state walk (Walk) recomputes the
	// masks from them.
	vcs       []inputVC
	stateMask [numVCStates]uint64
	occupied  uint64

	neighbors [topology.NumPorts]*Router
	localSink CreditSink

	// csPending[o] is a circuit-switched flit traversing to output o this
	// cycle (filled by acceptIncoming, drained by switchTraversal).
	csPending [topology.NumPorts]*flit.Flit

	// pendingCredits collects credits produced this compute phase; the
	// transfer phase delivers them upstream. Preallocated to its maximum
	// occupancy (one switch grant per input port per cycle) so the hot
	// path never grows it.
	pendingCredits []creditMsg

	// selfX, selfY cache this router's mesh coordinates for the RC
	// stage's X-Y comparison (see xyPort). An earlier layout precomputed
	// a per-router port-toward-every-node table instead; its O(N²)
	// aggregate footprint (256 MiB of route tables on a 128x128 mesh)
	// made large meshes cache- and memory-bound before a single flit
	// moved.
	selfX, selfY int

	// Hybrid state (nil unless cfg.Hybrid).
	tables *hybrid.RouterTables
	// dltEvents records circuits that started or stopped passing through
	// this router (setup/teardown processing). The co-located NI — which
	// owns the node's DLT — drains them during its transfer phase, so no
	// state is shared across entities within a phase.
	dltEvents []DLTEvent
	// Epoch is the slot-table sizing epoch; setups stamped with an older
	// epoch are rejected so reservations can never straddle a reset.
	Epoch int

	// VC gating.
	gate        *hybrid.VCGate
	latGate     *hybrid.LatencyVCGate
	activeVCs   int
	pendingVCs  int // shrink target during evacuation; == activeVCs when stable
	gateEpochAt sim.Cycle
	// publishedVCLimit is the VC count upstream allocators may use; it is
	// updated only in the transfer phase so cross-router reads are stable.
	publishedVCLimit int

	meter power.RouterMeter
	// accruedTo is the first cycle whose static leakage has not yet been
	// integrated into the meter. Active-node scheduling may skip a
	// quiescent router for many cycles; the next tick (or an explicit
	// SyncStatics at an observation point) accrues the whole idle gap in
	// one step, keeping Energy() exact without per-cycle meter writes.
	accruedTo sim.Cycle

	// node is this router's scheduling word for active-node scheduling;
	// armOut[p] is the word of whoever consumes out[p].latch (the
	// downstream router for mesh ports, the co-located NI for Local), so
	// writing a latch can arm its consumer for the same cycle's transfer
	// phase. Entries are nil when the consumer is not scheduled (e.g.
	// routers driven directly by unit-test harnesses).
	node   sim.NodeState
	armOut [topology.NumPorts]*sim.NodeState
	// canSleep is false for configurations whose compute tick is never a
	// state no-op (VC power gating observes utilisation every cycle).
	canSleep bool
	// lastActive is the activity bit of the most recent compute tick
	// (pipeline work done or flits buffered); Quiescent uses it to skip
	// its full state scan while the router is busy.
	lastActive bool

	// Diagnostics: protocol invariant violations (must stay zero in every
	// well-formed experiment; tests assert on them).
	MisroutedCS    int64
	DroppedCS      int64
	LatchConflicts int64
	// StolenSlots counts packet-switched traversals that used a reserved
	// but unclaimed circuit slot (time-slot stealing, Section II-D).
	StolenSlots int64

	// probe, when non-nil, receives cycle-level observability events.
	// Every emission site is guarded by a nil check so the disabled path
	// costs one predictable branch and zero allocations; under a parallel
	// executor the handle writes the owning worker's private shard.
	probe *obs.Handle
}

// New creates a router for node id on mesh m (a one-router Arena; the
// network builds whole partitions through an Arena directly). The caller
// wires neighbours with Connect and attaches the NI credit sink with
// AttachLocal.
func New(id topology.NodeID, m topology.Mesh, cfg Config) *Router {
	return NewArena(1, cfg).New(id, m)
}

// SchedState implements sim.ActiveTicker.
func (r *Router) SchedState() *sim.NodeState { return &r.node }

// Quiescent implements sim.ActiveTicker: it reports whether both phases
// would be exact state no-ops, so the executor may skip this router
// until an external event re-arms it. Everything listed here is state
// the pipeline acts on each cycle; neighbor-owned triggers (an upstream
// latch addressed to us, a credit return) arm the node explicitly at
// their write sites instead of being polled here.
func (r *Router) Quiescent() bool {
	// Fast path: a compute tick that did pipeline work or saw buffered
	// flits just recorded it; the full scan below is only worth running
	// once the router looks idle. (False negatives are always safe — the
	// node ticks once more and is probed again.)
	if !r.canSleep || r.lastActive {
		return false
	}
	if len(r.pendingCredits) != 0 || len(r.dltEvents) != 0 {
		return false
	}
	if r.occupied != 0 || r.stateMask[vcRouting]|r.stateMask[vcVCAlloc]|r.stateMask[vcActive] != 0 {
		return false
	}
	for p := range r.in {
		if r.in[p].latch != nil || r.in[p].linkReg != nil {
			return false
		}
	}
	for o := range r.out {
		if r.out[o].latch != nil || r.out[o].stReg != nil || r.csPending[o] != nil {
			return false
		}
	}
	return true
}

// SyncStatics accrues the static leakage of all not-yet-integrated
// cycles before now into the meter, treating them as idle — which they
// were: only skipped (quiescent) cycles accumulate in the gap, and the
// per-cycle static terms are constant across a quiescent stretch
// (activeVCs cannot change without gating, and ActivePoweredEntries
// only changes at a network-wide reset, which syncs first). Called at
// meter observation points (energy report, stats reset, slot resize).
func (r *Router) SyncStatics(now sim.Cycle) {
	gap := int64(now - r.accruedTo)
	if gap <= 0 {
		return
	}
	r.accruedTo = now
	r.meter.Cycles += gap
	r.meter.BufSlotCycles += gap * int64(r.activeVCs*tablei.BufDepth*int(topology.NumPorts))
	if r.tables != nil {
		r.meter.SlotEntryCycles += gap * int64(r.tables.ActivePoweredEntries())
		r.meter.CSCycles += gap
	}
}

// ID returns the router's node id.
func (r *Router) ID() topology.NodeID { return r.id }

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// Connect wires this router's port p to neighbour n (one direction; the
// caller also connects the reverse direction on n).
func (r *Router) Connect(p topology.Port, n *Router) {
	if p == topology.Local {
		panic("router: cannot Connect the local port")
	}
	if r.neighbors[p] != nil {
		panic(fmt.Sprintf("router %d: port %v already connected", r.id, p))
	}
	r.neighbors[p] = n
	r.out[p].connected = true
	r.armOut[p] = n.SchedState()
	r.meter.LinkChannels++
}

// AttachLocal registers the NI credit sink for the local input port.
func (r *Router) AttachLocal(s CreditSink) { r.localSink = s }

// AttachLocalSched registers the co-located NI's scheduling word: the
// consumer of out[Local].latch and of the DLT event queue, armed
// whenever the router hands it work.
func (r *Router) AttachLocalSched(st *sim.NodeState) { r.armOut[topology.Local] = st }

// Tables exposes the hybrid slot tables (nil for packet-switched routers).
func (r *Router) Tables() *hybrid.RouterTables { return r.tables }

// DLTEvent tells the node's NI that a circuit toward Dst began (Add) or
// stopped passing through this router at the given slot/duration, entering
// on input port In — the information hitchhiker-sharing stores in the DLT.
type DLTEvent struct {
	Add  bool
	Dst  topology.NodeID
	Slot int
	Dur  int
	In   topology.Port
}

// DrainDLTEvents hands the accumulated DLT events to the caller (the
// co-located NI, during its transfer phase) and clears the queue.
func (r *Router) DrainDLTEvents(buf []DLTEvent) []DLTEvent {
	buf = append(buf, r.dltEvents...)
	r.dltEvents = r.dltEvents[:0]
	return buf
}

// Meter exposes the router's energy meter.
func (r *Router) Meter() *power.RouterMeter { return &r.meter }

// ActiveVCs returns the current active VC count per port.
func (r *Router) ActiveVCs() int { return r.activeVCs }

// LocalVCLimit tells the NI how many local input VCs it may inject on.
// Safe to read from NI compute ticks: updated only during transfer.
func (r *Router) LocalVCLimit() int { return r.publishedVCLimit }

// StageLocalInject places a flit on the NI-to-router local link during
// the NI's transfer phase; the router processes it next cycle. The local
// link has no extra pipeline register: the NI sits at the router, so a
// flit staged at transfer T arrives at compute T+1 — which is also why
// the NI can consult IncomingCS (the advance signal) at compute T to
// decide hitchhiker contention for arrival cycle T+1.
func (r *Router) StageLocalInject(f *flit.Flit) {
	iu := &r.in[topology.Local]
	if iu.latch != nil {
		r.LatchConflicts++
	}
	iu.latch = f
}

// TakeLocalEject removes and returns the flit on the router-to-NI latch,
// if any. Called by the NI during the transfer phase.
func (r *Router) TakeLocalEject() *flit.Flit {
	f := r.out[topology.Local].latch
	r.out[topology.Local].latch = nil
	return f
}

// IncomingCS reports whether a circuit-switched flit will arrive on input
// port p next cycle — the paper's one-bit advance signal, used for
// time-slot stealing and by NIs checking whether a hitchhiker slot is
// free. Safe to read from compute ticks: linkReg is transfer-written.
func (r *Router) IncomingCS(p topology.Port) bool {
	f := r.in[p].linkReg
	return f != nil && f.CS
}

// ResetCircuits clears all slot tables and the DLT and installs a new
// active slot count and epoch — invoked by the network-wide dynamic
// resizing policy after its drain window.
func (r *Router) ResetCircuits(newActive, epoch int) {
	if r.tables != nil {
		r.tables.Reset(newActive)
	}
	r.dltEvents = r.dltEvents[:0]
	r.Epoch = epoch
}

// Tick advances the router one phase (see sim.Phase for the contract).
func (r *Router) Tick(now sim.Cycle, phase sim.Phase) {
	switch phase {
	case sim.PhaseCompute:
		r.compute(now)
	case sim.PhaseTransfer:
		r.transfer(now)
	}
}

// compute runs the router pipeline for one cycle.
func (r *Router) compute(now sim.Cycle) {
	busy := r.acceptIncoming(now)
	busy = r.switchTraversal(now) || busy
	r.routeCompute(now)
	r.vcAllocate(now)
	busy = r.switchAllocate(now) || busy
	r.updateVCGating(now)
	busy = busy || r.occupied != 0
	r.lastActive = busy
	r.accrueStatics(now, busy)
}

// transfer moves flits across this router's incoming links and returns
// credits upstream.
func (r *Router) transfer(now sim.Cycle) {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		up := r.neighbors[p]
		if up == nil {
			continue // Local handled by the NI via ShiftLocalLink
		}
		iu := &r.in[p]
		if iu.linkReg != nil {
			if iu.latch != nil {
				r.LatchConflicts++
			}
			iu.latch = iu.linkReg
			iu.linkReg = nil
		}
		upPort := p.Opposite()
		if f := up.out[upPort].latch; f != nil {
			iu.linkReg = f
			up.out[upPort].latch = nil
			if r.probe.Wants(obs.KindLinkTraverse) {
				// LT: the flit leaves the upstream router's output port.
				// Each link has exactly one downstream owner, so attributing
				// the event to the sender from here double-counts nothing.
				var cs uint8
				if f.CS {
					cs = 1
				}
				r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindLinkTraverse,
					Node: int32(up.id), A: uint8(upPort), B: cs, Pkt: f.Pkt.ID, Seq: int32(f.Seq)})
			}
		}
	}
	for _, c := range r.pendingCredits {
		if c.port == topology.Local {
			if r.localSink != nil {
				r.localSink.ReturnCredit(c.vc)
			}
			continue
		}
		if up := r.neighbors[c.port]; up != nil {
			up.out[c.port.Opposite()].credits[c.vc]++
		}
	}
	r.pendingCredits = r.pendingCredits[:0]
	r.publishedVCLimit = min(r.activeVCs, r.pendingVCs)
}

// accrueStatics integrates leakage state for this cycle, catching up on
// any cycles active-node scheduling skipped since the last tick (those
// were idle by definition — see SyncStatics for why the static terms
// are constant across the gap).
func (r *Router) accrueStatics(now sim.Cycle, busy bool) {
	r.SyncStatics(now)
	r.accruedTo = now + 1
	r.meter.Cycles++
	if busy {
		r.meter.ActiveCycles++
	}
	r.meter.BufSlotCycles += int64(r.activeVCs * tablei.BufDepth * int(topology.NumPorts))
	if r.tables != nil {
		r.meter.SlotEntryCycles += int64(r.tables.ActivePoweredEntries())
		r.meter.CSCycles++
	}
}

// gateEpoch is the VC-gating adjustment period in cycles.
const gateEpoch = 1000

// updateVCGating runs the Section III-B policy: observe utilisation every
// cycle, adjust at gateEpoch boundaries, commit shrinks only after the
// victim VCs have been evacuated.
func (r *Router) updateVCGating(now sim.Cycle) {
	if r.latGate != nil {
		if now >= r.gateEpochAt+gateEpoch {
			r.gateEpochAt = now
			if target, changed := r.latGate.Step(); changed {
				r.pendingVCs = target
				if target > r.activeVCs {
					r.activeVCs = target
				}
			}
		}
		if r.pendingVCs < r.activeVCs && r.evacuated(r.pendingVCs) {
			r.activeVCs = r.pendingVCs
		}
		return
	}
	if r.gate == nil {
		return
	}
	busy := bits.OnesCount64(r.occupied & r.vcsBelow(r.activeVCs))
	// Observe per-port average utilisation (rounded up so a single busy
	// VC anywhere still registers).
	r.gate.Observe((busy + int(topology.NumPorts) - 1) / int(topology.NumPorts))

	if now >= r.gateEpochAt+gateEpoch {
		r.gateEpochAt = now
		if target, changed := r.gate.Step(); changed {
			r.pendingVCs = target
			if target > r.activeVCs {
				r.activeVCs = target // growing is immediate
			}
		}
	}
	if r.pendingVCs < r.activeVCs && r.evacuated(r.pendingVCs) {
		r.activeVCs = r.pendingVCs
	}
}

// evacuated reports whether all VCs at or above limit are empty and idle
// on every input port, and no upstream packet still holds one.
func (r *Router) evacuated(limit int) bool {
	victims := r.vcsBelow(r.activeVCs) &^ r.vcsBelow(limit)
	return (r.occupied|^r.stateMask[vcIdle])&victims == 0
}

// vcsBelow is the occupancy-mask selection of VCs 0..limit-1 on every
// input port.
func (r *Router) vcsBelow(limit int) uint64 {
	var m uint64
	for p := 0; p < int(topology.NumPorts); p++ {
		m |= (1<<limit - 1) << (p * r.cfg.VCs)
	}
	return m
}

// allocLimit is the number of downstream VCs the VC allocator may hand out
// for output port p.
func (r *Router) allocLimit(p topology.Port) int {
	if p == topology.Local {
		return r.cfg.VCs // ejection pseudo-VCs, never gated
	}
	if n := r.neighbors[p]; n != nil {
		return n.publishedVCLimit
	}
	return r.cfg.VCs
}
