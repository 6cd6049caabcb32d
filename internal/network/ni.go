package network

import (
	"tdmnoc/internal/flit"
	"tdmnoc/internal/hybrid"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/router"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/stats"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// Endpoint is the traffic logic attached to one tile: a synthetic
// generator, or a CPU / accelerator / L2 bank / memory controller model.
// Both methods run inside the NI's compute tick, so they may freely call
// ni.Send without any cross-goroutine coordination.
type Endpoint interface {
	// Tick runs once per cycle and may inject traffic via ni.Send.
	Tick(now sim.Cycle, ni *NI)
	// OnDeliver is invoked when a data packet addressed to this tile has
	// fully arrived.
	OnDeliver(now sim.Cycle, ni *NI, pkt *flit.Packet)
}

// QuiescentEndpoint is an optional Endpoint extension for active-node
// scheduling. An endpoint whose Tick is an exact state no-op while idle
// (no RNG draws, no counters, no time-dependent behaviour) may report
// Quiescent()==true, letting the executor skip its NI's ticks until
// traffic re-arms the node. Endpoints that draw randomness or otherwise
// mutate state every cycle must not implement this (or must return
// false), because skipping their ticks would change results. NIs whose
// endpoint does not implement the interface are simply never skipped.
type QuiescentEndpoint interface {
	Quiescent() bool
}

// SendOptions qualifies one message handed to NI.Send.
type SendOptions struct {
	// Class labels the traffic (CPU / GPU / other).
	Class flit.TrafficClass
	// AllowCS permits the circuit-switched path for this message. The
	// heterogeneous evaluation sets it only for GPU traffic (Section V-A2).
	AllowCS bool
	// Slack is the extra latency in cycles, relative to the estimated
	// packet-switched latency, the message can tolerate in exchange for
	// riding a circuit. Negative means defaultSlack. For GPU
	// messages the hetero model derives it from available warps.
	Slack int
	// ReplyFlits, if non-zero, asks the receiving endpoint to respond
	// with a packet of that many flits (request/reply protocols).
	ReplyFlits int
	// ReqID correlates a reply with its request.
	ReqID uint64
	// SizeFlits overrides the packet-switched packet length (0 = the
	// network's data packet size). The heterogeneous model uses 1-flit
	// read requests with full-size data replies.
	SizeFlits int
}

type rxFlit struct {
	f  *flit.Flit
	at sim.Cycle
}

// NI is the per-tile network interface: it owns injection (including the
// switching decision and slot-aligned circuit-switched streaming),
// ejection and reassembly, the source connection registry, the DLT, and
// the setup/teardown client side of the path configuration protocol
// (the circuit side's methods are in circuit.go).
type NI struct {
	id  topology.NodeID
	net *Network
	r   *router.Router
	rng *sim.RNG
	ep  Endpoint
	// epQ is ep's QuiescentEndpoint view, cached at construction (nil
	// when the endpoint cannot be skipped). canSleep is false when the
	// endpoint must tick every cycle, in which case the NI opts out of
	// scheduling entirely (SchedState returns nil) — paying per-tick
	// scheduling overhead on a node that can never skip buys nothing.
	epQ      QuiescentEndpoint
	canSleep bool

	// node is this NI's scheduling word; rnode is the co-located
	// router's, armed when the NI stages an injection onto the local
	// link during its transfer phase.
	node  sim.NodeState
	rnode *sim.NodeState

	Stats stats.Collector

	// pool recycles packet objects; it is shared with the other NIs of
	// this executor partition (nil = recycling disabled; all of its
	// methods are nil-safe). See flit.Pool for the ownership rules.
	pool *flit.Pool

	// Packet-switched injection.
	psQ     pktQueue
	cur     []*flit.Flit
	curIdx  int
	curVC   int
	credits []int
	vcBusy  []bool
	staged  *flit.Flit

	// Circuit-switched injection.
	circuits    map[topology.NodeID]*circuit
	circuitList []*circuit
	// circuitFree recycles torn-down circuit records (and their blocks
	// capacity): steady-state idle-teardown/re-setup churn must not
	// allocate, for the same reason the packet pools exist.
	circuitFree []*circuit
	csJobs      []csJob
	csCur       []*flit.Flit
	csIdx       int
	pending     map[topology.NodeID]setupState
	hitchQueued map[topology.NodeID]int // queued hitchhike jobs per circuit destination
	backoff     map[topology.NodeID]sim.Cycle
	freq        map[topology.NodeID]int
	freqResetAt sim.Cycle
	// pins is the circuit-pinning policy state: nil means no policy is
	// active (every flow rides the frequency filter); non-nil means
	// pinned destinations set up eagerly on first send and — when
	// Config.RestrictSetups — everything else never sets up. Filled by
	// New from Config.PinnedFlows.
	pins        map[topology.NodeID]bool
	dlt         *hybrid.DLT
	dltAccesses int64
	dltEventBuf []router.DLTEvent

	// Ejection.
	rx      []rxFlit
	rxCount map[uint64]int

	// Manager mailbox: setup outcomes observed this cycle, drained by the
	// network's resize manager between cycles. Empty, and never
	// appended to, when slot tables are static (no resizer reads them).
	setupResults []bool

	// Conservation counters (not gated by warm-up).
	TotalSent    int64
	TotalEjected int64

	// probe, when non-nil, receives observability events (installed by
	// Network.AttachProbe; bound to the owning worker's shard).
	probe *obs.Handle

	seq uint64
}

// niArena block-allocates the NIs of one executor partition and their
// per-VC injection state (credit counters, VC-busy bitmaps) out of
// contiguous slabs, mirroring router.Arena: one partition's NI values
// live adjacent to each other, and separate per-partition arenas keep
// two workers' hot state off shared cache lines. Map-backed protocol
// state (circuits, pending setups, frequency counters) stays per-NI —
// maps cannot be carved from a slab — but those are touched on setup
// events, not every cycle.
type niArena struct {
	nis     []NI
	credits []int
	vcBusy  []bool
	vcs     int
	used    int
	// pool is the partition's packet pool, shared by its NIs (nil =
	// recycling disabled).
	pool *flit.Pool
}

func newNIArena(count, vcs int, pool *flit.Pool) *niArena {
	return &niArena{
		nis:     make([]NI, count),
		credits: make([]int, count*vcs),
		vcBusy:  make([]bool, count*vcs),
		vcs:     vcs,
		pool:    pool,
	}
}

// bytes returns the arena's slab size.
func (a *niArena) bytes() int {
	return sim.SlabBytes(a.nis) + sim.SlabBytes(a.credits) + sim.SlabBytes(a.vcBusy)
}

// newNI carves the next NI from the arena and initialises it. The
// returned pointer is stable for the arena's lifetime.
func (a *niArena) newNI(id topology.NodeID, net *Network, r *router.Router, rng *sim.RNG, ep Endpoint) *NI {
	ni := &a.nis[a.used]
	off := a.used * a.vcs
	a.used++
	ni.id, ni.net, ni.r, ni.rng, ni.ep = id, net, r, rng, ep
	ni.credits = a.credits[off : off+a.vcs : off+a.vcs]
	ni.vcBusy = a.vcBusy[off : off+a.vcs : off+a.vcs]
	ni.circuits = make(map[topology.NodeID]*circuit)
	ni.pending = make(map[topology.NodeID]setupState)
	ni.hitchQueued = make(map[topology.NodeID]int)
	ni.backoff = make(map[topology.NodeID]sim.Cycle)
	ni.freq = make(map[topology.NodeID]int)
	ni.rxCount = make(map[uint64]int)
	ni.pool = a.pool
	for v := range ni.credits {
		ni.credits[v] = tablei.BufDepth
	}
	if net.cfg.PathSharing {
		ni.dlt = hybrid.NewDLT(tablei.DLTEntries)
	}
	ni.epQ, _ = ep.(QuiescentEndpoint)
	ni.canSleep = ep == nil || ni.epQ != nil
	ni.rnode = r.SchedState()
	r.AttachLocal(ni)
	r.AttachLocalSched(ni.SchedState())
	return ni
}

// SchedState implements sim.ActiveTicker. An NI whose endpoint must tick
// every cycle returns nil, opting out of scheduling: the executor then
// ticks it unconditionally with zero scheduling overhead.
func (ni *NI) SchedState() *sim.NodeState {
	if !ni.canSleep {
		return nil
	}
	return &ni.node
}

// Quiescent implements sim.ActiveTicker: both NI phases are exact state
// no-ops when nothing is staged, queued, streaming or awaiting
// reassembly — and the endpoint itself is skippable. External events
// that end the quiescence arm the node at their source: the router arms
// it when writing the local ejection latch or a DLT event, and Send
// wakes it directly.
func (ni *NI) Quiescent() bool {
	if ni.ep != nil && (ni.epQ == nil || !ni.epQ.Quiescent()) {
		return false
	}
	if ni.staged != nil || ni.cur != nil || ni.csCur != nil {
		return false
	}
	return ni.psQ.len() == 0 && len(ni.csJobs) == 0 &&
		len(ni.rx) == 0 && len(ni.dltEventBuf) == 0
}

// ID returns the tile this NI serves.
func (ni *NI) ID() topology.NodeID { return ni.id }

// Endpoint returns the attached traffic endpoint.
func (ni *NI) Endpoint() Endpoint { return ni.ep }

// RNG exposes the NI's private random stream for its endpoint.
func (ni *NI) RNG() *sim.RNG { return ni.rng }

// Mesh returns the network topology.
func (ni *NI) Mesh() topology.Mesh { return ni.net.mesh }

// Now returns the network's current cycle.
func (ni *NI) Now() sim.Cycle { return ni.net.clock.Now() }

// ReturnCredit implements router.CreditSink; called by the router's
// transfer phase when a local-input flit is drained.
func (ni *NI) ReturnCredit(vc int) { ni.credits[vc]++ }

// QueuedPackets reports the injection backlog (both PS and CS).
func (ni *NI) QueuedPackets() int {
	n := ni.psQ.len() + len(ni.csJobs)
	if ni.cur != nil {
		n++
	}
	if ni.csCur != nil {
		n++
	}
	return n
}

// Circuits returns the number of registered circuits at this source.
func (ni *NI) Circuits() int { return len(ni.circuits) }

// Tick implements sim.Ticker.
func (ni *NI) Tick(now sim.Cycle, phase sim.Phase) {
	if phase == sim.PhaseTransfer {
		if f := ni.r.TakeLocalEject(); f != nil {
			if ni.probe.Wants(obs.KindLinkTraverse) {
				// The ejection link is the router's Local output; counting it
				// here keeps the per-link heatmap's local cells meaningful.
				var cs uint8
				if f.CS {
					cs = 1
				}
				ni.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindLinkTraverse,
					Node: int32(ni.id), A: uint8(topology.Local), B: cs, Pkt: f.Pkt.ID, Seq: int32(f.Seq)})
			}
			ni.rx = append(ni.rx, rxFlit{f: f, at: now})
		}
		if ni.staged != nil {
			ni.r.StageLocalInject(ni.staged)
			ni.staged = nil
			// The router must run next cycle's compute to accept the
			// staged flit; it may be asleep.
			ni.rnode.ArmNext(now, sim.PhaseTransfer)
		}
		if ni.dlt != nil {
			ni.dltEventBuf = ni.r.DrainDLTEvents(ni.dltEventBuf[:0])
		}
		return
	}
	ni.applyDLTEvents(now)
	ni.processRX(now)
	if ni.ep != nil {
		ni.ep.Tick(now, ni)
	}
	ni.chooseStaged(now)
}

// processRX reassembles received flits into packets and dispatches them.
func (ni *NI) processRX(now sim.Cycle) {
	for _, rf := range ni.rx {
		pkt := rf.f.Pkt
		cnt := ni.rxCount[pkt.ID] + 1
		if cnt < pkt.Flits {
			ni.rxCount[pkt.ID] = cnt
			continue
		}
		delete(ni.rxCount, pkt.ID)
		// Tail consumption is the only point where a packet is provably
		// unreachable by the rest of the simulation, and therefore the
		// only safe recycle point: the source stream finished before the
		// tail could arrive, every earlier flit of the packet was ejected
		// before it (in-order, single path), and the rx bookkeeping for
		// it was just cleared. Hop-off packets are not dead yet — they
		// re-enter the injection queue below.
		switch pkt.Kind {
		case flit.DataPacket:
			if pkt.HopOff && pkt.HopOffDst != ni.id {
				ni.revertToPS(pkt)
				continue
			}
			pkt.EjectedAt = int64(rf.at)
			ni.TotalEjected++
			if ni.probe.Wants(obs.KindEject) {
				ni.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindEject,
					Node: int32(ni.id), Pkt: pkt.ID, Val: pkt.EjectedAt - pkt.InjectedAt})
			}
			ni.Stats.RecordEjection(pkt)
			if ni.ep != nil {
				ni.ep.OnDeliver(now, ni, pkt)
			}
			ni.pool.Put(pkt)
		case flit.AckMsg:
			ni.Stats.ConfigEjected++
			ni.handleAck(now, pkt)
			ni.pool.Put(pkt)
		default: // teardown (or a stray setup) consumed here
			ni.Stats.ConfigEjected++
			ni.pool.Put(pkt)
		}
	}
	ni.rx = ni.rx[:0]
}

// Send queues one message for transmission, making the paper's switching
// decision: ride an own circuit, hitchhike a passing circuit, hop off near
// the destination via vicinity sharing, or fall back to packet switching.
func (ni *NI) Send(now sim.Cycle, dst topology.NodeID, opt SendOptions) *flit.Packet {
	// Send may be called from outside the tick loop (tests and protocol
	// drivers inject between Run calls); a sleeping NI must wake to
	// carry the message. Calls from the NI's own endpoint tick are
	// covered too: the wake is monotone and the post-tick quiescence
	// probe re-checks the queues it fills.
	if ni.canSleep {
		ni.node.Wake(ni.net.clock.Now())
	}
	cfg := &ni.net.cfg
	size := cfg.PSDataFlits
	if opt.SizeFlits > 0 {
		size = opt.SizeFlits
	}
	if dst == ni.id {
		// Loopback: deliver immediately without touching the network.
		// Deliberately not pool-allocated — the caller keeps the returned
		// pointer to annotate it (e.g. SlackHint), so the packet must not
		// be handed out again by a reentrant Send from OnDeliver.
		pkt := &flit.Packet{
			ID: ni.nextID(), Kind: flit.DataPacket, Src: ni.id, Dst: dst,
			Class: opt.Class, Switching: flit.PacketSwitched,
			Flits: size, PSFlits: size,
			CreatedAt: int64(now), InjectedAt: int64(now), EjectedAt: int64(now),
			ReplyFlits: opt.ReplyFlits, ReqID: opt.ReqID,
		}
		if ni.ep != nil {
			ni.ep.OnDeliver(now, ni, pkt)
		}
		return pkt
	}
	pkt := ni.newPacket(flit.DataPacket, dst, opt.Class, size)
	pkt.PSFlits = size
	pkt.CreatedAt = int64(now)
	pkt.ReplyFlits = opt.ReplyFlits
	pkt.ReqID = opt.ReqID
	ni.TotalSent++
	if job, ok := ni.decide(now, pkt, opt); ok {
		ni.csJobs = append(ni.csJobs, job)
	} else {
		ni.psQ.pushBack(pkt)
	}
	if opt.AllowCS {
		ni.noteFrequency(now, dst)
	}
	return pkt
}

// chooseStaged picks the flit to put on the local link this cycle:
// circuit-switched streams are slot-aligned and take priority; otherwise
// the packet-switched stream continues or a new packet starts.
func (ni *NI) chooseStaged(now sim.Cycle) {
	// 1. Continue an in-progress circuit-switched stream (consecutive
	// slots, no credits needed).
	if ni.csCur != nil {
		ni.stageCS(now)
		return
	}
	// 2. Start a circuit-switched job whose slot aligns at arrival.
	if ni.net.cfg.Mode == HybridTDM && len(ni.csJobs) > 0 {
		if ni.tryStartCS(now) {
			return
		}
	}
	// 3. Continue the packet-switched stream.
	if ni.cur != nil {
		ni.stagePS(now)
		return
	}
	// 4. Start a new packet-switched packet.
	ni.tryStartPS(now)
}

func (ni *NI) stageCS(now sim.Cycle) {
	f := ni.csCur[ni.csIdx]
	if ni.csIdx == 0 {
		ni.noteInjected(now, f.Pkt)
	}
	ni.staged = f
	ni.csIdx++
	if ni.csIdx >= len(ni.csCur) {
		ni.csCur = nil
	}
}

func (ni *NI) stagePS(now sim.Cycle) {
	if ni.credits[ni.curVC] <= 0 {
		return // wait for credits
	}
	f := ni.cur[ni.curIdx]
	ni.credits[ni.curVC]--
	ni.staged = f
	ni.curIdx++
	if f.IsTail() {
		ni.vcBusy[ni.curVC] = false
		ni.cur = nil
	}
}

func (ni *NI) tryStartPS(now sim.Cycle) {
	if ni.psQ.len() == 0 {
		return
	}
	limit := ni.r.LocalVCLimit()
	best, bestCred := -1, 0
	for v := 0; v < limit; v++ {
		if !ni.vcBusy[v] && ni.credits[v] > bestCred {
			best, bestCred = v, ni.credits[v]
		}
	}
	if best < 0 {
		return
	}
	pkt := ni.psQ.popFront()
	fls := pkt.ExplodeInto()
	for _, f := range fls {
		f.VC = best
	}
	ni.cur = fls
	ni.curIdx = 0
	ni.curVC = best
	ni.vcBusy[best] = true
	ni.noteInjected(now, pkt)
	ni.stagePS(now)
}

// noteInjected stamps a packet's injection cycle when its head flit is
// first staged; a re-injected hop-off packet keeps its first stamp. Data
// packets are counted and traced here, both switching modes alike.
func (ni *NI) noteInjected(now sim.Cycle, pkt *flit.Packet) {
	if pkt.InjectedAt != 0 {
		return
	}
	pkt.InjectedAt = int64(now + 1)
	if pkt.Kind != flit.DataPacket {
		return
	}
	ni.Stats.RecordInjection(pkt)
	if ni.probe.Wants(obs.KindInject) {
		// Slot carries the flow's true destination — the hop-off
		// endpoint for vicinity-shared packets, not the circuit's.
		var cs uint8
		dst := pkt.Dst
		if pkt.Switching == flit.CircuitSwitched {
			cs = 1
		}
		if pkt.HopOff {
			dst = pkt.HopOffDst
		}
		ni.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindInject,
			Node: int32(ni.id), B: cs, Pkt: pkt.ID, Val: int64(pkt.Flits),
			Slot: int32(dst)})
	}
}

// newPacket takes a packet from the pool (zeroed: packet-switched, no
// payload) and addresses it from this NI under a fresh ID.
func (ni *NI) newPacket(kind flit.Kind, dst topology.NodeID, class flit.TrafficClass, flits int) *flit.Packet {
	pkt := ni.pool.Get()
	pkt.ID = ni.nextID()
	pkt.Kind = kind
	pkt.Src = ni.id
	pkt.Dst = dst
	pkt.Class = class
	pkt.Flits = flits
	return pkt
}

func (ni *NI) nextID() uint64 {
	ni.seq++
	return uint64(ni.id)<<40 | ni.seq
}
