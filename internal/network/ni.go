package network

import (
	"tdmnoc/internal/flit"
	"tdmnoc/internal/hybrid"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/router"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/stats"
	"tdmnoc/internal/topology"
)

// The NI protocol's fixed parameters (Table I and Section II).
const (
	// csDataFlits is the circuit-switched data packet length: a cache
	// line in 4 flits (a vicinity-shared packet adds a header flit).
	csDataFlits = 4
	// freqWindow is the frequency filter's window: SetupThreshold
	// messages to one destination within it trigger a circuit setup. A
	// setup that gives up backs off for 4 windows, a full registry for 1.
	freqWindow = 2048
	// maxBlocksPerCircuit bounds how many consecutive-slot blocks one
	// connection may hold; extra blocks scale a hot connection's
	// bandwidth in units of Duration/ActiveSlots (Section II-C's
	// time-division granularity).
	maxBlocksPerCircuit = 4
	// defaultSlack is the extra latency (cycles, versus the estimated
	// packet-switched latency) a message tolerates to ride a circuit
	// when its sender gave a negative SendOptions.Slack.
	defaultSlack = 64
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

// circuit is a source-registered circuit-switched connection.
// circuitBlock is one consecutive-slot reservation of a connection. A
// connection may hold several blocks: each block carries one message per
// slot-table frame, so extra blocks scale a hot connection's bandwidth
// (the time-division granularity knob of Section II-C).
type circuitBlock struct {
	baseSlot int
	pending  int // queued CS packets aligned to this block
}

type circuit struct {
	dst      topology.NodeID
	blocks   []circuitBlock
	dur      int
	epoch    int
	hops     int
	lastUsed sim.Cycle
	// overflow counts messages that wanted this circuit but could not
	// afford the slot wait; persistent overflow requests an extra block.
	overflow int
}

// pendingJobs sums queued packets across blocks.
func (c *circuit) pendingJobs() int {
	n := 0
	for i := range c.blocks {
		n += c.blocks[i].pending
	}
	return n
}

// bestBlock returns the index of the block with the smallest estimated
// wait, along with that wait.
func (c *circuit) bestBlock(ni *NI, now sim.Cycle, active int) (int, int) {
	best, bw := -1, 0
	for i := range c.blocks {
		w := ni.slotWait(now, c.blocks[i].baseSlot, active) + c.blocks[i].pending*active
		if best < 0 || w < bw {
			best, bw = i, w
		}
	}
	return best, bw
}

// blockBySlot finds the block with the given base slot.
func (c *circuit) blockBySlot(slot int) *circuitBlock {
	for i := range c.blocks {
		if c.blocks[i].baseSlot == slot {
			return &c.blocks[i]
		}
	}
	return nil
}

// setupState tracks one in-flight path setup. It is stored by value in
// ni.pending: setups are frequent enough under all-to-all traffic that
// a per-attempt pointer allocation would dominate the steady-state
// allocation profile.
type setupState struct {
	dst      topology.NodeID
	attempts int
	// sentAt is the cycle the latest setup message was queued, so the ack
	// handler can report the round-trip latency to an attached probe.
	sentAt sim.Cycle
}

// setupPending reports whether a path setup toward dst is in flight.
func (ni *NI) setupPending(dst topology.NodeID) bool {
	_, ok := ni.pending[dst]
	return ok
}

// csJob is a circuit-switched packet waiting for its time slot.
type csJob struct {
	pkt        *flit.Packet
	slot       int // head-flit arrival phase at this node's router
	shareIn    topology.Port
	hitchhike  bool
	circuitDst topology.NodeID
}

type rxFlit struct {
	f  *flit.Flit
	at sim.Cycle
}

// NI is the per-tile network interface: it owns injection (including the
// switching decision and slot-aligned circuit-switched streaming),
// ejection and reassembly, the source connection registry, the DLT, and
// the setup/teardown client side of the path configuration protocol.
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
	// Config.RestrictSetups — everything else never sets up. Installed
	// from Config.PinnedFlows at construction or replaced between
	// cycles by the online controller.
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
		ni.credits[v] = net.cfg.Router.BufDepth
	}
	if net.cfg.Router.Sharing {
		ni.dlt = hybrid.NewDLT(net.cfg.Router.DLTEntries)
	}
	if len(net.cfg.PinnedFlows) > 0 {
		// Every NI gets a (possibly empty) pin map so RestrictSetups
		// applies uniformly: an empty non-nil map means "policy active,
		// nothing pinned here".
		ni.pins = make(map[topology.NodeID]bool)
		for _, p := range net.cfg.PinnedFlows {
			if topology.NodeID(p.Src) == id {
				ni.pins[topology.NodeID(p.Dst)] = true
			}
		}
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

// PSDataFlits is the network's packet-switched data packet length.
func (ni *NI) PSDataFlits() int { return ni.net.cfg.PSDataFlits }

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

func (ni *NI) applyDLTEvents(now sim.Cycle) {
	if ni.dlt == nil {
		return
	}
	for _, e := range ni.dltEventBuf {
		if e.Add {
			ni.dlt.Update(e.Dst, e.Slot, e.Dur, e.In)
			if ni.probe.Wants(obs.KindDLTAdd) {
				ni.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindDLTAdd,
					Node: int32(ni.id), A: uint8(e.In), Slot: int32(e.Slot), Val: int64(e.Dur)})
			}
		} else {
			ni.dlt.Remove(e.Dst)
			if ni.probe.Wants(obs.KindDLTRemove) {
				ni.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindDLTRemove,
					Node: int32(ni.id)})
			}
		}
	}
	ni.dltEventBuf = ni.dltEventBuf[:0]
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
				ni.reinjectHopOff(pkt)
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

// reinjectHopOff continues a vicinity-shared packet from the circuit's
// endpoint to its true destination through the packet-switched network
// (Section III-A2).
func (ni *NI) reinjectHopOff(pkt *flit.Packet) {
	// Src is deliberately preserved: replies and statistics must still
	// refer to the original sender, not the hop-off tile.
	pkt.Kind = flit.DataPacket
	pkt.Dst = pkt.HopOffDst
	pkt.HopOff = false
	pkt.Switching = flit.PacketSwitched
	pkt.Flits = pkt.PSFlits
	ni.psQ.pushBack(pkt)
}

// recordSetup posts one setup outcome to the resize manager's mailbox.
// With static slot tables there is no resizer to read it, so nothing is
// recorded and the manager has nothing to sweep.
func (ni *NI) recordSetup(ok bool) {
	if ni.net.cfg.DynamicSlots {
		ni.setupResults = append(ni.setupResults, ok)
	}
}

// handleAck processes a setup acknowledgement (Section II-B).
func (ni *NI) handleAck(now sim.Cycle, pkt *flit.Packet) {
	cfg := &ni.net.cfg
	dst := pkt.Config.CircuitDst
	if ni.probe.Wants(obs.KindSetupLatency) {
		// One ack = one observed setup round trip. Measured against the
		// pending record (if the setup is still wanted) so retries each
		// report their own latency.
		if st, ok := ni.pending[dst]; ok {
			var okb uint8
			if pkt.Config.OK {
				okb = 1
			}
			// Slot carries the circuit destination so flow tracking can
			// attribute the round trip (Event must not grow a Dst field).
			ni.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindSetupLatency,
				Node: int32(ni.id), B: okb, Pkt: pkt.ID, Val: int64(now - st.sentAt),
				Slot: int32(dst)})
		}
	}
	stale := pkt.Config.Epoch != ni.net.epoch
	if stale {
		// Reservations from an older sizing epoch are (or will be) wiped
		// by the network-wide reset; sending a teardown here could
		// release slots a new-epoch circuit now owns.
		delete(ni.pending, dst)
		return
	}
	if pkt.Config.OK {
		if existing := ni.circuits[dst]; existing != nil {
			// An additional slot block for an oversubscribed connection.
			if !ni.setupPending(dst) || len(existing.blocks) >= maxBlocksPerCircuit {
				ni.sendTeardown(dst, pkt.Config.BaseSlot, pkt.Config.Duration, pkt.Config.Epoch)
				delete(ni.pending, dst)
				return
			}
			delete(ni.pending, dst)
			existing.blocks = append(existing.blocks, circuitBlock{baseSlot: pkt.Config.BaseSlot})
			ni.Stats.SetupsOK++
			ni.recordSetup(true)
			return
		}
		if !ni.setupPending(dst) || len(ni.circuits) >= cfg.MaxCircuits {
			// Unwanted reservation: release the whole path.
			ni.sendTeardown(dst, pkt.Config.BaseSlot, pkt.Config.Duration, pkt.Config.Epoch)
			delete(ni.pending, dst)
			return
		}
		delete(ni.pending, dst)
		c := ni.newCircuit()
		c.dst = dst
		c.blocks = append(c.blocks, circuitBlock{baseSlot: pkt.Config.BaseSlot})
		c.dur = pkt.Config.Duration
		c.epoch = pkt.Config.Epoch
		c.hops = ni.net.mesh.HopDistance(ni.id, dst)
		c.lastUsed = now
		ni.circuits[dst] = c
		ni.circuitList = append(ni.circuitList, c)
		ni.Stats.SetupsOK++
		ni.Stats.CircuitsRegistered++
		ni.recordSetup(true)
		return
	}
	// Failure: release the reserved prefix, then maybe retry with a
	// different slot id.
	ni.Stats.SetupsFailed++
	ni.recordSetup(false)
	if pkt.Config.FailHop > 0 {
		ni.sendTeardownLimited(dst, pkt.Config.BaseSlot, pkt.Config.Duration, pkt.Config.Epoch, pkt.Config.FailHop)
	}
	st, ok := ni.pending[dst]
	if !ok {
		return
	}
	st.attempts++
	if !ni.net.csFrozen && st.attempts < cfg.RetrySetups {
		ni.pending[dst] = st
		ni.sendSetup(now, dst)
		return
	}
	// Give up for a while: without a backoff the frequency counter would
	// immediately re-trigger the setup and configuration traffic would
	// swamp the network (the paper keeps it below 1 % of flits).
	ni.backoff[dst] = now + 4*freqWindow
	delete(ni.pending, dst)
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
	pkt := ni.pool.Get()
	pkt.ID = ni.nextID()
	pkt.Kind = flit.DataPacket
	pkt.Src = ni.id
	pkt.Dst = dst
	pkt.Class = opt.Class
	pkt.Switching = flit.PacketSwitched
	pkt.Flits = size
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

// decide implements Sections II-A and V-A2: a message rides the
// circuit-switched path only when the estimated circuit latency (slot
// wait + two cycles per hop) does not exceed the estimated
// packet-switched latency plus the message's slack.
func (ni *NI) decide(now sim.Cycle, pkt *flit.Packet, opt SendOptions) (csJob, bool) {
	cfg := &ni.net.cfg
	if !cfg.Router.Hybrid || !opt.AllowCS || ni.net.csFrozen {
		return csJob{}, false
	}
	slack := opt.Slack
	if slack < 0 {
		slack = defaultSlack
	}
	A := ni.net.ActiveSlots()
	hops := ni.net.mesh.HopDistance(ni.id, pkt.Dst)
	// The packet-switched estimate deliberately ignores the local queue
	// depth: at saturation a growing backlog would otherwise talk every
	// message into waiting for scarce circuit slots, collapsing accepted
	// throughput to the circuits' aggregate slot bandwidth.
	psLat := 5*(hops+1) + pkt.PSFlits - 1
	// Section V-A2: deliver circuit-switched when the message's slack
	// covers the whole circuit-switched latency; messages with little
	// slack still ride when the circuit is simply faster than packet
	// switching.
	budget := max(psLat, slack)

	csSize := min(csDataFlits, pkt.PSFlits)

	// 1. Own circuit, exact destination: pick the soonest-aligning block.
	if c := ni.circuits[pkt.Dst]; c != nil {
		bi, wait := c.bestBlock(ni, now, A)
		if bi >= 0 && wait+2*(hops+1)+csSize-1 <= budget {
			pkt.Switching = flit.CircuitSwitched
			pkt.Flits = csSize
			c.blocks[bi].pending++
			c.lastUsed = now
			ni.Stats.OwnCircuitSends++
			return csJob{pkt: pkt, slot: c.blocks[bi].baseSlot, circuitDst: c.dst}, true
		}
		// The connection exists but cannot carry this message in time:
		// persistent overflow asks for another slot block.
		c.overflow++
		if c.overflow >= cfg.OverflowForExtraBlock && len(c.blocks) < maxBlocksPerCircuit {
			c.overflow = 0
			ni.requestExtraBlock(now, pkt.Dst)
		}
		return csJob{}, false
	}
	if !cfg.Router.Sharing || ni.dlt == nil {
		return csJob{}, false
	}
	// Sharing rides detour through hop-off re-injection and composite
	// queueing that the estimates below cannot see, so they are only
	// taken when they beat the packet-switched path outright rather than
	// on slack subsidy (the paper reports sharing has negligible
	// performance impact precisely because contention falls back to
	// packet switching).
	shareBudget := psLat
	// 2. Hitchhike a circuit passing through this node toward the same
	// destination.
	if e, ok := ni.dlt.Find(pkt.Dst); ok {
		ni.dltAccesses++
		// Hitchhikers of one circuit share its frame slot: queued jobs
		// ahead of this one each consume a whole frame.
		wait := ni.slotWait(now, e.Slot, A) + ni.hitchQueued[e.Dest]*A
		if wait+2*(hops+1)+csSize-1 <= budget {
			pkt.Switching = flit.CircuitSwitched
			pkt.Flits = csSize
			ni.hitchQueued[e.Dest]++
			return csJob{pkt: pkt, slot: e.Slot, shareIn: e.In, hitchhike: true, circuitDst: e.Dest}, true
		}
		return csJob{}, false
	}
	// 3. Vicinity: an own circuit ending next to the destination.
	for _, c := range ni.circuitList {
		if c == nil || !ni.net.mesh.Adjacent(c.dst, pkt.Dst) {
			continue
		}
		bi, wait := c.bestBlock(ni, now, A)
		if bi < 0 {
			continue
		}
		// Ride to c.dst (header flit included), then one PS hop.
		csLat := wait + 2*(c.hops+1) + csSize + 5*2 + pkt.PSFlits - 1
		if csLat <= shareBudget {
			pkt.Switching = flit.CircuitSwitched
			pkt.Flits = csSize + 1 // vicinity header flit
			pkt.HopOff = true
			pkt.HopOffDst = pkt.Dst
			pkt.Dst = c.dst
			c.blocks[bi].pending++
			c.lastUsed = now
			ni.Stats.VicinityRides++
			return csJob{pkt: pkt, slot: c.blocks[bi].baseSlot, circuitDst: c.dst}, true
		}
	}
	// 4. Hitchhike + vicinity: a passing circuit ending next to the
	// destination.
	if e, ok := ni.dlt.FindAdjacent(ni.net.mesh, pkt.Dst); ok {
		ni.dltAccesses++
		eHops := ni.net.mesh.HopDistance(ni.id, e.Dest)
		wait := ni.slotWait(now, e.Slot, A) + ni.hitchQueued[e.Dest]*A
		csLat := wait + 2*(eHops+1) + csSize + 5*2 + pkt.PSFlits - 1
		if csLat <= shareBudget && e.Dur >= csSize+1 {
			pkt.Switching = flit.CircuitSwitched
			pkt.Flits = csSize + 1
			pkt.HopOff = true
			pkt.HopOffDst = pkt.Dst
			pkt.Dst = e.Dest
			ni.Stats.VicinityRides++
			ni.hitchQueued[e.Dest]++
			return csJob{pkt: pkt, slot: e.Slot, shareIn: e.In, hitchhike: true, circuitDst: e.Dest}, true
		}
	}
	return csJob{}, false
}

// slotWait is the number of cycles until a head flit injected now can
// arrive at the router aligned with slot.
func (ni *NI) slotWait(now sim.Cycle, slot, active int) int {
	phase := int(int64(now+1) % int64(active))
	return (slot - phase + active) % active
}

// noteFrequency counts messages per destination inside a sliding window
// and triggers a path setup for frequently used pairs (Section II-A: "a
// circuit-switched path is only reserved for source-destination pairs
// that communicate frequently").
func (ni *NI) noteFrequency(now sim.Cycle, dst topology.NodeID) {
	cfg := &ni.net.cfg
	if ni.pins != nil {
		// Circuit pinning overrides the frequency filter: pinned flows
		// set up on first use (the profile already proved them
		// persistent), and under RestrictSetups nothing else may claim
		// slot-table space.
		if ni.pins[dst] {
			ni.maybeSetup(now, dst)
			return
		}
		if cfg.RestrictSetups {
			return
		}
	}
	if now >= ni.freqResetAt {
		clear(ni.freq)
		ni.freqResetAt = now + freqWindow
	}
	ni.freq[dst]++
	if ni.freq[dst] < cfg.SetupThreshold {
		return
	}
	ni.maybeSetup(now, dst)
}

// maybeSetup starts a path setup toward dst if none exists, tearing down
// an idle circuit first when the registry is full.
func (ni *NI) maybeSetup(now sim.Cycle, dst topology.NodeID) {
	cfg := &ni.net.cfg
	if !cfg.Router.Hybrid || ni.net.csFrozen {
		return
	}
	if ni.circuits[dst] != nil || ni.setupPending(dst) {
		return
	}
	if until, ok := ni.backoff[dst]; ok {
		if now < until {
			return
		}
		delete(ni.backoff, dst)
	}
	if len(ni.circuits) >= cfg.MaxCircuits {
		if !ni.teardownIdlest(now) {
			ni.backoff[dst] = now + freqWindow
			return
		}
	}
	ni.pending[dst] = setupState{dst: dst}
	ni.sendSetup(now, dst)
}

// teardownIdlest destroys the least recently used idle circuit, returning
// false when every circuit is busy or too recently used.
func (ni *NI) teardownIdlest(now sim.Cycle) bool {
	cfg := &ni.net.cfg
	var victim *circuit
	vi := -1
	for i, c := range ni.circuitList {
		if c == nil || c.pendingJobs() > 0 {
			continue
		}
		if int64(now)-int64(c.lastUsed) < cfg.IdleTeardown {
			continue
		}
		if victim == nil || c.lastUsed < victim.lastUsed {
			victim, vi = c, i
		}
	}
	if victim == nil {
		return false
	}
	ni.removeCircuit(vi)
	for _, b := range victim.blocks {
		ni.sendTeardown(victim.dst, b.baseSlot, victim.dur, victim.epoch)
	}
	ni.circuitFree = append(ni.circuitFree, victim)
	ni.Stats.CircuitsTorndown++
	return true
}

// requestExtraBlock starts a setup for an additional slot block of an
// existing connection.
func (ni *NI) requestExtraBlock(now sim.Cycle, dst topology.NodeID) {
	cfg := &ni.net.cfg
	if !cfg.Router.Hybrid || ni.net.csFrozen || ni.setupPending(dst) {
		return
	}
	if until, ok := ni.backoff[dst]; ok && now < until {
		return
	}
	ni.pending[dst] = setupState{dst: dst}
	ni.sendSetup(now, dst)
}

func (ni *NI) removeCircuit(listIdx int) {
	c := ni.circuitList[listIdx]
	delete(ni.circuits, c.dst)
	ni.circuitList = append(ni.circuitList[:listIdx], ni.circuitList[listIdx+1:]...)
}

// newCircuit returns a reset circuit record, recycled from circuitFree
// when possible so the record and its blocks backing array are reused.
func (ni *NI) newCircuit() *circuit {
	if n := len(ni.circuitFree); n > 0 {
		c := ni.circuitFree[n-1]
		ni.circuitFree[n-1] = nil
		ni.circuitFree = ni.circuitFree[:n-1]
		*c = circuit{blocks: c.blocks[:0]}
		return c
	}
	// Full blocks capacity up front: handleAck never grows past
	// maxBlocksPerCircuit, so the record's appends stay growth-free for
	// the rest of its (recycled) life.
	return &circuit{blocks: make([]circuitBlock, 0, maxBlocksPerCircuit)}
}

// sendSetup emits a setup message toward dst with a fresh random slot id.
func (ni *NI) sendSetup(now sim.Cycle, dst topology.NodeID) {
	cfg := &ni.net.cfg
	if st, ok := ni.pending[dst]; ok {
		st.sentAt = now
		ni.pending[dst] = st
	}
	A := ni.net.ActiveSlots()
	slot := ni.rng.Intn(A)
	pkt := ni.pool.Get()
	pkt.ID = ni.nextID()
	pkt.Kind = flit.SetupMsg
	pkt.Src = ni.id
	pkt.Dst = dst
	pkt.Class = flit.ClassConfig
	pkt.Flits = 1
	pkt.Config = flit.ConfigPayload{
		Slot: slot, BaseSlot: slot,
		Duration: cfg.ReserveDuration(),
		Epoch:    ni.net.epoch,
	}
	// Configuration messages jump the data queue.
	ni.psQ.pushFront(pkt)
	ni.Stats.SetupsSent++
	ni.Stats.ConfigFlitsSent++
}

// sendTeardown emits a teardown that walks the reserved path from this
// node's router, releasing every slot it finds (Section II-B).
func (ni *NI) sendTeardown(dst topology.NodeID, baseSlot, dur, epoch int) {
	ni.sendTeardownLimited(dst, baseSlot, dur, epoch, 0)
}

// sendTeardownLimited bounds the walk to limit routers — used to clean the
// reserved prefix of a failed setup without touching the slots that made
// it fail (which belong to other circuits).
func (ni *NI) sendTeardownLimited(dst topology.NodeID, baseSlot, dur, epoch, limit int) {
	pkt := ni.pool.Get()
	pkt.ID = ni.nextID()
	pkt.Kind = flit.TeardownMsg
	pkt.Src = ni.id
	pkt.Dst = dst
	pkt.Class = flit.ClassConfig
	pkt.Flits = 1
	pkt.Config = flit.ConfigPayload{
		Slot: baseSlot, BaseSlot: baseSlot, Duration: dur, Epoch: epoch,
		FailHop: limit,
	}
	ni.psQ.pushFront(pkt)
	ni.Stats.TeardownsSent++
	ni.Stats.ConfigFlitsSent++
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
	if ni.net.cfg.Router.Hybrid && len(ni.csJobs) > 0 {
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

// tryStartCS scans pending CS jobs for one whose head flit would arrive
// exactly at its reserved slot and starts streaming it. Hitchhikers check
// the advance signal for owner contention and fall back to packet
// switching when the slot is taken (Section III-A1).
func (ni *NI) tryStartCS(now sim.Cycle) bool {
	if ni.net.csFrozen {
		// A slot-table reset is pending; new streams launched now could
		// still be in flight when the tables are wiped. Jobs wait here
		// and are flushed to packet switching at the reset.
		return false
	}
	A := ni.net.ActiveSlots()
	arrivalPhase := int(int64(now+1) % int64(A))
	for i := range ni.csJobs {
		job := ni.csJobs[i]
		if job.slot != arrivalPhase {
			continue
		}
		if !ni.validateJob(&job) {
			ni.removeJob(i)
			ni.fallbackToPS(&job)
			return false
		}
		if job.hitchhike && ni.r.IncomingCS(job.shareIn) {
			// The circuit owner is using this slot: sharing contention.
			ni.Stats.ShareContentions++
			ni.removeJob(i)
			if ni.dlt.RecordFailure(job.circuitDst) {
				// 2-bit counter saturated: request a dedicated circuit.
				target := job.pkt.Dst
				if job.pkt.HopOff {
					target = job.pkt.HopOffDst
				}
				ni.maybeSetup(now, target)
			}
			ni.fallbackToPS(&job)
			return false
		}
		// Stream it.
		ni.removeJob(i)
		if !job.hitchhike {
			if c := ni.circuits[job.circuitDst]; c != nil {
				if b := c.blockBySlot(job.slot); b != nil && b.pending > 0 {
					b.pending--
				}
				c.lastUsed = now
			}
		} else {
			ni.Stats.Hitchhikes++
			ni.dlt.RecordSuccess(job.circuitDst)
			ni.decHitchQueued(job.circuitDst)
		}
		fls := job.pkt.ExplodeInto()
		if job.hitchhike {
			for _, f := range fls {
				f.Hitchhike = true
				f.ShareIn = job.shareIn
			}
		}
		ni.csCur = fls
		ni.csIdx = 0
		ni.stageCS(now)
		return true
	}
	return false
}

func (ni *NI) stageCS(now sim.Cycle) {
	f := ni.csCur[ni.csIdx]
	if ni.csIdx == 0 {
		pkt := f.Pkt
		if pkt.InjectedAt == 0 {
			pkt.InjectedAt = int64(now + 1)
			ni.Stats.RecordInjection(pkt)
			if ni.probe.Wants(obs.KindInject) {
				// Slot carries the flow's true destination — the hop-off
				// endpoint for vicinity-shared packets, not the circuit's.
				dst := pkt.Dst
				if pkt.HopOff {
					dst = pkt.HopOffDst
				}
				ni.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindInject,
					Node: int32(ni.id), B: 1, Pkt: pkt.ID, Val: int64(pkt.Flits),
					Slot: int32(dst)})
			}
		}
	}
	ni.staged = f
	ni.csIdx++
	if ni.csIdx >= len(ni.csCur) {
		ni.csCur = nil
	}
}

// validateJob re-checks that the circuit or DLT entry a job was planned
// against still exists with the same slot (it may have been torn down or
// evicted while the job waited).
func (ni *NI) validateJob(job *csJob) bool {
	if job.hitchhike {
		e, ok := ni.dlt.Find(job.circuitDst)
		return ok && e.Slot == job.slot && e.In == job.shareIn
	}
	c := ni.circuits[job.circuitDst]
	return c != nil && c.blockBySlot(job.slot) != nil
}

// fallbackToPS converts a failed CS job back into an ordinary
// packet-switched packet.
func (ni *NI) fallbackToPS(job *csJob) {
	pkt := job.pkt
	if job.hitchhike {
		ni.decHitchQueued(job.circuitDst)
	} else if c := ni.circuits[job.circuitDst]; c != nil {
		if b := c.blockBySlot(job.slot); b != nil && b.pending > 0 {
			b.pending--
		}
	}
	if pkt.HopOff {
		pkt.Dst = pkt.HopOffDst
		pkt.HopOff = false
	}
	pkt.Switching = flit.PacketSwitched
	pkt.Flits = pkt.PSFlits
	ni.psQ.pushBack(pkt)
}

func (ni *NI) decHitchQueued(dst topology.NodeID) {
	if ni.hitchQueued[dst] > 0 {
		ni.hitchQueued[dst]--
	}
}

func (ni *NI) removeJob(i int) {
	copy(ni.csJobs[i:], ni.csJobs[i+1:])
	ni.csJobs[len(ni.csJobs)-1] = csJob{}
	ni.csJobs = ni.csJobs[:len(ni.csJobs)-1]
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
	if pkt.InjectedAt == 0 {
		pkt.InjectedAt = int64(now + 1)
		if pkt.Kind == flit.DataPacket {
			ni.Stats.RecordInjection(pkt)
			if ni.probe.Wants(obs.KindInject) {
				ni.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindInject,
					Node: int32(ni.id), Pkt: pkt.ID, Val: int64(pkt.Flits),
					Slot: int32(pkt.Dst)})
			}
		}
	}
	ni.stagePS(now)
}

// onResize flushes all circuit-switched state after a network-wide
// slot-table reset: queued CS jobs become packet-switched, circuits and
// pending setups are dropped. Called by the resize manager between
// cycles, after the drain window has let in-flight CS flits land.
func (ni *NI) onResize() {
	for i := range ni.csJobs {
		pkt := ni.csJobs[i].pkt
		if pkt.HopOff {
			pkt.Dst = pkt.HopOffDst
			pkt.HopOff = false
		}
		pkt.Switching = flit.PacketSwitched
		pkt.Flits = pkt.PSFlits
		ni.psQ.pushBack(pkt)
	}
	clear(ni.csJobs)
	ni.csJobs = ni.csJobs[:0]
	clear(ni.circuits)
	for _, c := range ni.circuitList {
		if c != nil {
			ni.circuitFree = append(ni.circuitFree, c)
		}
	}
	ni.circuitList = ni.circuitList[:0]
	clear(ni.pending)
	clear(ni.hitchQueued)
	clear(ni.backoff)
	if ni.dlt != nil {
		ni.dlt.Reset()
	}
}

func (ni *NI) nextID() uint64 {
	ni.seq++
	return uint64(ni.id)<<40 | ni.seq
}
