package network

import (
	"tdmnoc/internal/flit"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// The NI's side of the circuit protocol the package doc lists, with the
// registry it keeps and the flush at a slot-table reset. Queueing,
// credits, staging and reassembly live in ni.go.

// The NI protocol's fixed parameters (Table I and Section II).
const (
	// csDataFlits is the circuit-switched data packet length: a cache
	// line in 4 flits (a vicinity-shared packet adds a header flit).
	csDataFlits = 4
	// freqWindow is the frequency filter's window: tablei.SetupThreshold
	// messages to one destination within it trigger a circuit setup. A
	// setup that gives up backs off for 4 windows, a full registry for 1.
	freqWindow = 2048
	// maxCircuits bounds the circuits registered per source.
	maxCircuits = 8
	// idleTeardown is the idle time after which a circuit becomes a
	// teardown candidate when the registry is full.
	idleTeardown = 8192
	// overflowForExtraBlock is how many circuit-wait rejections request
	// an additional block.
	overflowForExtraBlock = 8
	// retrySetups is how many times a failed setup is re-sent with a
	// different slot id before it backs off.
	retrySetups = 3
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

// circuitBlock is one consecutive-slot reservation of a connection. A
// connection may hold several blocks: each block carries one message per
// slot-table frame, so extra blocks scale a hot connection's bandwidth
// (the time-division granularity knob of Section II-C).
type circuitBlock struct {
	baseSlot int
	pending  int // queued CS packets aligned to this block
}

// circuit is a source-registered circuit-switched connection.
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

// decide implements Sections II-A and V-A2: a message rides the
// circuit-switched path only when the estimated circuit latency (slot
// wait + two cycles per hop) does not exceed the estimated
// packet-switched latency plus the message's slack.
func (ni *NI) decide(now sim.Cycle, pkt *flit.Packet, opt SendOptions) (csJob, bool) {
	cfg := &ni.net.cfg
	if cfg.Mode != HybridTDM || !opt.AllowCS || ni.net.csFrozen() {
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
		if c.overflow >= cfg.overflowForExtraBlock && len(c.blocks) < maxBlocksPerCircuit {
			c.overflow = 0
			ni.requestExtraBlock(now, pkt.Dst)
		}
		return csJob{}, false
	}
	if !cfg.PathSharing || ni.dlt == nil {
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
		// slot-table space. Pin maps are nil until a decision pins some
		// flow, so a RestrictSetups that pins nothing is never read.
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
	if ni.freq[dst] < tablei.SetupThreshold {
		return
	}
	ni.maybeSetup(now, dst)
}

// maybeSetup starts a path setup toward dst if none exists, tearing down
// an idle circuit first when the registry is full.
func (ni *NI) maybeSetup(now sim.Cycle, dst topology.NodeID) {
	cfg := &ni.net.cfg
	if cfg.Mode != HybridTDM || ni.net.csFrozen() {
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
	if len(ni.circuits) >= cfg.maxCircuits {
		if !ni.teardownIdlest(now) {
			ni.backoff[dst] = now + freqWindow
			return
		}
	}
	ni.pending[dst] = setupState{dst: dst}
	ni.sendSetup(now, dst)
}

// requestExtraBlock starts a setup for an additional slot block of an
// existing connection. Unlike maybeSetup it leaves an expired backoff
// entry in place.
func (ni *NI) requestExtraBlock(now sim.Cycle, dst topology.NodeID) {
	cfg := &ni.net.cfg
	if cfg.Mode != HybridTDM || ni.net.csFrozen() || ni.setupPending(dst) {
		return
	}
	if until, ok := ni.backoff[dst]; ok && now < until {
		return
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
		if int64(now)-int64(c.lastUsed) < cfg.idleTeardown {
			continue
		}
		if victim == nil || c.lastUsed < victim.lastUsed {
			victim, vi = c, i
		}
	}
	if victim == nil {
		return false
	}
	delete(ni.circuits, victim.dst)
	ni.circuitList = append(ni.circuitList[:vi], ni.circuitList[vi+1:]...)
	for _, b := range victim.blocks {
		ni.sendTeardown(victim.dst, b.baseSlot, victim.dur, victim.epoch, 0)
	}
	ni.circuitFree = append(ni.circuitFree, victim)
	ni.Stats.CircuitsTorndown++
	return true
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
	if st, ok := ni.pending[dst]; ok {
		st.sentAt = now
		ni.pending[dst] = st
	}
	slot := ni.rng.Intn(ni.net.ActiveSlots())
	pkt := ni.newPacket(flit.SetupMsg, dst, flit.ClassConfig, 1)
	pkt.Config = flit.ConfigPayload{
		Slot: slot, BaseSlot: slot,
		Duration: ni.net.cfg.ReserveDuration(),
		Epoch:    ni.net.epoch,
	}
	// Configuration messages jump the data queue.
	ni.psQ.pushFront(pkt)
	ni.Stats.SetupsSent++
	ni.Stats.ConfigFlitsSent++
}

// sendTeardown emits a teardown that walks the reserved path from this
// node's router, releasing every slot it finds (Section II-B). A limit
// above 0 bounds the walk to that many routers: it cleans the reserved
// prefix of a failed setup without touching the slots that made it fail
// (which belong to other circuits).
func (ni *NI) sendTeardown(dst topology.NodeID, baseSlot, dur, epoch, limit int) {
	pkt := ni.newPacket(flit.TeardownMsg, dst, flit.ClassConfig, 1)
	pkt.Config = flit.ConfigPayload{
		Slot: baseSlot, BaseSlot: baseSlot, Duration: dur, Epoch: epoch,
		FailHop: limit,
	}
	ni.psQ.pushFront(pkt)
	ni.Stats.TeardownsSent++
	ni.Stats.ConfigFlitsSent++
}

// recordSetup posts one setup outcome to the resize manager's mailbox.
// With static slot tables there is no resizer to read it, so nothing is
// recorded and the manager has nothing to sweep.
func (ni *NI) recordSetup(ok bool) {
	if ni.net.dynamicSlots {
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
	if pkt.Config.Epoch != ni.net.epoch {
		// Reservations from an older sizing epoch are (or will be) wiped
		// by the network-wide reset; sending a teardown here could
		// release slots a new-epoch circuit now owns.
		delete(ni.pending, dst)
		return
	}
	if pkt.Config.OK {
		// An ack for an existing connection is an additional slot block.
		existing := ni.circuits[dst]
		full := len(ni.circuits) >= cfg.maxCircuits
		if existing != nil {
			full = len(existing.blocks) >= maxBlocksPerCircuit
		}
		wanted := ni.setupPending(dst)
		delete(ni.pending, dst)
		if !wanted || full {
			// Unwanted reservation: release the whole path.
			ni.sendTeardown(dst, pkt.Config.BaseSlot, pkt.Config.Duration, pkt.Config.Epoch, 0)
			return
		}
		ni.Stats.SetupsOK++
		ni.recordSetup(true)
		if existing != nil {
			existing.blocks = append(existing.blocks, circuitBlock{baseSlot: pkt.Config.BaseSlot})
			return
		}
		c := ni.newCircuit()
		c.dst = dst
		c.blocks = append(c.blocks, circuitBlock{baseSlot: pkt.Config.BaseSlot})
		c.dur = pkt.Config.Duration
		c.epoch = pkt.Config.Epoch
		c.hops = ni.net.mesh.HopDistance(ni.id, dst)
		c.lastUsed = now
		ni.circuits[dst] = c
		ni.circuitList = append(ni.circuitList, c)
		ni.Stats.CircuitsRegistered++
		return
	}
	// Failure: release the reserved prefix, then maybe retry with a
	// different slot id.
	ni.Stats.SetupsFailed++
	ni.recordSetup(false)
	if pkt.Config.FailHop > 0 {
		ni.sendTeardown(dst, pkt.Config.BaseSlot, pkt.Config.Duration, pkt.Config.Epoch, pkt.Config.FailHop)
	}
	st, ok := ni.pending[dst]
	if !ok {
		return
	}
	st.attempts++
	if !ni.net.csFrozen() && st.attempts < retrySetups {
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

// applyDLTEvents mirrors the router's circuit reservations and releases
// into the NI's DLT, the table hitchhikers look circuits up in.
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

// tryStartCS scans pending CS jobs for one whose head flit would arrive
// exactly at its reserved slot and starts streaming it. Hitchhikers check
// the advance signal for owner contention and fall back to packet
// switching when the slot is taken (Section III-A1).
func (ni *NI) tryStartCS(now sim.Cycle) bool {
	if ni.net.csFrozen() {
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
		ni.removeJob(i)
		valid := ni.validateJob(&job)
		if !valid || job.hitchhike && ni.r.IncomingCS(job.shareIn) {
			// The job falls back to packet switching. An own-circuit job
			// gets here only without its circuit or block, so there is no
			// block pending count to give back.
			if valid {
				// The circuit owner is using this slot: sharing contention.
				ni.Stats.ShareContentions++
				if ni.dlt.RecordFailure(job.circuitDst) {
					// 2-bit counter saturated: request a dedicated circuit.
					target := job.pkt.Dst
					if job.pkt.HopOff {
						target = job.pkt.HopOffDst
					}
					ni.maybeSetup(now, target)
				}
			}
			if job.hitchhike {
				ni.decHitchQueued(job.circuitDst)
			}
			ni.revertToPS(job.pkt)
			return false
		}
		// Stream it.
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

// revertToPS queues a circuit-switched or hop-off packet as an ordinary
// packet-switched one toward its true destination: a job that lost its
// circuit or slot, a job flushed by a slot-table reset, and a
// vicinity-shared packet continuing from the circuit's end (Section
// III-A2). Src is kept: replies and statistics refer to the original
// sender.
func (ni *NI) revertToPS(pkt *flit.Packet) {
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

// onResize flushes all circuit-switched state after a network-wide
// slot-table reset: queued CS jobs become packet-switched, circuits and
// pending setups are dropped. Called by the resize manager between
// cycles, after the drain window has let in-flight CS flits land.
func (ni *NI) onResize() {
	for i := range ni.csJobs {
		ni.revertToPS(ni.csJobs[i].pkt)
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
