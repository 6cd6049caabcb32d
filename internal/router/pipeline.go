package router

import (
	"math/bits"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/routing"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// acceptIncoming demultiplexes the flits delivered by the links this
// cycle: circuit-switched flits go straight to the crossbar bypass (their
// output port comes from the slot table), packet-switched flits are
// written into their VC buffers.
func (r *Router) acceptIncoming(now sim.Cycle) bool {
	busy := false
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		iu := &r.in[p]
		f := iu.latch
		if f == nil {
			continue
		}
		iu.latch = nil
		busy = true
		if r.tables != nil {
			r.meter.SlotReads++ // the demux consults the slot table for every arrival
		}
		if f.CS {
			r.acceptCS(now, p, f)
			continue
		}
		vc := &iu.vcs[f.VC]
		if len(vc.q) >= tablei.BufDepth {
			r.LatchConflicts++ // credit protocol violation
		}
		f.BufferedAt = int64(now)
		r.push(vc, f)
		r.meter.BufWrites++
		if r.probe.Wants(obs.KindBufferWrite) {
			r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindBufferWrite,
				Node: int32(r.id), A: uint8(p), Pkt: f.Pkt.ID, Seq: int32(f.Seq), Val: int64(f.VC)})
		}
		if len(vc.q) == 1 && vc.state == vcIdle {
			if f.IsHead() {
				r.setState(vc, vcRouting)
				vc.ready = now
			} else {
				r.LatchConflicts++ // body flit with no owning packet
			}
		}
	}
	return busy
}

// acceptCS steers a circuit-switched flit to its reserved output. A
// hitchhiker entering at the local port rides the slot-table entry of the
// circuit it shares (recorded in the flit's ShareIn).
func (r *Router) acceptCS(now sim.Cycle, p topology.Port, f *flit.Flit) {
	if r.tables == nil {
		r.MisroutedCS++
		r.DroppedCS++
		return
	}
	lookupPort := p
	if f.Hitchhike && p == topology.Local {
		lookupPort = f.ShareIn
	}
	out, ok := r.tables.Lookup(lookupPort, int64(now))
	if !ok {
		r.MisroutedCS++
		r.DroppedCS++
		return
	}
	if r.cfg.Sharing && f.IsHead() && !f.Hitchhike && p != topology.Local && out != topology.Local {
		// A live circuit is passing through: (re-)advertise it for
		// hitchhiker-sharing. Advertising on traffic rather than on setup
		// messages guarantees the DLT only ever points at circuits whose
		// end-to-end reservation succeeded.
		slot := r.tables.SlotOf(int64(now))
		dur := r.tables.DurationAt(p, slot, int64(now))
		r.dltEvents = append(r.dltEvents, DLTEvent{Add: true, Dst: f.Pkt.Dst, Slot: slot, Dur: dur, In: p})
		r.armLocalNI(now)
	}
	if r.probe.Wants(obs.KindCSBypass) {
		r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindCSBypass,
			Node: int32(r.id), A: uint8(p), B: uint8(out), Pkt: f.Pkt.ID, Seq: int32(f.Seq),
			Slot: int32(r.tables.SlotOf(int64(now)))})
	}
	if cur := r.csPending[out]; cur != nil {
		// Two CS flits claim one output in the same slot. The circuit
		// owner has priority over a hitchhiker; the loser is dropped and
		// counted (the NI-side advance-signal check makes this
		// unreachable in well-formed runs).
		if cur.Hitchhike && !f.Hitchhike {
			r.csPending[out] = f
		}
		r.DroppedCS++
		return
	}
	r.csPending[out] = f
}

// switchTraversal moves last cycle's switch-allocation winners and this
// cycle's circuit-switched arrivals through the crossbar into the output
// latches. Circuit-switched flits have priority; a displaced winner
// stalls in its ST register and retries next cycle.
func (r *Router) switchTraversal(now sim.Cycle) bool {
	did := false
	for o := topology.Port(0); o < topology.NumPorts; o++ {
		ou := &r.out[o]
		if f := r.csPending[o]; f != nil {
			r.csPending[o] = nil
			if ou.latch == nil {
				ou.latch = f
				r.armConsumer(o, now)
				r.meter.XbarFlits++
				r.meter.CSLatches++
				r.meter.LinkFlits++
				did = true
			} else {
				r.LatchConflicts++
				r.DroppedCS++
			}
		}
		if ou.stReg != nil && ou.latch == nil {
			if r.probe.Wants(obs.KindSwitchTraverse) {
				r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindSwitchTraverse,
					Node: int32(r.id), B: uint8(o), Pkt: ou.stReg.Pkt.ID, Seq: int32(ou.stReg.Seq)})
			}
			ou.latch = ou.stReg
			ou.stReg = nil
			r.armConsumer(o, now)
			r.meter.XbarFlits++
			r.meter.LinkFlits++
			did = true
		}
	}
	return did
}

// armConsumer arms whoever pulls from out[o].latch (the downstream
// router, or the co-located NI for the Local port) for this cycle's
// transfer phase. Called from compute-phase latch writes: the consumer
// may be asleep, and the transfer contract is pull-based, so the
// producer is the only party that knows a pull is needed.
func (r *Router) armConsumer(o topology.Port, now sim.Cycle) {
	if st := r.armOut[o]; st != nil {
		st.ArmNext(now, sim.PhaseCompute)
	}
}

// armLocalNI arms the co-located NI for this cycle's transfer phase —
// the phase in which it drains the router's DLT event queue.
func (r *Router) armLocalNI(now sim.Cycle) {
	if st := r.armOut[topology.Local]; st != nil {
		st.ArmNext(now, sim.PhaseCompute)
	}
}

// routeCompute runs the RC stage for every input VC whose head flit is
// waiting, including the slot-reservation side effects of configuration
// messages.
func (r *Router) routeCompute(now sim.Cycle) {
	// Ascending mask bits are port-major, VC-minor — the order slot
	// reservations must be processed in. Handling one VC only moves that
	// VC's own bit, so iterating a snapshot is exact.
	for m := r.stateMask[vcRouting]; m != 0; m &= m - 1 {
		vc := &r.vcs[bits.TrailingZeros64(m)]
		if vc.ready > now {
			continue
		}
		f := vc.front()
		if f == nil || !f.IsHead() {
			continue
		}
		switch f.Pkt.Kind {
		case flit.SetupMsg:
			r.processSetup(now, vc.port, vc, f)
		case flit.TeardownMsg:
			r.processTeardown(now, vc.port, vc)
		default:
			r.routeNext(now, vc, r.dataRoute(f.Pkt))
			if r.probe.Wants(obs.KindRouteCompute) {
				r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindRouteCompute,
					Node: int32(r.id), A: uint8(vc.port), B: uint8(vc.route), Pkt: f.Pkt.ID})
			}
		}
	}
}

// dataRoute picks the output port for data packets (X-Y) and acks
// (west-first adaptive, per Table I's adaptive routing for
// configuration packets).
func (r *Router) dataRoute(pkt *flit.Packet) topology.Port {
	if pkt.Dst == r.id {
		return topology.Local
	}
	if pkt.Kind == flit.AckMsg {
		return routing.WestFirst(r.mesh, r.id, pkt.Dst, r.congestion)
	}
	return r.xyPort(pkt.Dst)
}

// xyPort is the RC stage's dimension-order function: the output port X-Y
// routing takes toward dst, computed from the router's cached
// coordinates. Semantically identical to routing.XY(r.mesh, r.id, dst).
func (r *Router) xyPort(dst topology.NodeID) topology.Port {
	dx, dy := int(dst)%r.mesh.Width, int(dst)/r.mesh.Width
	switch {
	case dx > r.selfX:
		return topology.East
	case dx < r.selfX:
		return topology.West
	case dy > r.selfY:
		return topology.South
	case dy < r.selfY:
		return topology.North
	}
	return topology.Local
}

// congestion scores an output port for adaptive routing: fewer free
// downstream credits means more congested. Lower score wins.
func (r *Router) congestion(p topology.Port) int {
	ou := &r.out[p]
	if !ou.connected {
		return 1 << 30
	}
	free := 0
	for v := 0; v < r.allocLimit(p); v++ {
		free += ou.credits[v]
	}
	return -free
}

// processSetup performs the Section II-B reservation step of a setup
// message at this router: pick the output (adaptively), try to reserve
// the requested slots on (input port, output), and either forward with
// the slot id advanced by 2 or convert into a failure ack.
func (r *Router) processSetup(now sim.Cycle, p topology.Port, vc *inputVC, f *flit.Flit) {
	pkt := f.Pkt
	cfgp := &pkt.Config
	out := routing.WestFirst(r.mesh, r.id, pkt.Dst, r.congestion) // Local at the destination
	ok := r.tables != nil && cfgp.Epoch == r.Epoch &&
		r.tables.Reserve(p, out, cfgp.Slot, cfgp.Duration, int64(now))
	if !ok {
		if r.probe.Wants(obs.KindSetupFail) {
			r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindSetupFail,
				Node: int32(r.id), A: uint8(p), B: uint8(out), Pkt: pkt.ID, Slot: int32(cfgp.Slot)})
		}
		r.convertToAck(now, vc, f, false)
		return
	}
	if r.probe.Wants(obs.KindSetupReserve) {
		r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindSetupReserve,
			Node: int32(r.id), A: uint8(p), B: uint8(out), Pkt: pkt.ID, Slot: int32(cfgp.Slot),
			Val: int64(cfgp.Duration)})
	}
	r.meter.SlotWrites += int64(cfgp.Duration)
	cfgp.Hop++
	if out == topology.Local {
		r.convertToAck(now, vc, f, true)
		return
	}
	cfgp.Slot = (cfgp.Slot + 2) % r.tables.Active()
	r.routeNext(now, vc, out)
}

// processTeardown releases this router's slots for the circuit and
// follows the reserved path onward; when there is nothing to release (the
// router where a failed setup stopped, or a stale-epoch teardown after a
// reset) the message is consumed via the local port.
func (r *Router) processTeardown(now sim.Cycle, p topology.Port, vc *inputVC) {
	pkt := vc.front().Pkt
	cfgp := &pkt.Config
	out := topology.Local
	// A teardown from before a slot-table reset is consumed: everything
	// it would release was already wiped, and the slots may have been
	// re-reserved by new-epoch circuits it must not touch. So is one past
	// the FailHop routers a failed setup reserved: beyond them the slots
	// belong to other circuits.
	if cfgp.Epoch != r.Epoch || cfgp.FailHop > 0 && cfgp.Hop >= cfgp.FailHop {
		r.routeNext(now, vc, out)
		return
	}
	if r.tables != nil {
		if o, ok := r.tables.Release(p, cfgp.Slot, cfgp.Duration, int64(now)); ok {
			r.meter.SlotWrites += int64(cfgp.Duration)
			out = o
			if r.probe.Wants(obs.KindTeardownRelease) {
				r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindTeardownRelease,
					Node: int32(r.id), A: uint8(p), B: uint8(o), Pkt: pkt.ID, Slot: int32(cfgp.Slot),
					Val: int64(cfgp.Duration)})
			}
		}
	}
	if r.cfg.Sharing {
		r.dltEvents = append(r.dltEvents, DLTEvent{Add: false, Dst: pkt.Dst})
		r.armLocalNI(now)
	}
	if out != topology.Local {
		cfgp.Slot = (cfgp.Slot + 2) % r.tables.Active()
		cfgp.Hop++
	}
	r.routeNext(now, vc, out)
}

// routeNext ends route computation for vc's head packet: it leaves
// through out, and VC allocation takes it up next cycle.
func (r *Router) routeNext(now sim.Cycle, vc *inputVC, out topology.Port) {
	vc.route = out
	r.setState(vc, vcVCAlloc)
	vc.ready = now + 1
}

// convertToAck rewrites the setup flit in place into an acknowledgement
// heading back to the requesting source (Section II-B). FailHop records
// how many routers successfully reserved, so the source's teardown can
// walk exactly that prefix.
func (r *Router) convertToAck(now sim.Cycle, vc *inputVC, f *flit.Flit, ok bool) {
	// The setup packet is mutated in place rather than replaced: the
	// same object travels back to the requesting source, whose NI
	// recycles it — a setup/ack round trip costs zero allocations. All
	// untouched fields (Slot, BaseSlot, Duration, Hop, Epoch, Class,
	// Flits, ID) already carry the values an ack needs. Order matters:
	// CircuitDst must capture Dst before Dst is redirected to the source.
	pkt := f.Pkt
	pkt.Kind = flit.AckMsg
	pkt.Config.CircuitDst = pkt.Dst
	pkt.Dst = pkt.Src
	pkt.Src = r.id
	pkt.ReqID = pkt.ID
	pkt.Config.OK = ok
	pkt.Config.FailHop = pkt.Config.Hop
	pkt.CreatedAt = int64(now)
	pkt.InjectedAt = int64(now)
	if r.probe.Wants(obs.KindSetupAck) {
		var okb uint8
		if ok {
			okb = 1
		}
		r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindSetupAck,
			Node: int32(r.id), B: okb, Pkt: pkt.ID, Slot: int32(pkt.Config.Slot)})
	}
	// Re-run route computation next cycle with the new destination.
	r.setState(vc, vcRouting)
	vc.ready = now + 1
}

// vcAllocate is the VA stage: a separable allocator that matches waiting
// head packets to free downstream VCs, round-robin on both sides. A pass
// over the VCs in vcVCAlloc builds, per output, the mask of ready
// waiters; the allocation sweep then visits only outputs with a
// candidate and, within one, only the candidates, in the order the
// exhaustive scan from the round-robin pointer would have met them. The
// positions it skips could only ever hold non-matching VCs, so
// round-robin pointer movement (which is simulation state) stays
// bit-identical to the exhaustive sweep.
func (r *Router) vcAllocate(now sim.Cycle) {
	var cand [topology.NumPorts]uint64
	for m := r.stateMask[vcVCAlloc]; m != 0; m &= m - 1 {
		if vc := &r.vcs[bits.TrailingZeros64(m)]; vc.ready <= now {
			cand[vc.route] |= 1 << vc.idx
		}
	}
	n := int(topology.NumPorts) * r.cfg.VCs
	for o := topology.Port(0); o < topology.NumPorts; o++ {
		ou := &r.out[o]
		if cand[o] == 0 || !ou.connected {
			continue
		}
		limit := r.allocLimit(o)
		// The exhaustive scan probes position rrVA+i for i = 0..n-1 and
		// re-reads rrVA every step, so a grant (which advances rrVA past
		// the winner) makes the scan position jump by the steps already
		// taken. i keeps counting across grants to reproduce that.
		for i := 0; cand[o] != 0; i++ {
			ahead := rotr(cand[o], ou.rrVA, n) >> i
			if ahead == 0 {
				break
			}
			i += bits.TrailingZeros64(ahead)
			idx := ou.rrVA + i
			if idx >= n {
				idx -= n
			}
			vc := &r.vcs[idx]
			got := -1
			// rrVC can exceed limit when VC power gating shrank the
			// allocatable range since the last grant; normalize once.
			ovc := ou.rrVC % limit
			for j := 0; j < limit; j++ {
				if ovc >= limit {
					ovc -= limit
				}
				if ou.vcFree[ovc] {
					got = ovc
					break
				}
				ovc++
			}
			if got < 0 {
				break // no downstream VCs left at this output
			}
			ou.vcFree[got] = false
			ou.rrVC = (got + 1) % limit
			r.setState(vc, vcActive)
			vc.outPort = o
			vc.outVC = got
			vc.ready = now + 1
			r.meter.VCArbs++
			if r.probe.Wants(obs.KindVCAlloc) {
				r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindVCAlloc,
					Node: int32(r.id), A: uint8(vc.port), B: uint8(o), Val: int64(got)})
			}
			ou.rrVA = (idx + 1) % n
			cand[o] &^= 1 << idx
		}
	}
}

// csBlocked reports whether output o must be left free for the
// circuit-switched path at cycle now+1 (the traversal cycle of any switch
// allocation granted now). A reserved slot whose circuit flit is not
// arriving may be stolen when time-slot stealing is enabled.
func (r *Router) csBlocked(now sim.Cycle, o topology.Port) bool {
	if r.tables == nil {
		return false
	}
	next := int64(now + 1)
	inP, reserved := r.tables.OutReservedAt(next, o)
	if reserved {
		if r.IncomingCS(inP) {
			return true // the owner's flit is arriving
		}
		// A CS flit injected by the local NI for this cycle (owner or
		// hitchhiker) is not visible here until it arrives; if one shows
		// up it takes crossbar priority and the granted flit stalls one
		// cycle in its ST register — see switchTraversal.
		return !r.cfg.TimeSlotStealing
	}
	return false
}

// switchAllocate is the SA stage: an iSLIP-style separable allocator.
// Each iteration picks one ready VC per still-unmatched input port, then
// one input per still-unmatched output port; extra iterations
// (Config.SAIterations) fill holes the first pass leaves under
// contention. Winners are read from their buffers into the ST registers
// and credits return upstream.
func (r *Router) switchAllocate(now sim.Cycle) bool {
	// elig is the set of VCs that could request the switch: active and
	// holding a flit. It is a superset test (stage timing, credits, CS
	// blocking and output conflicts only reduce the match further) and it
	// stays valid across iterations: a grant changes only the matched
	// input's VC, and matched inputs are skipped anyway. The request
	// phase walks an input's elig bits instead of all its VCs — a VC
	// outside elig could never win or move a round-robin pointer.
	elig := r.stateMask[vcActive] & r.occupied
	if elig == 0 {
		return false
	}
	iters := r.cfg.SAIterations
	if iters < 1 {
		iters = 1
	}
	did := false
	nv := r.cfg.VCs
	var inputMatched [topology.NumPorts]bool
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if r.IncomingCS(p) {
			inputMatched[p] = true // crossbar input claimed by an arriving CS flit
		}
	}
	for it := 0; it < iters; it++ {
		var winners [topology.NumPorts]*inputVC
		var winnerVC [topology.NumPorts]int
		requested := 0 // bit o: some winner requests output o
		for p := topology.Port(0); p < topology.NumPorts; p++ {
			mine := elig >> (int(p) * nv) & (1<<nv - 1)
			if inputMatched[p] || mine == 0 {
				continue
			}
			iu := &r.in[p]
			for m := rotr(mine, iu.rrVC, nv); m != 0; m &= m - 1 {
				v := iu.rrVC + bits.TrailingZeros64(m)
				if v >= nv {
					v -= nv
				}
				vc := &iu.vcs[v]
				if vc.ready > now {
					continue
				}
				ou := &r.out[vc.outPort]
				if ou.stReg != nil {
					continue // output already matched or stalled by CS priority
				}
				if vc.outPort != topology.Local && ou.credits[vc.outVC] <= 0 {
					// Report the stall once per cycle (iteration 0), not once
					// per iSLIP iteration, so stall counts are comparable
					// across SAIterations settings.
					if it == 0 && r.probe.Wants(obs.KindCreditStall) {
						r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindCreditStall,
							Node: int32(r.id), A: uint8(p), B: uint8(vc.outPort),
							Pkt: vc.front().Pkt.ID, Val: int64(vc.outVC)})
					}
					continue
				}
				if r.csBlocked(now, vc.outPort) {
					continue
				}
				winners[p] = vc
				winnerVC[p] = v
				requested |= 1 << vc.outPort
				break
			}
		}
		if requested == 0 {
			break
		}
		np := int(topology.NumPorts)
		// Grant only at requested outputs: a winner was picked only where
		// stReg is free, and an output nobody requests grants nothing.
		for ; requested != 0; requested &= requested - 1 {
			o := topology.Port(bits.TrailingZeros(uint(requested)))
			ou := &r.out[o]
			for i := 0; i < np; i++ {
				pi := ou.rrIn + i
				if pi >= np {
					pi -= np
				}
				p := topology.Port(pi)
				vc := winners[p]
				if vc == nil || vc.outPort != o || inputMatched[p] {
					continue
				}
				f := r.pop(vc)
				r.meter.BufReads++
				r.meter.SWArbs++
				if r.latGate != nil {
					r.latGate.ObserveDelay(int64(now) - f.BufferedAt)
				}
				// Advance the input's VC pointer only on a grant (iSLIP's
				// "pointer moves on accept" rule, which gives fairness).
				if r.in[p].rrVC = winnerVC[p] + 1; r.in[p].rrVC == nv {
					r.in[p].rrVC = 0
				}
				f.VC = vc.outVC
				ou.stReg = f
				if r.probe.Wants(obs.KindSwitchAlloc) {
					r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindSwitchAlloc,
						Node: int32(r.id), A: uint8(p), B: uint8(o), Pkt: f.Pkt.ID, Seq: int32(f.Seq)})
				}
				if r.tables != nil {
					if _, res := r.tables.OutReservedAt(int64(now+1), o); res {
						r.StolenSlots++
						if r.probe.Wants(obs.KindSlotSteal) {
							r.probe.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindSlotSteal,
								Node: int32(r.id), A: uint8(p), B: uint8(o), Pkt: f.Pkt.ID, Seq: int32(f.Seq),
								Slot: int32(r.tables.SlotOf(int64(now + 1)))})
						}
					}
				}
				if o != topology.Local {
					ou.credits[vc.outVC]--
				}
				r.pendingCredits = append(r.pendingCredits, creditMsg{port: p, vc: winnerVC[p]})
				if f.IsTail() {
					ou.vcFree[vc.outVC] = true
					r.setState(vc, vcIdle)
					if nf := vc.front(); nf != nil {
						if nf.IsHead() {
							r.setState(vc, vcRouting)
							vc.ready = now + 1
						} else {
							r.LatchConflicts++
						}
					}
				}
				ou.rrIn = (int(p) + 1) % np
				inputMatched[p] = true
				did = true
				break
			}
		}
	}
	return did
}
