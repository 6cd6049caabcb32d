package router

import (
	"fmt"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/invariant"
	"tdmnoc/internal/topology"
)

// This file is the router's contribution to the optional runtime
// invariant layer (internal/invariant): a full pipeline-state hash for
// the determinism digest, the per-VC credit-consistency check, flit
// enumeration for network-wide conservation, and a fault injector used
// by the checker's own tests. Everything here runs between cycles (after
// the transfer phase), when the two-phase contract guarantees out
// latches toward connected neighbours are drained and pendingCredits is
// empty.

// hashFlit is a local alias for the shared flit hash.
func hashFlit(h *invariant.Hasher, f *flit.Flit) { flit.HashFlit(h, f) }

// HashState folds the router's complete mutable pipeline state into h:
// every register and buffer a flit can sit in, the allocator round-robin
// pointers, credit and VC-free state, slot tables, gating accumulators
// and the diagnostic counters. Two runs whose routers hash equal every
// cycle are executing bit-identically.
func (r *Router) HashState(h *invariant.Hasher) {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		iu := &r.in[p]
		hashFlit(h, iu.latch)
		hashFlit(h, iu.linkReg)
		h.Int(iu.rrVC)
		for v := range iu.vcs {
			vc := &iu.vcs[v]
			h.Int(len(vc.q))
			for _, f := range vc.q {
				hashFlit(h, f)
			}
			h.Byte(byte(vc.state))
			h.Int64(int64(vc.ready))
			h.Byte(byte(vc.route))
			h.Byte(byte(vc.outPort))
			h.Int(vc.outVC)
		}
	}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		ou := &r.out[p]
		for _, c := range ou.credits {
			h.Int(c)
		}
		for _, free := range ou.vcFree {
			h.Bool(free)
		}
		hashFlit(h, ou.stReg)
		hashFlit(h, ou.latch)
		h.Int(ou.rrVA)
		h.Int(ou.rrVC)
		h.Int(ou.rrIn)
	}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		hashFlit(h, r.csPending[p])
	}
	h.Int(len(r.pendingCredits))
	for _, c := range r.pendingCredits {
		h.Byte(byte(c.port))
		h.Int(c.vc)
	}
	h.Int(len(r.dltEvents))
	h.Int(r.Epoch)
	h.Int(r.activeVCs)
	h.Int(r.pendingVCs)
	h.Int64(int64(r.gateEpochAt))
	h.Int(r.publishedVCLimit)
	if r.gate != nil {
		r.gate.HashState(h)
	}
	if r.latGate != nil {
		r.latGate.HashState(h)
	}
	h.Int64(r.MisroutedCS)
	h.Int64(r.DroppedCS)
	h.Int64(r.LatchConflicts)
	h.Int64(r.StolenSlots)
	if r.tables != nil {
		r.tables.HashState(h)
	}
}

// CheckInvariants verifies, for every connected non-local output port,
// that the credit count plus the downstream buffer occupancy equals the
// buffer depth — the credit-consistency invariant of credit-based flow
// control. The occupancy of downstream VC v counts the packet-switched
// flits on VC v in the downstream input's link registers and VC queue,
// plus this router's own ST register (a switch-allocation winner has
// already consumed its credit). Circuit-switched flits bypass buffers
// and use no credits. Must be called between cycles (after the transfer
// phase), when in-flight credits have been delivered.
//
// It also recomputes the VC occupancy masks from the VC states and queues
// they summarise (a stale bit would make the allocators skip a live VC or
// let the router sleep on buffered flits) and delegates to the slot
// tables' ownership check. Violations are passed to report as (kind,
// detail).
func (r *Router) CheckInvariants(report func(kind, detail string)) {
	var stateMask [numVCStates]uint64
	var occupied uint64
	for i := range r.vcs {
		stateMask[r.vcs[i].state] |= 1 << i
		if !r.vcs[i].empty() {
			occupied |= 1 << i
		}
	}
	if stateMask != r.stateMask || occupied != r.occupied {
		report("mask-consistency", fmt.Sprintf("state masks %x occupied %x, VC states give %x and %x",
			r.stateMask, r.occupied, stateMask, occupied))
	}
	for o := topology.Port(0); o < topology.NumPorts; o++ {
		n := r.neighbors[o]
		if o == topology.Local || n == nil {
			continue
		}
		ou := &r.out[o]
		q := o.Opposite()
		du := &n.in[q]
		countsToward := func(f *flit.Flit, v int) bool {
			return f != nil && !f.CS && f.VC == v
		}
		for v := range ou.credits {
			occ := 0
			if countsToward(ou.stReg, v) {
				occ++
			}
			// Drained after every full step; counted defensively so a
			// mid-cycle call over-reports rather than misses a flit.
			if countsToward(ou.latch, v) {
				occ++
			}
			if countsToward(du.linkReg, v) {
				occ++
			}
			if countsToward(du.latch, v) {
				occ++
			}
			if v < len(du.vcs) {
				occ += len(du.vcs[v].q)
			}
			if ou.credits[v]+occ != r.cfg.BufDepth {
				report("credit", fmt.Sprintf("output %v vc %d: credits %d + occupancy %d != depth %d",
					o, v, ou.credits[v], occ, r.cfg.BufDepth))
			}
		}
	}
	if r.tables != nil {
		r.tables.CheckConsistency(report)
	}
}

// CollectDataPackets calls add with the packet ID of every data packet
// that has a flit somewhere in this router — input latches, link
// registers, VC queues, ST registers, output latches and the
// circuit-switched pending slots. Configuration messages are excluded:
// conservation is stated over data packets (setup/ack/teardown messages
// are consumed by the protocol, not ejected).
func (r *Router) CollectDataPackets(add func(id uint64)) {
	visit := func(f *flit.Flit) {
		if f != nil && f.Pkt.Kind == flit.DataPacket {
			add(f.Pkt.ID)
		}
	}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		iu := &r.in[p]
		visit(iu.latch)
		visit(iu.linkReg)
		for v := range iu.vcs {
			for _, f := range iu.vcs[v].q {
				visit(f)
			}
		}
		ou := &r.out[p]
		visit(ou.stReg)
		visit(ou.latch)
		visit(r.csPending[p])
	}
}

// LocalInputPS returns the number of packet-switched flits on local
// input VC v — the occupancy the NI's injection credits must account
// for.
func (r *Router) LocalInputPS(v int) int {
	iu := &r.in[topology.Local]
	occ := len(iu.vcs[v].q)
	if f := iu.latch; f != nil && !f.CS && f.VC == v {
		occ++
	}
	if f := iu.linkReg; f != nil && !f.CS && f.VC == v {
		occ++
	}
	return occ
}

// FaultDropCredit silently discards one credit for (port, vc) — a
// seeded fault used by tests to prove the invariant checker catches
// credit leaks with cycle and router context.
func (r *Router) FaultDropCredit(p topology.Port, vc int) {
	r.out[p].credits[vc]--
}
