package router

import (
	"fmt"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// This file is the router's contribution to the optional runtime
// invariant layer (internal/invariant): its one state walk, which the
// determinism digest, the network's conservation and credit checks and
// the debug dump all consume, the credit comparison the network runs on
// what the walks counted, and a fault injector used by the checker's own
// tests. Everything here runs between cycles (after the transfer phase),
// when the two-phase contract guarantees out latches toward connected
// neighbours are drained and pendingCredits is empty.

// Walk is the router's one state walk. It folds the complete mutable
// pipeline state into w.H — every register and buffer a flit can sit in,
// the allocator round-robin pointers, credit and VC-free state, the VC
// gates, the slot tables and the diagnostic counters; two routers whose
// walks hash equal are executing bit-identically — and visits every flit
// with its location. With w.Report set it also checks the state it reads:
// the VC occupancy masks must equal what the VC states and queues they
// summarise give (a stale bit would make the allocators skip a live VC
// or let the router sleep on buffered flits), and the slot tables must
// satisfy their ownership invariants.
func (r *Router) Walk(w *flit.Walk) {
	h := w.H
	var stateMask [numVCStates]uint64
	var occupied uint64
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		iu := &r.in[p]
		w.Flit(flit.Loc{Where: flit.InLatch, Port: p}, iu.latch)
		w.Flit(flit.Loc{Where: flit.LinkReg, Port: p}, iu.linkReg)
		h.Int(iu.rrVC)
		for v := range iu.vcs {
			vc := &iu.vcs[v]
			h.Int(len(vc.q))
			for _, f := range vc.q {
				w.Flit(flit.Loc{Where: flit.VCQueue, Port: p, VC: v}, f)
			}
			h.Byte(byte(vc.state))
			h.Int64(int64(vc.ready))
			h.Byte(byte(vc.route))
			h.Byte(byte(vc.outPort))
			h.Int(vc.outVC)
			stateMask[vc.state] |= 1 << vc.idx
			if !vc.empty() {
				occupied |= 1 << vc.idx
			}
		}
	}
	if w.Report != nil && (stateMask != r.stateMask || occupied != r.occupied) {
		w.Report("mask-consistency", fmt.Sprintf("state masks %x occupied %x, VC states give %x and %x",
			r.stateMask, r.occupied, stateMask, occupied))
	}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		ou := &r.out[p]
		for _, c := range ou.credits {
			h.Int(c)
		}
		for _, free := range ou.vcFree {
			h.Bool(free)
		}
		w.Flit(flit.Loc{Where: flit.STReg, Port: p}, ou.stReg)
		w.Flit(flit.Loc{Where: flit.OutLatch, Port: p}, ou.latch)
		h.Int(ou.rrVA)
		h.Int(ou.rrVC)
		h.Int(ou.rrIn)
	}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		w.Flit(flit.Loc{Where: flit.CSPending, Port: p}, r.csPending[p])
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
		r.tables.Walk(h, w.Report)
	}
}

// CheckCredits verifies, for every connected mesh output, that each
// downstream VC's credit count plus its occupancy equals the buffer depth
// — the credit-consistency invariant of credit-based flow control — and
// passes each violation to report as (kind, detail). occupancy(down, in,
// v) is what the state walks counted against input VC v of port in of
// router down: the packet-switched flits in its input latch, link
// register and VC queue, plus those in the upstream ST register and
// output latch feeding it (a switch-allocation winner has already
// consumed its credit). Circuit-switched flits bypass buffers and use no
// credits. Must be called between cycles, when in-flight credits have
// been delivered.
func (r *Router) CheckCredits(occupancy func(down topology.NodeID, in topology.Port, v int) int, report func(kind, detail string)) {
	for o := topology.Port(0); o < topology.NumPorts; o++ {
		n := r.neighbors[o]
		if o == topology.Local || n == nil {
			continue
		}
		for v, c := range r.out[o].credits {
			if occ := occupancy(n.id, o.Opposite(), v); c+occ != tablei.BufDepth {
				report("credit", fmt.Sprintf("output %v vc %d: credits %d + occupancy %d != depth %d",
					o, v, c, occ, tablei.BufDepth))
			}
		}
	}
}

// FaultDropCredit silently discards one credit for (port, vc) — a
// seeded fault used by tests to prove the invariant checker catches
// credit leaks with cycle and router context.
func (r *Router) FaultDropCredit(p topology.Port, vc int) {
	r.out[p].credits[vc]--
}
