package flit

import (
	"fmt"

	"tdmnoc/internal/invariant"
	"tdmnoc/internal/topology"
)

// Where names the kind of register or queue a walked flit or packet sits
// in.
type Where uint8

const (
	InLatch   Where = iota // router input latch
	LinkReg                // router link register (the CS advance signal)
	VCQueue                // router input VC buffer
	STReg                  // router switch-traversal register
	OutLatch               // router output latch
	CSPending              // circuit-switched flit crossing the router this cycle
	NI                     // any NI queue, stream, staged flit or receive buffer
)

// Loc is where a walked flit or packet sits: the register kind and, in a
// router, its port and (VC queues only) VC.
type Loc struct {
	Where Where
	Port  topology.Port
	VC    int
}

var locFormats = [...]string{InLatch: "in[%v].latch", LinkReg: "in[%v].linkReg", VCQueue: "in[%v].vc[%d]",
	STReg: "out[%v].stReg", OutLatch: "out[%v].latch", CSPending: "csPending[%v]"}

// String names the location the way the owning struct spells it, e.g.
// "in[E].vc[2]".
func (l Loc) String() string {
	switch l.Where {
	case NI:
		return "ni"
	case VCQueue:
		return fmt.Sprintf(locFormats[l.Where], l.Port, l.VC)
	}
	return fmt.Sprintf(locFormats[l.Where], l.Port)
}

// Walk is one pass over a component's mutable state — the single
// enumeration every consumer of that state shares. A component's walk
// function folds every field into H in a fixed order (the determinism
// digest), hands every occupied flit or packet slot with its location to
// Visit, and passes every invariant violation it can decide from its own
// state to Report as (kind, detail). Visit and Report may be nil: the
// digest sets neither.
type Walk struct {
	H      *invariant.Hasher
	Visit  func(loc Loc, p *Packet, f *Flit) // f is nil for a whole queued packet
	Report func(kind, detail string)
}

// Flit folds the flit slot at loc into the hash (a nil flit hashes as a
// single zero byte, so presence and absence always hash differently) and
// visits the flit if there is one.
func (w *Walk) Flit(loc Loc, f *Flit) {
	h := w.H
	if f == nil {
		h.Byte(0)
		return
	}
	h.Byte(1)
	h.Byte(byte(f.Type))
	h.Int(f.Seq)
	h.Int(f.VC)
	h.Bool(f.CS)
	h.Int64(f.BufferedAt)
	h.Bool(f.Hitchhike)
	h.Byte(byte(f.ShareIn))
	w.hashPacket(f.Pkt)
	if w.Visit != nil {
		w.Visit(loc, f.Pkt, f)
	}
}

// Packet folds the whole-packet slot at loc into the hash and visits the
// packet if there is one.
func (w *Walk) Packet(loc Loc, p *Packet) {
	w.hashPacket(p)
	if p != nil && w.Visit != nil {
		w.Visit(loc, p, nil)
	}
}

// hashPacket folds a packet's fields — including the mutable ones the
// protocol rewrites in place (Dst, Flits, Switching, Config) — into the
// hash.
func (w *Walk) hashPacket(p *Packet) {
	h := w.H
	if p == nil {
		h.Byte(0)
		return
	}
	h.Byte(1)
	h.Uint64(p.ID)
	h.Byte(byte(p.Kind))
	h.Int(int(p.Src))
	h.Int(int(p.Dst))
	h.Byte(byte(p.Class))
	h.Byte(byte(p.Switching))
	h.Int(p.Flits)
	h.Int(p.PSFlits)
	h.Int(p.Config.Slot)
	h.Int(p.Config.BaseSlot)
	h.Int(p.Config.Duration)
	h.Int(p.Config.Hop)
	h.Int(p.Config.Epoch)
	h.Bool(p.Config.OK)
	h.Int(p.Config.FailHop)
	h.Int(int(p.Config.CircuitDst))
	h.Int64(p.CreatedAt)
	h.Int64(p.InjectedAt)
	h.Int64(p.EjectedAt)
	h.Bool(p.HopOff)
	h.Int(int(p.HopOffDst))
	h.Int(p.ReplyFlits)
	h.Uint64(p.ReqID)
	h.Int(p.SlackHint)
}
