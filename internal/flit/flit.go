// Package flit defines the messages that traverse the network: packets,
// their constituent flits, and the circuit-switching configuration
// messages (setup / teardown / ack) of Section II-B of the paper.
package flit

import (
	"fmt"

	"tdmnoc/internal/topology"
)

// Type distinguishes the position of a flit within its packet.
type Type uint8

const (
	// Head carries routing information and allocates the VC.
	Head Type = iota
	// Body follows the head on the wormhole path.
	Body
	// Tail releases the VC when it departs.
	Tail
	// HeadTail is a single-flit packet (configuration messages).
	HeadTail
)

// String returns a short mnemonic for the flit type.
func (t Type) String() string {
	switch t {
	case Head:
		return "H"
	case Body:
		return "B"
	case Tail:
		return "T"
	case HeadTail:
		return "HT"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Kind classifies a packet by its role in the protocol.
type Kind uint8

const (
	// DataPacket is ordinary payload traffic (request or reply).
	DataPacket Kind = iota
	// SetupMsg requests reservation of circuit-switched time slots along
	// its path (1 flit).
	SetupMsg
	// TeardownMsg releases a reservation, following the reserved path via
	// the slot tables (1 flit).
	TeardownMsg
	// AckMsg reports setup success or failure back to the source (1 flit).
	AckMsg
)

// String returns the protocol name of the packet kind.
func (k Kind) String() string {
	switch k {
	case DataPacket:
		return "data"
	case SetupMsg:
		return "setup"
	case TeardownMsg:
		return "teardown"
	case AckMsg:
		return "ack"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// TrafficClass labels which kind of tile generated a packet; the
// heterogeneous evaluation (Section V) packet-switches all CPU traffic and
// hybrid-switches only GPU traffic.
type TrafficClass uint8

const (
	// ClassCPU marks coherence/data-sharing traffic from superscalar cores.
	ClassCPU TrafficClass = iota
	// ClassGPU marks throughput-intensive streaming traffic from
	// data-parallel accelerators.
	ClassGPU
	// ClassConfig marks circuit-switching configuration messages.
	ClassConfig
	// ClassOther marks traffic from L2 banks and memory controllers
	// (replies inherit the class of the request in the hetero model).
	ClassOther
)

// Switching says how a packet is being forwarded.
type Switching uint8

const (
	// PacketSwitched packets are buffered/routed at each hop.
	PacketSwitched Switching = iota
	// CircuitSwitched packets ride reserved TDM slots, bypassing buffers.
	CircuitSwitched
)

// ConfigPayload is the content of a setup/teardown message (Section II-B):
// the reservation's starting slot at the *current* hop and the number of
// consecutive slots it needs. Slot is advanced by 2 per hop as the message
// travels, mirroring the two-stage circuit-switched pipeline.
type ConfigPayload struct {
	Slot     int  // starting slot index at the hop now processing the message
	BaseSlot int  // starting slot at the source, recorded for registry bookkeeping
	Duration int  // number of consecutive slots reserved
	Hop      int  // hops traversed (and, for setups, reserved) so far
	Epoch    int  // slot-table sizing epoch; stale-epoch setups are rejected
	OK       bool // for AckMsg: whether setup succeeded
	FailHop  int  // for AckMsg on failure: hops successfully reserved before the failing router

	// CircuitDst is the destination of the circuit a config message
	// refers to; acks need it because their own Dst is the requesting
	// source node.
	CircuitDst topology.NodeID
}

// Packet is the unit of end-to-end communication.
type Packet struct {
	ID   uint64
	Kind Kind
	Src  topology.NodeID
	Dst  topology.NodeID

	Class     TrafficClass
	Switching Switching

	// Flits is the packet length in flits. Per Table I: 1 for
	// configuration messages, 4 for circuit-switched data, 5 for
	// packet-switched data (and for circuit-switched data when
	// vicinity-sharing adds a header flit).
	Flits int
	// PSFlits is the length this packet has in packet-switched form; a
	// circuit-switched packet that falls back to packet switching (or
	// continues after a vicinity hop-off) is re-sized to it.
	PSFlits int

	Config ConfigPayload

	// CreatedAt is the cycle the packet was handed to the source NI;
	// InjectedAt is the cycle its head flit entered the network;
	// EjectedAt is the cycle its tail flit reached the destination NI.
	CreatedAt  int64
	InjectedAt int64
	EjectedAt  int64

	// HopOffDst is set for vicinity-sharing: the circuit delivers the
	// packet to an intermediate node (Dst of the circuit) and the packet
	// continues packet-switched to HopOffDst.
	HopOffDst topology.NodeID
	HopOff    bool

	// Reply handling for the heterogeneous model: if ReplyFlits > 0 the
	// destination NI generates a reply of that many flits back to Src.
	ReplyFlits int
	// ReqID ties a reply to the request that caused it.
	ReqID uint64

	// SlackHint carries the sender's latency tolerance (in cycles beyond
	// the packet-switched estimate) so that reply generators can give
	// responses the same slack the requester advertised (Section V-A2's
	// warp-derived GPU slack).
	SlackHint int

	// store and ptrs are the packet's embedded flit storage, filled by
	// ExplodeInto and reused across re-explosions (vicinity hop-off
	// re-injection) and Pool recycles. Keeping the flits inside the
	// packet ties their lifetime to the packet's: when the tail flit is
	// delivered, every flit is provably dead too (flits of one packet
	// travel in order on one path), so the whole object can be recycled
	// at once. Not part of the invariant hash — only live flit values
	// reachable through simulation state are.
	store []Flit
	ptrs  []*Flit
}

// Flit is the unit of link-level transfer.
type Flit struct {
	Pkt  *Packet
	Type Type
	Seq  int // position within the packet, 0-based

	// VC is the virtual channel currently occupied (packet-switched only).
	VC int

	// CS marks a flit travelling on a reserved circuit.
	CS bool

	// BufferedAt is the cycle this flit was written into the current
	// router's input buffer (set per hop; used by the latency-based VC
	// gating policy to measure buffer residency).
	BufferedAt int64

	// Hitchhike marks a CS flit that is sharing another source's circuit
	// (Section III-A1). ShareIn is the router input port the shared
	// circuit enters on at the hop-on node; the router forwards the flit
	// from its local port to the circuit's reserved output, provided no
	// owner flit arrives on ShareIn in the same slot.
	Hitchhike bool
	ShareIn   topology.Port
}

// IsHead reports whether the flit carries routing info.
func (f *Flit) IsHead() bool { return f.Type == Head || f.Type == HeadTail }

// IsTail reports whether the flit ends its packet.
func (f *Flit) IsTail() bool { return f.Type == Tail || f.Type == HeadTail }

// ExplodeInto builds the flit sequence inside the packet's own embedded
// storage, allocating only on first use (or growth) of a given packet
// object. The returned slice and the flits it points to are owned by
// the packet: they are reused verbatim by the next ExplodeInto on the
// same packet and die with it when a Pool recycles it, so callers must
// not hold them past the packet's delivery.
func (p *Packet) ExplodeInto() []*Flit {
	n := flitCount(p)
	if cap(p.store) < n {
		// Round the capacity up so a recycled packet that carried a short
		// message (1-flit setup) grows at most once when reused for a
		// longer one: packet sizes in any given run are bounded, so the
		// stores converge and steady-state injection stops allocating.
		c := (n + 7) &^ 7
		p.store = make([]Flit, n, c)
		p.ptrs = make([]*Flit, n, c)
	}
	p.store = p.store[:n]
	p.ptrs = p.ptrs[:n]
	for i := 0; i < n; i++ {
		p.store[i] = Flit{}
		initFlit(&p.store[i], p, i, n)
		p.ptrs[i] = &p.store[i]
	}
	return p.ptrs
}

func flitCount(p *Packet) int {
	if p.Flits <= 0 {
		return 1
	}
	return p.Flits
}

func initFlit(f *Flit, p *Packet, i, n int) {
	var t Type
	switch {
	case n == 1:
		t = HeadTail
	case i == 0:
		t = Head
	case i == n-1:
		t = Tail
	default:
		t = Body
	}
	f.Pkt = p
	f.Type = t
	f.Seq = i
	f.CS = p.Switching == CircuitSwitched
}

// NetworkLatency returns inject-to-eject latency in cycles, or -1 if the
// packet has not been ejected.
func (p *Packet) NetworkLatency() int64 {
	if p.EjectedAt == 0 && p.InjectedAt == 0 {
		return -1
	}
	if p.EjectedAt < p.InjectedAt {
		return -1
	}
	return p.EjectedAt - p.InjectedAt
}

// TotalLatency returns creation-to-eject latency (includes source queueing
// and circuit-slot stall time), or -1 if not yet ejected.
func (p *Packet) TotalLatency() int64 {
	if p.EjectedAt < p.CreatedAt {
		return -1
	}
	return p.EjectedAt - p.CreatedAt
}
