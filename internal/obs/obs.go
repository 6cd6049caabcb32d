// Package obs is the cycle-level observability subsystem: per-worker
// sharded event rings written through concrete per-tile Handles threaded
// into the router pipeline, the hybrid circuit-switching layer, the
// network interfaces and the power meters, with three sinks on top — a
// Chrome trace-event / Perfetto exporter, a time-series collector
// rendered via internal/textplot, and a compact JSON summary for the
// nocsimd service and the campaign result store.
//
// The contract that makes tracing affordable:
//
//   - Disabled path: every emission site is guarded by a plain nil
//     check on the owner's *Handle field. No call, no event
//     construction, no allocation — the zero-allocation steady state of
//     the cycle hot path is preserved bit-for-bit.
//   - Enabled path: Handle.Emit is a concrete (devirtualized) call that
//     checks a kind mask (a masked-out kind costs one branch), bumps the
//     owning Shard's counters, and pushes into that shard's bounded
//     power-of-two ring, preallocated up front. When a ring is full the
//     oldest event is overwritten and a drop counter increments; Emit
//     never allocates, so a traced steady-state cycle stays
//     allocation-free.
//   - Parallel path: each executor worker owns one Shard; tiles emit
//     only into their owner's shard, so no cross-worker sharing exists
//     during a cycle, and the executor's phase barriers order shard
//     writes before the caller's between-cycle Sync/export reads.
//     WriteTrace merges the shard rings in place into the single
//     deterministic timeline at export, byte-identical across worker
//     counts.
//
// Handles run inside compute/transfer ticks; everything else on the
// Recorder (Sync, Summary, export) belongs to the caller goroutine
// between cycles.
package obs

// Kind classifies one observed event.
type Kind uint8

const (
	// KindInject: a packet's head flit was staged onto the local link
	// (Val = packet length in flits, B = 1 for circuit-switched).
	KindInject Kind = iota
	// KindEject: a packet fully reassembled at its destination NI
	// (Val = injection-to-ejection latency in cycles).
	KindEject
	// KindBufferWrite: a packet-switched flit entered an input VC buffer.
	KindBufferWrite
	// KindRouteCompute: the RC stage resolved a data route (A = in port,
	// B = out port).
	KindRouteCompute
	// KindVCAlloc: the VA stage granted a downstream VC (Val = VC index).
	KindVCAlloc
	// KindSwitchAlloc: the SA stage granted the crossbar (A = in, B = out).
	KindSwitchAlloc
	// KindSwitchTraverse: the ST stage moved a flit through the crossbar.
	KindSwitchTraverse
	// KindLinkTraverse: a flit crossed a link (LT). Node/A identify the
	// sending router and its output port; B = 1 for circuit-switched.
	KindLinkTraverse
	// KindCreditStall: an otherwise-ready VC lost its SA bid for lack of
	// downstream credits (A = in port, B = out port).
	KindCreditStall
	// KindCSBypass: a circuit-switched flit took the single-cycle bypass.
	KindCSBypass
	// KindSetupReserve: a setup message reserved slots at this router.
	KindSetupReserve
	// KindSetupFail: a setup message was rejected at this router.
	KindSetupFail
	// KindSetupAck: a setup converted into an ack here (B = 1 on success).
	KindSetupAck
	// KindTeardownRelease: a teardown released slots at this router.
	KindTeardownRelease
	// KindSlotSteal: a packet-switched flit used a reserved-but-idle slot.
	KindSlotSteal
	// KindSetupLatency: a source NI observed one setup round trip
	// (Val = request-to-ack cycles, B = 1 on success).
	KindSetupLatency
	// KindDLTAdd / KindDLTRemove: destination-lookup-table maintenance.
	KindDLTAdd
	KindDLTRemove
	// KindSlotResize: the dynamic sizing policy doubled the active
	// slot-table region (Val = new active size).
	KindSlotResize
	// KindQueueDepth: sampled NI injection backlog (gauge, Val = packets).
	KindQueueDepth
	// KindVCOccupancy: sampled buffered flits across a router's input VCs.
	KindVCOccupancy
	// KindSlotOccupancy: sampled reserved slot-table entries of a router
	// (Val = reserved entries, Slot = active region size).
	KindSlotOccupancy
	// KindEnergySample: cumulative per-component energy attribution
	// (A = power.Component index, Val = milli-picojoules since the last
	// meter reset).
	KindEnergySample

	numKinds
)

// String returns a short mnemonic (also the Perfetto event name).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

var kindNames = [numKinds]string{
	KindInject:          "inject",
	KindEject:           "eject",
	KindBufferWrite:     "bufw",
	KindRouteCompute:    "rc",
	KindVCAlloc:         "va",
	KindSwitchAlloc:     "sa",
	KindSwitchTraverse:  "st",
	KindLinkTraverse:    "lt",
	KindCreditStall:     "credit-stall",
	KindCSBypass:        "cs-bypass",
	KindSetupReserve:    "cs-setup",
	KindSetupFail:       "cs-setup-fail",
	KindSetupAck:        "cs-ack",
	KindTeardownRelease: "cs-teardown",
	KindSlotSteal:       "slot-steal",
	KindSetupLatency:    "setup-latency",
	KindDLTAdd:          "dlt-add",
	KindDLTRemove:       "dlt-remove",
	KindSlotResize:      "slot-resize",
	KindQueueDepth:      "ni-queue",
	KindVCOccupancy:     "vc-occupancy",
	KindSlotOccupancy:   "slot-occupancy",
	KindEnergySample:    "energy",
}

// Event is one observed fact. The field meanings vary slightly per Kind
// (see the Kind constants); unused fields are zero. Events are plain
// values with no pointers, so the ring buffer holds them without
// generating garbage.
type Event struct {
	// Cycle is the simulation cycle the event occurred in.
	Cycle int64
	// Pkt is the packet id, when the event concerns one.
	Pkt uint64
	// Val is the kind-specific scalar (latency, occupancy, energy, ...).
	Val int64
	// Node is the router / NI the event belongs to (-1 = network-wide).
	Node int32
	// Seq is the flit sequence number within its packet.
	Seq int32
	// Slot is the slot-table slot involved, when any.
	Slot int32
	// Kind classifies the event.
	Kind Kind
	// A and B are kind-specific small arguments (usually ports).
	A, B uint8
}
