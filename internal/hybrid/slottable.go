// Package hybrid holds the data structures and policies that turn a
// canonical packet-switched router into the paper's TDM hybrid-switched
// router: per-input-port slot tables (Section II, Fig. 1), the destination
// lookup table used by hitchhiker-sharing (Section III-A1), the dynamic
// slot-table sizing policy (Section II-C), and the aggressive VC power
// gating policy (Section III-B).
//
// A slot-table entry is one packed word: the output port the paper's
// entry holds, and the cycle until which the entry routes. Folding the
// valid bit and the release grace into that one cycle makes the per-flit
// lookup a single load and compare, and leaves nothing to keep in step
// with the entries: a router's five tables are one slot-major slab of
// rows, and the output check scans a row instead of a reverse index.
//
// The package is deliberately free of router mechanics — it is pure state
// plus decision logic — so both the hybrid router pipeline
// (internal/router) and the network interfaces (internal/network) can use
// it, and so each behaviour is unit-testable in isolation.
package hybrid

import (
	"fmt"
	"math"

	"tdmnoc/internal/topology"
)

// GracePeriod is how many cycles a released slot keeps routing
// circuit-switched flits before becoming reusable. Teardown messages
// travel the packet-switched network while circuit-switched flits from
// path-sharing nodes may still be in flight behind them; the grace window
// lets those flits land instead of being misrouted. It exceeds the
// worst-case circuit flight time of the largest evaluated mesh (16x16).
const GracePeriod = 128

// slotEntry is one slot-table entry: the output port in the low portBits
// bits and, above them, the cycle until which the entry routes
// circuit-switched flits — forever while the entry is booked (the paper's
// valid bit), release + GracePeriod after a release, 0 if never booked.
// Within that window the entry also blocks its input slot and its output
// from new reservations.
type slotEntry int64

const (
	portBits = 3
	// forever is the until-cycle of a booked entry.
	forever = math.MaxInt64 >> portBits
)

// Every port must fit in portBits.
var _ [1<<portBits - int(topology.NumPorts)]struct{}

func packEntry(out topology.Port, until int64) slotEntry {
	return slotEntry(until<<portBits | int64(out))
}

func (e slotEntry) out() topology.Port { return topology.Port(e & (1<<portBits - 1)) }
func (e slotEntry) until() int64       { return int64(e >> portBits) }
func (e slotEntry) valid() bool        { return e.until() == forever }

// routes reports whether the entry still routes (and blocks) at cycle now.
func (e slotEntry) routes(now int64) bool { return now < e.until() }

// RouterTables is one router's per-input-port slot tables, stored
// slot-major: row s holds every input's entry for slot s, so reservation
// can enforce both failure modes of Fig. 1 — the input slot already
// taken (setup 2) and the output port already promised to another input
// at that slot (setup 3) — from one 40-byte row. Only the first Active()
// rows are powered; the rest are power-gated until the dynamic sizing
// policy doubles the active region (Section II-C).
type RouterTables struct {
	rows     [][topology.NumPorts]slotEntry // [slot][input port], capacity rows
	reserved [topology.NumPorts]int         // booked entries per input
	active   int

	// ReserveCap is the maximum occupancy per input table; allocation is
	// prohibited above it to prevent packet-switched starvation. The
	// paper sets it to 90 %.
	ReserveCap float64
}

// DefaultReserveCap is the paper's anti-starvation threshold.
const DefaultReserveCap = 0.90

// NewRouterTables creates the slot state for one router (a one-router
// TablesArena; grouped construction uses the arena directly). It panics
// on invalid sizes (programming errors).
func NewRouterTables(capacity, active int) *RouterTables {
	return NewTablesArena(1, capacity, active).New()
}

// Active returns the powered entry count per input table; slot
// arithmetic is modulo this.
func (rt *RouterTables) Active() int { return rt.active }

// Capacity returns the physical entry count per input table.
func (rt *RouterTables) Capacity() int { return len(rt.rows) }

// SlotOf reduces an absolute cycle to a slot index.
func (rt *RouterTables) SlotOf(cycle int64) int {
	return int(cycle % int64(rt.active))
}

// Lookup returns the reserved output for a flit arriving on input in at
// the given cycle (grace-window entries still route).
func (rt *RouterTables) Lookup(in topology.Port, cycle int64) (topology.Port, bool) {
	return rt.LookupSlot(in, rt.SlotOf(cycle), cycle)
}

// LookupSlot is Lookup with an explicit slot index.
func (rt *RouterTables) LookupSlot(in topology.Port, slot int, now int64) (topology.Port, bool) {
	if e := rt.rows[slot][in]; e.routes(now) {
		return e.out(), true
	}
	return 0, false
}

// ownerOf returns the input whose entry in row routes to out at cycle now.
// The reservation rules leave at most one: an output is not re-booked at a
// slot until its previous holder's entry, booked or graced, stops routing.
func ownerOf(row *[topology.NumPorts]slotEntry, out topology.Port, now int64) (topology.Port, bool) {
	for p, e := range row {
		if e.out() == out && e.routes(now) {
			return topology.Port(p), true
		}
	}
	return 0, false
}

// OutReservedAt reports whether output out is promised to a circuit at the
// given cycle, and if so which input port owns it. Time-slot stealing
// (Section II-D) consults this: a reserved output with no arriving CS flit
// may be used by a packet-switched flit.
func (rt *RouterTables) OutReservedAt(cycle int64, out topology.Port) (topology.Port, bool) {
	return ownerOf(&rt.rows[rt.SlotOf(cycle)], out, cycle)
}

// CanReserve reports whether dur consecutive slots starting at slot are
// free on input in toward output out at cycle now, under the occupancy cap.
func (rt *RouterTables) CanReserve(in, out topology.Port, slot, dur int, now int64) bool {
	if float64(rt.reserved[in]+dur) > rt.ReserveCap*float64(rt.active) {
		return false
	}
	for i := 0; i < dur; i++ {
		row := &rt.rows[(slot+i)%rt.active]
		if row[in].routes(now) {
			return false
		}
		if _, taken := ownerOf(row, out, now); taken {
			return false
		}
	}
	return true
}

// Reserve books dur consecutive slots from slot on input in toward output
// out. It reports false (leaving the tables untouched) if any slot is
// unavailable — reservation is all-or-nothing, matching the setup-message
// semantics where a failed hop aborts the whole reservation at that router.
func (rt *RouterTables) Reserve(in, out topology.Port, slot, dur int, now int64) bool {
	if !rt.CanReserve(in, out, slot, dur, now) {
		return false
	}
	for i := 0; i < dur; i++ {
		if e := &rt.rows[(slot+i)%rt.active][in]; !e.valid() {
			*e = packEntry(out, forever)
			rt.reserved[in]++
		}
	}
	return true
}

// Release clears dur consecutive slots from slot on input in, returning
// the output port the reservation used (needed by teardown messages to
// follow the path). It reports false if the first slot was not reserved.
// Cleared entries keep routing in-flight circuit-switched flits for
// GracePeriod cycles before becoming reservable again.
func (rt *RouterTables) Release(in topology.Port, slot, dur int, now int64) (topology.Port, bool) {
	first := rt.rows[slot%rt.active][in]
	if !first.valid() {
		return 0, false
	}
	for i := 0; i < dur; i++ {
		if e := &rt.rows[(slot+i)%rt.active][in]; e.valid() {
			*e = packEntry(e.out(), now+GracePeriod)
			rt.reserved[in]--
		}
	}
	return first.out(), true
}

// ReservedEntries returns the total booked entries across all input
// tables (used by tests and stats).
func (rt *RouterTables) ReservedEntries() int {
	n := 0
	for _, r := range rt.reserved {
		n += r
	}
	return n
}

// DurationAt counts the consecutive reserved slots on input in starting at
// slot that share one output port — recovering a live reservation's length
// from table state alone (used when advertising pass-through circuits to
// the DLT).
func (rt *RouterTables) DurationAt(in topology.Port, slot int, now int64) int {
	out, ok := rt.LookupSlot(in, slot, now)
	if !ok {
		return 0
	}
	n := 1
	for n < rt.active {
		o, ok := rt.LookupSlot(in, (slot+n)%rt.active, now)
		if !ok || o != out {
			break
		}
		n++
	}
	return n
}

// ActivePoweredEntries returns the number of powered slot-table entries in
// this router (active size times input ports) for leakage accounting.
func (rt *RouterTables) ActivePoweredEntries() int {
	return rt.active * int(topology.NumPorts)
}

// Reset invalidates every entry (graces included) and sets a new active
// size (used when the network-wide dynamic sizing policy doubles table
// size: "all slot tables are reset, and the path setup procedure
// restarts").
func (rt *RouterTables) Reset(newActive int) {
	if newActive <= 0 || newActive > len(rt.rows) {
		panic(fmt.Sprintf("hybrid: invalid active size %d", newActive))
	}
	clear(rt.rows)
	rt.reserved = [topology.NumPorts]int{}
	rt.active = newActive
}
