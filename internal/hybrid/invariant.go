package hybrid

import (
	"fmt"
	"math/bits"

	"tdmnoc/internal/invariant"
	"tdmnoc/internal/topology"
)

// Walk is the slot tables' one state walk. It folds the tables into h —
// the active region only: entries beyond it are always zero (Reset wipes
// the whole table before shrinking or growing the active size, and every
// mutation indexes modulo active) — and, when report is non-nil, checks
// them against the ownership invariants the setup protocol is supposed to
// maintain, passing each violation to report as (kind, detail):
//
//   - each input table's reserved counter equals its count of booked
//     entries, and no booked entry sits beyond the active region;
//   - at most one input port owns a given (slot, output) pair — two
//     live circuits must never be granted the same output at the same
//     phase (Fig. 1 setups 2 and 3).
//
// Each entry is hashed as its valid bit, output port and grace deadline
// (0 while booked), input by input.
func (rt *RouterTables) Walk(h *invariant.Hasher, report func(kind, detail string)) {
	h.Int(rt.active)
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		for _, row := range rt.rows[:rt.active] {
			e := row[p]
			h.Bool(e.valid())
			h.Byte(byte(e.out()))
			if e.valid() {
				h.Int64(0)
			} else {
				h.Int64(e.until())
			}
		}
	}
	if report == nil {
		return
	}
	var booked [topology.NumPorts]int
	for s := range rt.rows { // the checks look past the active region too
		// owners[o] has bit p set when input p holds a booked entry
		// toward output o.
		var owners [topology.NumPorts]uint8
		for p, e := range rt.rows[s] {
			if !e.valid() {
				continue
			}
			booked[p]++
			if s >= rt.active {
				report("slot-table", fmt.Sprintf("input %v slot %d valid beyond active region %d", topology.Port(p), s, rt.active))
				continue
			}
			owners[e.out()] |= 1 << p
		}
		for o, m := range owners {
			if n := bits.OnesCount8(m); n > 1 {
				first := topology.Port(bits.TrailingZeros8(m))
				report("slot-table", fmt.Sprintf("slot %d output %v claimed by %d inputs (first %v)", s, topology.Port(o), n, first))
			}
		}
	}
	for p, n := range booked {
		if n != rt.reserved[p] {
			report("slot-table", fmt.Sprintf("input %v reserved counter %d but %d valid entries", topology.Port(p), rt.reserved[p], n))
		}
	}
}

// HashState folds the gate's accumulator state into h: the observation
// counters decide future adjustments, so a divergence here surfaces
// cycles before the active VC count itself changes.
func (g *VCGate) HashState(h *invariant.Hasher) {
	h.Int(g.active)
	h.Int64(g.busyAccum)
	h.Int64(g.obsCycles)
}

// HashState folds the latency gate's accumulator state into h.
func (g *LatencyVCGate) HashState(h *invariant.Hasher) {
	h.Int(g.active)
	h.Int64(g.delaySum)
	h.Int64(g.delayN)
}

// HashState folds the resizer's policy state into h: the
// consecutive-failure count decides when the next doubling fires.
func (r *Resizer) HashState(h *invariant.Hasher) {
	h.Int(r.active)
	h.Int(r.consecFails)
	h.Int(r.resizeEvents)
}

// HashState folds the DLT's full state — including the unexported
// failure counters and LRU stamps, which influence future sharing
// decisions — into h.
func (d *DLT) HashState(h *invariant.Hasher) {
	h.Uint64(d.tick)
	for i := range d.entries {
		e := d.entries[i]
		h.Bool(e.Valid)
		h.Int(int(e.Dest))
		h.Int(e.Slot)
		h.Int(e.Dur)
		h.Byte(byte(e.In))
		h.Byte(e.fail)
		h.Uint64(e.stamp)
	}
}
