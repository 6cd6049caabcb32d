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
//   - each input table's reserved counter equals its count of valid
//     entries, and no valid entry sits beyond the active region;
//   - at most one input port owns a given (slot, output) pair — two
//     live circuits must never be granted the same output at the same
//     phase (Fig. 1 setups 2 and 3);
//   - the reverse outBusy index agrees with the forward tables: busy
//     exactly when some input holds a valid entry toward that output.
func (rt *RouterTables) Walk(h *invariant.Hasher, report func(kind, detail string)) {
	check := report != nil
	h.Int(rt.active)
	// owners[s][o] has bit p set when input p holds a valid entry toward
	// output o at slot s.
	var owners [][topology.NumPorts]uint8
	if check {
		owners = make([][topology.NumPorts]uint8, rt.active)
	}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		tbl := rt.in[p]
		entries := tbl.entries[:rt.active]
		if check {
			entries = tbl.entries // the checks look past the active region too
		}
		valid := 0
		for s, e := range entries {
			if s < rt.active {
				h.Bool(e.Valid)
				h.Byte(byte(e.Out))
				h.Int64(e.GraceUntil)
			}
			if !check || !e.Valid {
				continue
			}
			valid++
			if s >= rt.active {
				report("slot-table", fmt.Sprintf("input %v slot %d valid beyond active region %d", p, s, rt.active))
				continue
			}
			owners[s][e.Out] |= 1 << p
		}
		if check && valid != tbl.reserved {
			report("slot-table", fmt.Sprintf("input %v reserved counter %d but %d valid entries", p, tbl.reserved, valid))
		}
	}
	for s := 0; s < rt.active; s++ {
		for o := topology.Port(0); o < topology.NumPorts; o++ {
			busy := rt.outBusy[s][o]
			h.Bool(busy)
			h.Int64(rt.outGrace[s][o])
			if !check {
				continue
			}
			n := bits.OnesCount8(owners[s][o])
			if n > 1 {
				first := topology.Port(bits.TrailingZeros8(owners[s][o]))
				report("slot-table", fmt.Sprintf("slot %d output %v claimed by %d inputs (first %v)", s, o, n, first))
			}
			if busy != (n > 0) {
				report("slot-table", fmt.Sprintf("slot %d output %v outBusy=%v but %d owning inputs", s, o, busy, n))
			}
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
