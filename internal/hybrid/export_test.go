package hybrid

import "tdmnoc/internal/topology"

// Seeded slot-table faults for the invariant checker's tests
// (violation_test.go). Each breaks exactly one ownership invariant of a
// router's tables between cycles and keeps the others holding, so the
// report names the broken one.

// freeSlot returns the first active slot at which neither North nor
// South holds a valid entry and no input holds East.
func (rt *RouterTables) freeSlot() int {
	for s := 0; s < rt.active; s++ {
		if !rt.in[topology.North].entries[s].Valid && !rt.in[topology.South].entries[s].Valid && !rt.outBusy[s][topology.East] {
			return s
		}
	}
	panic("hybrid: no free slot")
}

// FaultTwoOwners books a free slot toward East from both North and
// South — the output conflict of Fig. 1's setup 3, which Reserve refuses
// — keeping the reserved counters and outBusy consistent. It returns the
// slot.
func (rt *RouterTables) FaultTwoOwners() int {
	s := rt.freeSlot()
	for _, in := range []topology.Port{topology.North, topology.South} {
		rt.in[in].entries[s] = SlotEntry{Valid: true, Out: topology.East}
		rt.in[in].reserved++
	}
	rt.outBusy[s][topology.East] = true
	rt.outOwner[s][topology.East] = topology.North
	return s
}

// FaultOutBusy marks East promised at a free slot no input holds toward
// it, so the reverse index disagrees with the forward tables. It returns
// the slot.
func (rt *RouterTables) FaultOutBusy() int {
	s := rt.freeSlot()
	rt.outBusy[s][topology.East] = true
	return s
}

// FaultReserved bumps input in's reserved counter without booking an
// entry.
func (rt *RouterTables) FaultReserved(in topology.Port) { rt.in[in].reserved++ }

// FaultBeyondActive books the first entry past the active region on
// input North (counter kept consistent) and returns its slot.
func (rt *RouterTables) FaultBeyondActive() int {
	s := rt.active
	rt.in[topology.North].entries[s] = SlotEntry{Valid: true, Out: topology.East}
	rt.in[topology.North].reserved++
	return s
}
