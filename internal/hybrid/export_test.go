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
		row := &rt.rows[s]
		// Only a booked entry still routes at cycle forever-1.
		if _, east := ownerOf(row, topology.East, forever-1); !row[topology.North].valid() && !row[topology.South].valid() && !east {
			return s
		}
	}
	panic("hybrid: no free slot")
}

// FaultTwoOwners books a free slot toward East from both North and
// South — the output conflict of Fig. 1's setup 3, which Reserve refuses
// — keeping the reserved counters consistent. It returns the slot.
func (rt *RouterTables) FaultTwoOwners() int {
	s := rt.freeSlot()
	for _, in := range []topology.Port{topology.North, topology.South} {
		rt.rows[s][in] = packEntry(topology.East, forever)
		rt.reserved[in]++
	}
	return s
}

// FaultReserved bumps input in's reserved counter without booking an
// entry.
func (rt *RouterTables) FaultReserved(in topology.Port) { rt.reserved[in]++ }

// FaultBeyondActive books the first entry past the active region on
// input North (counter kept consistent) and returns its slot.
func (rt *RouterTables) FaultBeyondActive() int {
	s := rt.active
	rt.rows[s][topology.North] = packEntry(topology.East, forever)
	rt.reserved[topology.North]++
	return s
}

// SetActive forces the gate's active VC count, clamped to
// [minVCs, maxVCs].
func (g *VCGate) SetActive(n int) { g.active = min(max(n, minVCs), g.maxVCs) }

// SetActiveForTest forces the latency gate's active count, clamped.
func (g *LatencyVCGate) SetActiveForTest(n int) { g.active = min(max(n, minVCs), g.maxVCs) }
