package hybrid

import (
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// DLTEntry records one circuit-switched connection passing through this
// node: the circuit's final destination, the slot (at this node's input)
// and duration of its reservation. A 2-bit saturating counter tracks
// sharing failures; when it saturates the entry is evicted and the node
// requests a dedicated circuit of its own (Section III-A1).
type DLTEntry struct {
	Valid bool
	Dest  topology.NodeID
	// Slot is the phase at which the circuit's flits traverse this node's
	// router, i.e. the reservation slot in this router's input table.
	Slot int
	// Dur is the reservation length in consecutive slots.
	Dur int
	// In is the router input port the circuit enters on; the hitchhiker
	// must check that no owner flit arrives on this port at its phase.
	In topology.Port
	// fail is the 2-bit saturating failure counter.
	fail uint8
	// stamp orders entries for LRU-style replacement.
	stamp uint64
}

// DLT is the Destination Lookup Table a node consults to hitchhike onto
// circuits that pass through it. The paper's evaluated configuration uses
// tablei.DLTEntries entries (under 16 bytes of state).
type DLT struct {
	entries []DLTEntry
	tick    uint64
}

// NewDLT creates a DLT with n entries (tablei.DLTEntries if n <= 0).
func NewDLT(n int) *DLT {
	if n <= 0 {
		n = tablei.DLTEntries
	}
	return &DLT{entries: make([]DLTEntry, n)}
}

// Size returns the entry count.
func (d *DLT) Size() int { return len(d.entries) }

// Update records (or refreshes) a circuit toward dest passing through this
// node at the given slot/duration, entering on input port in. The oldest
// entry is evicted when the table is full.
func (d *DLT) Update(dest topology.NodeID, slot, dur int, in topology.Port) {
	d.tick++
	oldest := 0
	for i := range d.entries {
		e := &d.entries[i]
		if e.Valid && e.Dest == dest {
			e.Slot, e.Dur, e.In = slot, dur, in
			e.fail = 0
			e.stamp = d.tick
			return
		}
		if !e.Valid {
			oldest = i
			break
		}
		if e.stamp < d.entries[oldest].stamp {
			oldest = i
		}
	}
	d.entries[oldest] = DLTEntry{Valid: true, Dest: dest, Slot: slot, Dur: dur, In: in, stamp: d.tick}
}

// Find returns the entry for an exact destination match.
func (d *DLT) Find(dest topology.NodeID) (DLTEntry, bool) {
	for i := range d.entries {
		if d.entries[i].Valid && d.entries[i].Dest == dest {
			return d.entries[i], true
		}
	}
	return DLTEntry{}, false
}

// FindAdjacent returns an entry whose destination is one hop from dest —
// the combined hitchhiker + vicinity case where a message hops on at this
// node and hops off next to its real destination.
func (d *DLT) FindAdjacent(m topology.Mesh, dest topology.NodeID) (DLTEntry, bool) {
	for i := range d.entries {
		e := d.entries[i]
		if e.Valid && m.Adjacent(e.Dest, dest) {
			return e, true
		}
	}
	return DLTEntry{}, false
}

// Remove invalidates the entry for dest.
func (d *DLT) Remove(dest topology.NodeID) {
	for i := range d.entries {
		if d.entries[i].Valid && d.entries[i].Dest == dest {
			d.entries[i] = DLTEntry{}
			return
		}
	}
}

// RecordFailure bumps the 2-bit saturating counter for dest and reports
// whether it has saturated (counter reaches binary '10'); on saturation
// the entry is removed and the caller should issue a dedicated path setup.
func (d *DLT) RecordFailure(dest topology.NodeID) (saturated bool) {
	for i := range d.entries {
		e := &d.entries[i]
		if e.Valid && e.Dest == dest {
			if e.fail < 3 {
				e.fail++
			}
			if e.fail >= 2 {
				d.entries[i] = DLTEntry{}
				return true
			}
			return false
		}
	}
	return false
}

// RecordSuccess decays the failure counter for dest toward zero.
func (d *DLT) RecordSuccess(dest topology.NodeID) {
	for i := range d.entries {
		e := &d.entries[i]
		if e.Valid && e.Dest == dest && e.fail > 0 {
			e.fail--
			return
		}
	}
}

// Reset invalidates all entries (used on network-wide slot-table resizes,
// which destroy every circuit the DLT refers to).
func (d *DLT) Reset() {
	for i := range d.entries {
		d.entries[i] = DLTEntry{}
	}
}
