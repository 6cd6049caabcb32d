package hybrid

import (
	"fmt"

	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
)

// TablesArena block-allocates the slot-table state of a group of routers
// out of two slabs sized once at construction: one RouterTables header
// per router, and one slab of packed rows carved capacity rows per
// router. A router's slot state is the hottest per-cycle hybrid
// structure (the demux consults it for every arrival), and the arena
// keeps one executor partition's tables adjacent in memory.
//
// Carved slices use full-capacity (three-index) expressions, so an
// out-of-contract append can never bleed into a neighbouring router's
// rows.
type TablesArena struct {
	tables   []RouterTables
	rows     [][topology.NumPorts]slotEntry
	capacity int
	active   int
	used     int
}

// NewTablesArena creates an arena with room for count routers' tables,
// each with the given per-input-port capacity and initial active size.
func NewTablesArena(count, capacity, active int) *TablesArena {
	if count <= 0 {
		panic(fmt.Sprintf("hybrid: invalid arena count %d", count))
	}
	if capacity <= 0 || active <= 0 || active > capacity {
		panic(fmt.Sprintf("hybrid: invalid slot table sizes capacity=%d active=%d", capacity, active))
	}
	return &TablesArena{
		tables:   make([]RouterTables, count),
		rows:     make([][topology.NumPorts]slotEntry, count*capacity),
		capacity: capacity,
		active:   active,
	}
}

// New carves the next router's tables from the arena. The returned
// pointer is stable for the arena's lifetime. Panics when the arena is
// exhausted (a construction-time sizing bug).
func (a *TablesArena) New() *RouterTables {
	if a.used >= len(a.tables) {
		panic(fmt.Sprintf("hybrid: arena exhausted after %d routers", a.used))
	}
	i := a.used
	a.used++
	rt := &a.tables[i]
	rt.active = a.active
	rt.ReserveCap = DefaultReserveCap
	off := i * a.capacity
	rt.rows = a.rows[off : off+a.capacity : off+a.capacity]
	return rt
}

// Bytes returns the arena's slab sizes: the packed entry rows, and the
// per-router RouterTables headers.
func (a *TablesArena) Bytes() (rows, headers int) {
	return sim.SlabBytes(a.rows), sim.SlabBytes(a.tables)
}
