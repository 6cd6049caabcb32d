package power

import (
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// Area model reproducing the Section IV-A accounting: synthesised with the
// Nangate Open Cell Library at 45 nm, a packet-switched router occupies
// 0.177 mm^2 and a hybrid-switched router 0.188 mm^2, a 6.2 % overhead.
// The model decomposes those totals into per-component contributions so
// configuration changes (VC count, buffer depth, slot-table size) move the
// totals plausibly.

// Per-component area constants in mm^2, calibrated so a 5-port, 4-VC,
// 5-deep-buffer router totals 0.177 mm^2 and adding 128-entry slot tables
// per input port plus CS latches and an 8-entry DLT totals 0.188 mm^2.
const (
	areaBufferPerSlot  = 0.00082 // per flit-slot of input buffering: 100 slots -> 0.082 mm^2 (buffers dominate)
	areaXbar           = 0.052   // matrix crossbar (5x5, 16-byte channel)
	areaAlloc          = 0.012   // VC + switch allocators
	areaClockMisc      = 0.031   // clock tree, control, misc
	areaSlotPerEntry   = 1.45e-5 // per slot-table entry (per input port): 640 entries -> 0.00928 mm^2
	areaCSLatchPerPort = 2.6e-4  // circuit-switched latch + demux per input port: 5 ports -> 0.0013 mm^2
	areaDLTPerEntry    = 4.0e-5  // destination lookup table entry: 8 entries -> 0.00032 mm^2
)

// RouterAreaConfig describes the structures whose area is counted on
// each mesh port; VC depth and DLT size are tablei's.
type RouterAreaConfig struct {
	VCsPerPort int
	// Hybrid extensions; zero values describe a pure packet-switched router.
	SlotTableEntries int // per input port
	Hybrid           bool
}

// RouterAreaMM2 returns the router area in mm^2.
func RouterAreaMM2(c RouterAreaConfig) float64 {
	ports := int(topology.NumPorts)
	area := float64(ports*c.VCsPerPort*tablei.BufDepth)*areaBufferPerSlot +
		areaXbar + areaAlloc + areaClockMisc
	if c.Hybrid {
		area += float64(ports*c.SlotTableEntries) * areaSlotPerEntry
		area += float64(ports) * areaCSLatchPerPort
		area += float64(tablei.DLTEntries) * areaDLTPerEntry
	}
	return area
}
