// Package tablei holds the values of the paper's Table I, and the
// circuit-setup threshold of Section II-A, that more than one package
// reads. It imports nothing, so every layer can read it.
package tablei

const (
	VCs              = 4   // default virtual channels per input port
	BufDepth         = 5   // flits per VC buffer
	SlotTableEntries = 128 // default slot-table entries per input port (256 on 256-node meshes)
	DLTEntries       = 8   // entries of a node's destination lookup table
	SDMPlanes        = 4   // the SDM baseline's 4-byte planes of a 16-byte link
	PSDataFlits      = 5   // packet-switched data packet: a cache line plus a header flit
	SetupThreshold   = 4   // messages to one destination that request a circuit (TDM NIs and the SDM baseline)
)
