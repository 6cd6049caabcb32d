// Package router implements the virtual-channelled wormhole router of
// Table I and its hybrid-switched extension (Fig. 2): slot tables,
// circuit-switched latches, and the demultiplexer that steers each
// incoming flit to the packet- or circuit-switched datapath.
package router

import "fmt"

// Config selects the router variant and sizes its structures: the
// router's hot-path view of the public configuration, which the network
// derives from network.Params in one function.
//
// Timing model (matching Section II-D):
//
//   - A packet-switched head flit arriving at cycle T is buffered and
//     route-computed at T, VC-allocated at T+1, switch-allocated at T+2,
//     traverses the crossbar at T+3, spends T+4 on the link, and is
//     processed by the downstream router at T+5 — the classic 4-stage
//     pipeline plus link traversal.
//   - A circuit-switched flit arriving at cycle T proceeds through the
//     router in that single cycle (the crossbar was configured in advance
//     from the slot table), spends T+1 on the link, and reaches the
//     downstream router at T+2. This is why setup messages increment
//     their slot id by 2 per hop.
type Config struct {
	// VCs is the number of virtual channels per input port (Table I: 4).
	// Each holds tablei.BufDepth flits.
	VCs int

	// Hybrid enables the circuit-switched datapath: slot tables, CS
	// latches and the input demultiplexer.
	Hybrid bool
	// SlotCapacity is the physical slot-table size per input port
	// (Table I: 128; 256 for the 16x16 scalability study).
	SlotCapacity int
	// SlotActive is the initially powered slot-table region; the dynamic
	// sizing policy may grow it up to SlotCapacity.
	SlotActive int
	// TimeSlotStealing lets packet-switched flits use reserved crossbar
	// slots whose circuit-switched flit did not show up (Section II-D).
	TimeSlotStealing bool
	// Sharing enables the DLT and hitchhiker/vicinity path sharing
	// (Section III-A); it only sizes router state here — the sharing
	// decisions are made at the network interfaces.
	Sharing bool

	// VCGating enables the aggressive VC power gating policy
	// (Section III-B).
	VCGating bool
	// LatencyVCGating replaces the utilisation-driven policy with the
	// buffer-residency-driven refinement the paper suggests in
	// Section V-B4. Implies VC power gating.
	LatencyVCGating bool

	// SAIterations is the number of iSLIP-style iterations the switch
	// allocator runs per cycle (default 1, the classic separable
	// allocator). Extra iterations find larger input/output matchings
	// under contention at the cost of allocator energy.
	SAIterations int
}

func (c Config) validate() {
	if c.VCs <= 0 || c.VCs > MaxVCs {
		panic(fmt.Sprintf("router: %d VCs outside [1, %d], the range the occupancy masks hold", c.VCs, MaxVCs))
	}
	if c.Hybrid {
		if c.SlotCapacity <= 0 || c.SlotActive <= 0 || c.SlotActive > c.SlotCapacity {
			panic("router: invalid slot table sizing")
		}
	}
}
