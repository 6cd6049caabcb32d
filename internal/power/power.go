// Package power is the reproduction's stand-in for Orion 2.0 plus the
// paper's RTL calibration: a parametric event-based energy model for NoC
// routers at 45 nm / 1.0 V / 1.5 GHz (Table I).
//
// The model is deliberately simple and transparent: every router keeps
// integer counters of microarchitectural events (buffer reads/writes,
// crossbar traversals, arbitrations, link flits, slot-table accesses) and
// integer integrators of leaky-component occupancy (active buffer slots x
// cycles, active slot-table entries x cycles). Energy is computed only at
// report time from the counters and the calibrated per-event constants
// below.
//
// Absolute joules are not the point — the paper reports *relative* savings
// — so the constants are calibrated to make the baseline
// packet-switched router's energy breakdown match the proportions of
// Fig. 9 (buffers roughly a third of dynamic energy, clock a quarter, link
// a fifth; leakage dominated by input buffers). All savings reported by
// the experiments are measured outcomes of the simulation, not assertions.
package power

import "fmt"

// Component identifies an energy sink in the breakdown, matching the
// categories of Fig. 9.
type Component int

const (
	// CompBuffer is input buffer read/write energy and buffer leakage.
	CompBuffer Component = iota
	// CompCS is everything added for circuit switching: slot tables,
	// circuit-switched latches, demultiplexers, and the DLT.
	CompCS
	// CompXbar is crossbar traversal energy and leakage.
	CompXbar
	// CompArb is VC and switch allocator energy.
	CompArb
	// CompClock is the router clock tree.
	CompClock
	// CompLink is inter-router wire energy.
	CompLink
	// NumComponents is the number of breakdown categories.
	NumComponents
)

// String returns the Fig. 9 label for the component.
func (c Component) String() string {
	switch c {
	case CompBuffer:
		return "buffer"
	case CompCS:
		return "cs-component"
	case CompXbar:
		return "crossbar"
	case CompArb:
		return "arbiter"
	case CompClock:
		return "clock"
	case CompLink:
		return "link"
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// The calibrated 45 nm / 1.0 V / 1.5 GHz technology constants (Table I).
// Dynamic energies are picojoules per event; leakage values are
// milliwatts per leaking instance.
const (
	// frequencyHz converts cycles to seconds for static energy.
	frequencyHz = 1.5e9

	bufferWritePJ   = 1.15  // per flit written into an input VC buffer
	bufferReadPJ    = 0.95  // per flit read out of an input VC buffer
	xbarPJ          = 0.84  // per flit crossing the crossbar
	vcArbPJ         = 0.12  // per VC allocation performed
	swArbPJ         = 0.12  // per switch allocation grant
	linkPJ          = 1.20  // per flit per link traversal
	clockPJPerCycle = 0.80  // clock tree, per router per cycle (gated off with the router idle fraction)
	slotReadPJ      = 0.020 // per slot-table lookup
	slotWritePJ     = 0.055 // per slot-table entry update
	csLatchPJ       = 0.060 // per circuit-switched flit latched/bypassing
	dltPJ           = 0.030 // per destination-lookup-table access

	bufferLeakMWPerSlot  = 0.0200   // per flit-slot of active buffering: 100 slots (5 ports x 4 VCs x 5 deep) -> 2.0 mW/router
	slotLeakMWPerEntry   = 0.000115 // per active slot-table entry (per input port)
	xbarLeakMW           = 0.22     // per router
	arbLeakMW            = 0.06     // per router
	csFixedLeakMW        = 0.018    // latches + demux + comparators, per hybrid router
	clockLeakMW          = 0.30     // per router
	linkLeakMWPerChannel = 0.020    // per unidirectional link
)

// RouterMeter accumulates energy-relevant events for one router (plus its
// outgoing links). All fields are plain integers so the per-cycle cost of
// metering is negligible and report-time conversion is exact.
type RouterMeter struct {
	// Dynamic event counts.
	BufWrites   int64
	BufReads    int64
	XbarFlits   int64
	VCArbs      int64
	SWArbs      int64
	LinkFlits   int64
	SlotReads   int64
	SlotWrites  int64
	CSLatches   int64
	DLTAccesses int64

	// ActiveCycles counts cycles in which the router did any work; the
	// clock tree burns dynamic energy only on those (simple clock gating).
	ActiveCycles int64
	// Cycles counts every simulated cycle (for leakage).
	Cycles int64

	// Leakage integrators: instance-cycles of powered-on state.
	BufSlotCycles   int64 // active buffer slots x cycles (VC power gating shrinks this)
	SlotEntryCycles int64 // active slot-table entries x cycles (dynamic sizing shrinks this)
	CSCycles        int64 // cycles the fixed CS hardware is present (0 for pure PS routers)
	LinkChannels    int64 // number of outgoing channels (leak for Cycles)
}

// Breakdown is per-component dynamic and static energy in picojoules.
type Breakdown struct {
	DynamicPJ [NumComponents]float64
	StaticPJ  [NumComponents]float64
}

// TotalDynamicPJ sums dynamic energy across components.
func (b Breakdown) TotalDynamicPJ() float64 {
	t := 0.0
	for _, v := range b.DynamicPJ {
		t += v
	}
	return t
}

// TotalStaticPJ sums static energy across components.
func (b Breakdown) TotalStaticPJ() float64 {
	t := 0.0
	for _, v := range b.StaticPJ {
		t += v
	}
	return t
}

// TotalPJ is dynamic + static energy.
func (b Breakdown) TotalPJ() float64 { return b.TotalDynamicPJ() + b.TotalStaticPJ() }

// Add accumulates o into b and returns the sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	for i := 0; i < int(NumComponents); i++ {
		b.DynamicPJ[i] += o.DynamicPJ[i]
		b.StaticPJ[i] += o.StaticPJ[i]
	}
	return b
}

// leakPJ converts mW sustained for cycles at frequencyHz to picojoules:
// mW * 1e-3 W * (cycles / f) s * 1e12 pJ/J.
func leakPJ(mw float64, cycles int64) float64 {
	return mw * 1e9 * float64(cycles) / frequencyHz
}

// Report converts the meter's counters into an energy breakdown.
func (m *RouterMeter) Report() Breakdown {
	var b Breakdown
	b.DynamicPJ[CompBuffer] = float64(m.BufWrites)*bufferWritePJ + float64(m.BufReads)*bufferReadPJ
	b.DynamicPJ[CompXbar] = float64(m.XbarFlits) * xbarPJ
	b.DynamicPJ[CompArb] = float64(m.VCArbs)*vcArbPJ + float64(m.SWArbs)*swArbPJ
	b.DynamicPJ[CompLink] = float64(m.LinkFlits) * linkPJ
	b.DynamicPJ[CompClock] = float64(m.ActiveCycles) * clockPJPerCycle
	b.DynamicPJ[CompCS] = float64(m.SlotReads)*slotReadPJ +
		float64(m.SlotWrites)*slotWritePJ +
		float64(m.CSLatches)*csLatchPJ +
		float64(m.DLTAccesses)*dltPJ

	b.StaticPJ[CompBuffer] = leakPJ(bufferLeakMWPerSlot, m.BufSlotCycles)
	b.StaticPJ[CompCS] = leakPJ(slotLeakMWPerEntry, m.SlotEntryCycles) +
		leakPJ(csFixedLeakMW, m.CSCycles)
	b.StaticPJ[CompXbar] = leakPJ(xbarLeakMW, m.Cycles)
	b.StaticPJ[CompArb] = leakPJ(arbLeakMW, m.Cycles)
	b.StaticPJ[CompClock] = leakPJ(clockLeakMW, m.Cycles)
	b.StaticPJ[CompLink] = leakPJ(linkLeakMWPerChannel, m.Cycles*m.LinkChannels)
	return b
}

// Reset zeroes every counter. LinkChannels is kept: it counts the
// router's channels, a structure, not an accumulator.
func (m *RouterMeter) Reset() { *m = RouterMeter{LinkChannels: m.LinkChannels} }
