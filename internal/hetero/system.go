package hetero

import (
	"tdmnoc/internal/network"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/workload"
)

// memLatencyEstimate (cycles) seeds the warp-pool compute-time
// derivation.
const memLatencyEstimate = 60

// System is the tile population of one heterogeneous multicore
// simulation: a workload mix (one CPU benchmark on every CPU tile, one
// GPU kernel on every accelerator tile) plus the L2 banks and memory
// controllers that serve them. It owns no network — Endpoint is the
// network.EndpointFactory that wires the tiles onto one, and the network
// must have the layout's mesh dimensions.
type System struct {
	Layout Layout

	cpu workload.CPUBenchmark
	gpu workload.GPUBenchmark

	cpus  []*CPUCore
	gpus  []*GPUCore
	banks []*L2Bank
	mcs   []*MemController
}

// NewSystem prepares a workload mix for a layout (see LayoutFor).
func NewSystem(layout Layout, cpu workload.CPUBenchmark, gpu workload.GPUBenchmark) *System {
	return &System{Layout: layout, cpu: cpu, gpu: gpu}
}

// Endpoint builds the tile model for node id; pass it to network.New.
func (s *System) Endpoint(id topology.NodeID) network.Endpoint {
	switch s.Layout.Kind(id) {
	case TileCPU:
		c := NewCPUCore(&s.Layout, s.cpu)
		s.cpus = append(s.cpus, c)
		return c
	case TileGPU:
		g := NewGPUCore(&s.Layout, s.gpu, id, memLatencyEstimate)
		s.gpus = append(s.gpus, g)
		return g
	case TileL2:
		b := NewL2Bank(&s.Layout, id)
		s.banks = append(s.banks, b)
		return b
	default:
		m := NewMemController()
		s.mcs = append(s.mcs, m)
		return m
	}
}

// Halt stops every core from issuing new memory operations. Banks and
// controllers keep answering, so requests already in the network still
// complete and the network can drain.
func (s *System) Halt() {
	for _, c := range s.cpus {
		c.halted = true
	}
	for _, g := range s.gpus {
		g.halted = true
	}
}

// ResetCounters zeroes the performance counters; called when measurement
// starts so speedups cover the measured region only.
func (s *System) ResetCounters() {
	for _, c := range s.cpus {
		c.Retired = 0
	}
	for _, g := range s.gpus {
		g.Iterations = 0
	}
}

// CPUInstructions is the total retired across CPU tiles since the last
// ResetCounters.
func (s *System) CPUInstructions() int64 {
	var n int64
	for _, c := range s.cpus {
		n += c.Retired
	}
	return n
}

// GPUIterations is the total completed warp memory operations since the
// last ResetCounters.
func (s *System) GPUIterations() int64 {
	var n int64
	for _, g := range s.gpus {
		n += g.Iterations
	}
	return n
}

// GPUInjectionRate is the measured offered GPU traffic in
// flits/node/cycle (Table III, left column): flits the accelerator
// tiles' NIs injected over a measured region of the given length.
func (s *System) GPUInjectionRate(net *network.Network, cycles int64) float64 {
	if cycles <= 0 || len(s.Layout.GPUs) == 0 {
		return 0
	}
	var flits int64
	for _, id := range s.Layout.GPUs {
		flits += net.NI(id).Stats.InjectedFlits
	}
	return float64(flits) / (float64(cycles) * float64(len(s.Layout.GPUs)))
}
