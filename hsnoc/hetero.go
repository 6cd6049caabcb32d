package hsnoc

import (
	"fmt"

	"tdmnoc/internal/hetero"
	"tdmnoc/internal/workload"
)

// CPUBenchmarks lists the available SPEC OMP 2001 characterizations.
func CPUBenchmarks() []string {
	out := make([]string, len(workload.CPUBenchmarks))
	for i, b := range workload.CPUBenchmarks {
		out[i] = b.Name
	}
	return out
}

// GPUBenchmarks lists the available GPU kernel characterizations
// (Table III).
func GPUBenchmarks() []string {
	out := make([]string, len(workload.GPUBenchmarks))
	for i, b := range workload.GPUBenchmarks {
		out[i] = b.Name
	}
	return out
}

// NewHeterogeneous builds the Section V heterogeneous multicore system
// for a workload mix: one CPU benchmark on every CPU tile and one GPU
// kernel on every accelerator tile, over the configured NoC. The mesh
// uses the Fig. 7 layout when cfg is 6x6 and a proportionally scaled
// layout otherwise; meshes too small to hold every tile kind are
// refused. HybridSDM mode is not supported here (the paper's Section V
// evaluates TDM only, and the SDM engine has no tile endpoints).
func NewHeterogeneous(cfg Config, cpuBench, gpuBench string) (*Simulator, error) {
	if cfg.Mode == HybridSDM {
		return nil, fmt.Errorf("hsnoc: heterogeneous evaluation supports PacketSwitched and HybridTDM only")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cpu, ok := workload.CPUBenchmarkByName(cpuBench)
	if !ok {
		return nil, fmt.Errorf("hsnoc: unknown CPU benchmark %q", cpuBench)
	}
	gpu, ok := workload.GPUBenchmarkByName(gpuBench)
	if !ok {
		return nil, fmt.Errorf("hsnoc: unknown GPU benchmark %q", gpuBench)
	}
	layout, err := hetero.LayoutFor(cfg.Width, cfg.Height)
	if err != nil {
		return nil, fmt.Errorf("hsnoc: %w", err)
	}
	sys := hetero.NewSystem(layout, cpu, gpu)
	s := newSimulator(cfg, sys.Endpoint)
	s.halt, s.resetCounters = sys.Halt, sys.ResetCounters
	s.extend = func(r *Results) {
		r.CPUInstructions, r.GPUIterations = sys.CPUInstructions(), sys.GPUIterations()
		r.GPUInjectionRate = sys.GPUInjectionRate(s.net, r.Cycles)
	}
	return s, nil
}

// HeteroSimulator and HeteroResults are the names the Section V facade
// had while it was a separate type. They are temporary: benchmark/ still
// spells them, and leaves with a benchmark-only change.
type HeteroSimulator = Simulator
type HeteroResults = Results
