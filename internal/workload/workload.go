// Package workload holds the synthetic characterizations of the paper's
// application workloads: the 8 SPEC OMP 2001 CPU benchmarks and the 7
// GPGPU-Sim/Rodinia GPU benchmarks of Section V-A1.
//
// The originals require Simics/GEMS and GPGPU-Sim plus proprietary
// binaries, so — per the reproduction's substitution rule — each benchmark
// is reduced to the traffic-shaping parameters that matter to the NoC:
// injection intensity, memory-level parallelism, destination concentration
// and latency tolerance. The GPU injection rates are taken directly from
// Table III of the paper; the remaining parameters are plausible synthetic
// values chosen so the workload mixes span the same behavioural range the
// paper reports (from the low-intensity STO to the streaming-heavy LPS/LIB).
package workload

import "tdmnoc/internal/tablei"

// GPUBenchmark parameterises one data-parallel kernel running on every
// accelerator tile.
type GPUBenchmark struct {
	Name string
	// InjectionRate is the target traffic the kernel offers, in
	// flits/node/cycle, straight from Table III.
	InjectionRate float64
	// Warps is the number of concurrent warps per SM (Table II: up to
	// 1024 threads / 32-wide SIMD = 32 warps).
	Warps int
	// ComputeCycles is the mean compute time between a warp's memory
	// operations (derived from the injection rate; see Derive).
	ComputeCycles int
	// HotDestFraction concentrates traffic: the fraction of requests that
	// go to the kernel's preferred L2 banks. High concentration makes
	// circuits profitable; uniform spread (low value) does not.
	HotDestFraction float64
	// HotDests is how many L2 banks the hot set contains per accelerator.
	HotDests int
	// WriteFraction is the share of memory operations that are stores
	// (fire-and-forget 5-flit packets; loads are 1-flit requests with
	// 5-flit replies).
	WriteFraction float64
	// SlackPerWarp converts available warps into message slack cycles
	// (Section V-A2's latency-tolerance indicator).
	SlackPerWarp int
}

// CPUBenchmark parameterises one SPEC OMP benchmark running one thread on
// every CPU tile.
type CPUBenchmark struct {
	Name string
	// IPC is the core's retire rate when not memory-stalled (four-way
	// out-of-order, Table II).
	IPC float64
	// MissesPerKInstr is L1 misses per 1000 instructions (drives NoC
	// request traffic).
	MissesPerKInstr float64
	// MLP is the maximum outstanding misses before the core stalls
	// (128-entry ROB gives moderate memory-level parallelism).
	MLP int
	// SharingFraction is the portion of misses served by another core's
	// cache (coherence traffic) rather than an L2 bank.
	SharingFraction float64
	// BurstSize clusters misses (streaming access patterns miss several
	// lines back to back), which is what makes the core's performance
	// couple to memory latency: a burst can exhaust the MLP window.
	BurstSize int
}

// GPUBenchmarks lists the seven kernels of Table III, in the paper's
// order. Injection rates are the paper's measured values.
var GPUBenchmarks = []GPUBenchmark{
	{Name: "BLACKSCHOLES", InjectionRate: 0.18, Warps: 32, HotDestFraction: 0.85, HotDests: 3, WriteFraction: 0.30, SlackPerWarp: 5},
	{Name: "HOTSPOT", InjectionRate: 0.09, Warps: 24, HotDestFraction: 0.70, HotDests: 4, WriteFraction: 0.35, SlackPerWarp: 4},
	{Name: "LIB", InjectionRate: 0.20, Warps: 32, HotDestFraction: 0.75, HotDests: 2, WriteFraction: 0.25, SlackPerWarp: 4},
	{Name: "LPS", InjectionRate: 0.20, Warps: 32, HotDestFraction: 0.85, HotDests: 3, WriteFraction: 0.30, SlackPerWarp: 5},
	{Name: "NN", InjectionRate: 0.18, Warps: 28, HotDestFraction: 0.70, HotDests: 5, WriteFraction: 0.20, SlackPerWarp: 4},
	{Name: "PATHFINDER", InjectionRate: 0.13, Warps: 28, HotDestFraction: 0.80, HotDests: 3, WriteFraction: 0.30, SlackPerWarp: 5},
	{Name: "STO", InjectionRate: 0.05, Warps: 16, HotDestFraction: 0.55, HotDests: 5, WriteFraction: 0.40, SlackPerWarp: 3},
}

// CPUBenchmarks lists the eight SPEC OMP 2001 applications of
// Section V-A1. Miss intensities follow the applications' published
// characters (SWIM/MGRID stream through memory; AMMP/WUPWISE are
// compute-bound).
var CPUBenchmarks = []CPUBenchmark{
	{Name: "AMMP", IPC: 1.6, MissesPerKInstr: 3.0, MLP: 6, SharingFraction: 0.10, BurstSize: 2},
	{Name: "APPLU", IPC: 1.3, MissesPerKInstr: 8.0, MLP: 8, SharingFraction: 0.08, BurstSize: 4},
	{Name: "ART", IPC: 1.0, MissesPerKInstr: 14.0, MLP: 8, SharingFraction: 0.05, BurstSize: 6},
	{Name: "EQUAKE", IPC: 1.2, MissesPerKInstr: 10.0, MLP: 8, SharingFraction: 0.12, BurstSize: 4},
	{Name: "GAFORT", IPC: 1.4, MissesPerKInstr: 6.0, MLP: 6, SharingFraction: 0.15, BurstSize: 3},
	{Name: "MGRID", IPC: 1.1, MissesPerKInstr: 12.0, MLP: 10, SharingFraction: 0.05, BurstSize: 6},
	{Name: "SWIM", IPC: 0.9, MissesPerKInstr: 16.0, MLP: 10, SharingFraction: 0.04, BurstSize: 8},
	{Name: "WUPWISE", IPC: 1.7, MissesPerKInstr: 4.0, MLP: 6, SharingFraction: 0.10, BurstSize: 2},
}

// GPUBenchmarkByName returns the named kernel.
func GPUBenchmarkByName(name string) (GPUBenchmark, bool) {
	for _, b := range GPUBenchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return GPUBenchmark{}, false
}

// CPUBenchmarkByName returns the named application.
func CPUBenchmarkByName(name string) (CPUBenchmark, bool) {
	for _, b := range CPUBenchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return CPUBenchmark{}, false
}

// DeriveComputeCycles back-solves the per-warp compute time that makes a
// warp pool offer approximately the benchmark's Table-III injection rate,
// assuming a round-trip memory latency estimate:
//
//	rate = Warps * flitsPerOp / (ComputeCycles + memLatency)
//
// where flitsPerOp averages load requests (1 flit) and stores (5 flits).
func (b GPUBenchmark) DeriveComputeCycles(memLatency int) int {
	flitsPerOp := (1-b.WriteFraction)*1 + b.WriteFraction*tablei.PSDataFlits
	c := float64(b.Warps)*flitsPerOp/b.InjectionRate - float64(memLatency)
	if c < 1 {
		c = 1
	}
	return int(c)
}

// MixCount is the number of workload mixes the paper evaluates
// (8 CPU x 7 GPU = 56).
func MixCount() int { return len(CPUBenchmarks) * len(GPUBenchmarks) }

// Mix returns the i-th workload combination, ordered with the GPU
// benchmark as the major axis (Fig. 8 groups results by GPU benchmark).
func Mix(i int) (CPUBenchmark, GPUBenchmark) {
	g := i / len(CPUBenchmarks)
	c := i % len(CPUBenchmarks)
	return CPUBenchmarks[c], GPUBenchmarks[g]
}
