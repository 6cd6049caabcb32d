package hsnoc

import (
	"cmp"
	"fmt"
	"strings"

	"tdmnoc/internal/hetero"
	"tdmnoc/internal/network"
	"tdmnoc/internal/sdm"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
	"tdmnoc/internal/traffic"
	"tdmnoc/internal/workload"
)

// Workload is the traffic a Simulator's endpoints offer: Synthetic, Mix
// or Replay, a closed set.
type Workload interface {
	check(cfg Config) error      // refuses inputs a valid cfg cannot run
	build(cfg Config) *Simulator // the simulator of a checked cfg
}

// Synthetic offers Pattern at Rate flits/node/cycle from every node, all
// of it circuit-switching eligible (Section IV).
type Synthetic struct {
	Pattern Pattern
	Rate    float64
}

// Mix is the Section V CPU+GPU system: CPU (one of CPUBenchmarks) on
// every CPU tile, GPU (one of GPUBenchmarks) on every accelerator tile,
// laid out as Fig. 7 at 6x6 and scaled on meshes with room for it.
type Mix struct{ CPU, GPU string }

// Replay injects Trace on its own mesh from the first simulated cycle,
// with no warm-up: Run past Trace.Duration(), Drain, then read Run(0).
type Replay struct{ Trace *Trace }

// Trace is a recorded traffic trace (cmd/tracegen makes them).
type Trace = trace.Trace

// Check tells whether cfg runs w: Validate, then which modes run w, then
// w's own inputs (a Mix's benchmarks and layout, a Replay's trace).
func Check(cfg Config, w Workload) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if w == nil {
		return fmt.Errorf("hsnoc: no workload")
	}
	// The SDM engine predates network.Endpoint and runs Synthetic only.
	if _, synthetic := w.(Synthetic); cfg.Mode == HybridSDM && !synthetic {
		return fmt.Errorf("hsnoc: %T workloads run on PacketSwitched and HybridTDM only", w)
	}
	return w.check(cfg)
}

// New builds a simulator offering w over cfg, or returns Check's error.
func New(cfg Config, w Workload) (*Simulator, error) {
	if err := Check(cfg, w); err != nil {
		return nil, err
	}
	return w.build(cfg), nil
}

// NewSynthetic is New with a Synthetic workload, panicking with New's
// error. It is temporary: benchmark/ still calls it.
func NewSynthetic(cfg Config, pattern Pattern, rate float64) *Simulator {
	s, err := New(cfg, Synthetic{Pattern: pattern, Rate: rate})
	if err != nil {
		panic(err)
	}
	return s
}

// NewHeterogeneous is New with a Mix workload. It is temporary:
// benchmark/ still calls it.
func NewHeterogeneous(cfg Config, cpuBench, gpuBench string) (*Simulator, error) {
	return New(cfg, Mix{CPU: cpuBench, GPU: gpuBench})
}

// HeteroSimulator and HeteroResults are the Section V facade's old
// names. They are temporary: benchmark/ still spells them.
type HeteroSimulator = Simulator
type HeteroResults = Results

func (Synthetic) check(Config) error { return nil }

func (w Synthetic) build(cfg Config) *Simulator {
	if cfg.Mode == HybridSDM {
		sc := sdm.DefaultConfig(cfg.Width, cfg.Height)
		sc.Seed, sc.VCs, sc.GatedPlanes = cfg.Seed, cmp.Or(cfg.VCs, sc.VCs), cfg.GatedPlanes
		mesh := topology.NewMesh(cfg.Width, cfg.Height)
		sn := sdm.New(sc, func(now int64, src topology.NodeID, rng *sim.RNG) (topology.NodeID, bool) {
			if !rng.Bernoulli(w.Rate / tablei.PSDataFlits) {
				return 0, false
			}
			return traffic.Destination(w.Pattern, mesh, src, rng)
		})
		return &Simulator{cfg: cfg, eng: sn, sdmNet: sn, halt: sn.StopGeneration}
	}
	var gens []*traffic.Synthetic
	s := newSimulator(cfg, func(topology.NodeID) network.Endpoint {
		g := traffic.NewSynthetic(w.Pattern, w.Rate, tablei.PSDataFlits, cfg.Mode == HybridTDM)
		gens = append(gens, g)
		return g
	})
	s.halt = func() {
		for _, g := range gens {
			g.Stop()
		}
	}
	return s
}

func (w Mix) check(cfg Config) error {
	if _, ok := workload.CPUBenchmarkByName(w.CPU); !ok {
		return fmt.Errorf("hsnoc: unknown CPU benchmark %q (%s)", w.CPU, strings.Join(CPUBenchmarks(), "|"))
	}
	if _, ok := workload.GPUBenchmarkByName(w.GPU); !ok {
		return fmt.Errorf("hsnoc: unknown GPU benchmark %q (%s)", w.GPU, strings.Join(GPUBenchmarks(), "|"))
	}
	_, err := hetero.LayoutFor(cfg.Width, cfg.Height)
	return err
}

func (w Mix) build(cfg Config) *Simulator {
	cpu, _ := workload.CPUBenchmarkByName(w.CPU) // check found all three
	gpu, _ := workload.GPUBenchmarkByName(w.GPU)
	layout, _ := hetero.LayoutFor(cfg.Width, cfg.Height)
	sys := hetero.NewSystem(layout, cpu, gpu)
	s := newSimulator(cfg, sys.Endpoint)
	s.halt, s.resetCounters = sys.Halt, sys.ResetCounters
	s.extend = func(r *Results) {
		r.CPUInstructions, r.GPUIterations = sys.CPUInstructions(), sys.GPUIterations()
		r.GPUInjectionRate = sys.GPUInjectionRate(s.net, r.Cycles)
	}
	return s
}

func (w Replay) check(cfg Config) error {
	if t := w.Trace; t == nil {
		return fmt.Errorf("hsnoc: Replay has no trace")
	} else if cfg.Width != t.Width || cfg.Height != t.Height {
		return fmt.Errorf("hsnoc: %dx%d trace cannot replay on a %dx%d mesh", t.Width, t.Height, cfg.Width, cfg.Height)
	} else if err := t.Validate(); err != nil {
		return fmt.Errorf("hsnoc: %w", err)
	}
	return nil
}

func (w Replay) build(cfg Config) *Simulator {
	reps := trace.NewReplayers(w.Trace, 0)
	s := newSimulator(cfg, func(id topology.NodeID) network.Endpoint {
		if r := reps[id]; r != nil {
			return r
		}
		return nil // a tile the trace never sends from only sinks
	})
	s.halt = func() {
		for _, r := range reps {
			r.Stop()
		}
	}
	return s
}

// CPUBenchmarks lists the available SPEC OMP 2001 characterizations.
func CPUBenchmarks() (names []string) {
	for _, b := range workload.CPUBenchmarks {
		names = append(names, b.Name)
	}
	return names
}

// GPUBenchmarks lists the available GPU kernel characterizations
// (Table III).
func GPUBenchmarks() (names []string) {
	for _, b := range workload.GPUBenchmarks {
		names = append(names, b.Name)
	}
	return names
}
