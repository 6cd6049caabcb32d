package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"tdmnoc/hsnoc"
	mixes "tdmnoc/internal/workload"
)

// paperSavingPct is the paper's Fig. 8 AVG energy saving of
// Hybrid-TDM-hop-VCt over Packet-VC4 — the one reference number any
// workload has.
const paperSavingPct = 17.1

// heteroSize sizes hetero6x6: 14 mixes x 2 configurations, serial.
type heteroSize struct {
	mixes         []int
	warm, measure int
	gateMixes     int // mixes whose checked prefix the gate runs
}

func heteroSizeFor(e *env) heteroSize {
	// 1300 simulated cycles per sizing-second and simulation: 28
	// simulations x 36 routers x ~750 ns/router/cycle is ~1 host second
	// on the reference sandbox in its slow phases (README, "Sizing").
	cycles := int(1300 * e.seconds)
	s := heteroSize{warm: cycles / 6, measure: cycles - cycles/6, gateMixes: 2}
	for i := 0; i < mixes.MixCount(); i += 4 {
		s.mixes = append(s.mixes, i)
	}
	if e.smoke {
		s.mixes = []int{0, 28}
		s.warm, s.measure, s.gateMixes = 200, 1000, 1
	}
	if e.full {
		s.gateMixes = len(s.mixes)
	}
	return s
}

// heteroConfig is one of the two Fig. 8 configurations compared.
func heteroConfig(hybrid bool, seed uint64) hsnoc.Config {
	cfg := hsnoc.DefaultConfig(6, 6)
	cfg.Seed = seed
	if hybrid {
		cfg.Mode = hsnoc.HybridTDM
		cfg.PathSharing = true
		cfg.VCPowerGating = true
	}
	return cfg
}

func sumMap(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

func runHetero(e *env) outcome {
	size := heteroSizeFor(e)
	var o outcome
	o.attempted = 2 * len(size.mixes)

	cpu0, gpu0 := mixes.Mix(size.mixes[0])
	var built *hsnoc.HeteroSimulator
	su := setups{fn: func() (func(), error) {
		h, err := hsnoc.NewHeterogeneous(heteroConfig(false, e.seed), cpu0.Name, gpu0.Name)
		if err != nil {
			return nil, err
		}
		built = h
		return h.Close, nil
	}}
	if err := su.first(e.setups); err != nil {
		o.fail(o.attempted, "hetero6x6: set-up: %v", err)
		return o
	}
	first := built // the simulator of op 0

	type pair struct{ base, hyb hsnoc.HeteroResults }
	pairs := make([]pair, len(size.mixes))
	ok := make([]bool, len(size.mixes))
	var simS float64
	var allocs uint64
	var stolen, dropped, misrouted int64
	start := time.Now()
	for mi, mix := range size.mixes {
		cpu, gpu := mixes.Mix(mix)
		good := 0
		for v := 0; v < 2; v++ {
			op := 2*mi + v
			what := fmt.Sprintf("hetero %s/%s hybrid=%v", gpu.Name, cpu.Name, v == 1)
			guard(&o, what, func() {
				root := e.tr.begin("op", 0, op, -1)
				defer e.tr.end(root)
				h := first
				first = nil
				if h == nil {
					sp := e.tr.begin("hsnoc.NewHeterogeneous", 0, op, root)
					t0 := time.Now()
					var err error
					h, err = hsnoc.NewHeterogeneous(heteroConfig(v == 1, e.seed), cpu.Name, gpu.Name)
					d := time.Since(t0).Seconds()
					e.tr.end(sp)
					if err != nil {
						o.fail(1, "%s: %v", what, err)
						return
					}
					if v == 0 && !su.single {
						// The 13 later Packet-VC4 constructions are the same
						// set-up at 13 other moments of the run: sample them
						// instead of constructing anything extra.
						su.times = append(su.times, d)
					}
				}
				defer h.Close()
				var res hsnoc.HeteroResults
				d, a := simulate(e.tr, op, root, func() { h.Warmup(size.warm) }, func() { res = h.Run(size.measure) })
				simS += d
				allocs += a
				if res.CPUInstructions == 0 || res.GPUIterations == 0 {
					o.fail(1, "%s: health: %d CPU instructions, %d GPU iterations", what, res.CPUInstructions, res.GPUIterations)
					return
				}
				if v == 0 {
					pairs[mi].base = res
				} else {
					pairs[mi].hyb = res
					d := h.Diagnose()
					stolen += d.StolenSlots
					dropped += d.DroppedCS
					misrouted += d.MisroutedCS
				}
				good++
			})
		}
		ok[mi] = good == 2
	}
	o.wallS = time.Since(start).Seconds()
	o.setupS = su.center()
	o.rssMB = selfRSSMB()
	cyclesPerSim := float64(size.warm + size.measure)
	o.work = 36 * cyclesPerSim * float64(o.attempted)
	o.workS = simS

	// Simulated figures: exact repeats for a fixed seed and size.
	var ratios, cpuLat, gpuLat, csFrac []float64
	var instr, iters, cycles int64
	var baseBuf, hybBuf, baseStat, hybStat float64
	for mi, p := range pairs {
		if !ok[mi] {
			continue
		}
		ratios = append(ratios, p.hyb.Energy.TotalPJ/p.base.Energy.TotalPJ)
		cpuLat = append(cpuLat, p.hyb.AvgCPULatency)
		gpuLat = append(gpuLat, p.hyb.AvgGPULatency)
		csFrac = append(csFrac, p.hyb.GPUCSFraction)
		instr += p.hyb.CPUInstructions
		iters += p.hyb.GPUIterations
		cycles += p.hyb.Cycles
		baseBuf += p.base.Energy.DynamicPJ["buffer"]
		hybBuf += p.hyb.Energy.DynamicPJ["buffer"]
		baseStat += sumMap(p.base.Energy.StaticPJ)
		hybStat += sumMap(p.hyb.Energy.StaticPJ)
	}
	if len(ratios) > 0 && cycles > 0 {
		saving := 100 * (1 - geomean(ratios))
		o.set("power.energy_saving_pct", saving)
		o.set("power.paper_gap_pp", math.Abs(saving-paperSavingPct))
		o.set("power.buffer_dyn_saving_pct", 100*(1-hybBuf/baseBuf))
		o.set("power.static_saving_pct", 100*(1-hybStat/baseStat))
		o.set("hetero.cpu_ipc", float64(instr)/float64(cycles))
		o.set("hetero.gpu_iter_per_kcycle", 1000*float64(iters)/float64(cycles))
		o.set("hetero.gpu_cs_frac", mean(csFrac))
		o.set("hetero.cpu_lat_cycles", mean(cpuLat))
		o.set("hetero.gpu_lat_cycles", mean(gpuLat))
		logf("hetero6x6: energy saving %.2f%% (paper %.1f%%), GPU CS fraction %.3f, stolen/dropped/misrouted %d/%d/%d",
			saving, paperSavingPct, mean(csFrac), stolen, dropped, misrouted)
	}
	o.set("flit.allocs_per_kcycle", 1000*float64(allocs)/(cyclesPerSim*float64(o.attempted)))

	gateHetero(e, &o, size)
	return o
}

// gateHetero is hetero6x6's correctness gate: a checked prefix of the
// first gateMixes mixes, both configurations, must be violation-free
// and produce identical results at Workers 1 and 2. HeteroSimulator
// exposes no rolling digest, so full result equality stands in for it.
func gateHetero(e *env, o *outcome, size heteroSize) {
	p := prefixFor(e, false)
	for _, mix := range size.mixes[:size.gateMixes] {
		cpu, gpu := mixes.Mix(mix)
		for v := 0; v < 2; v++ {
			what := fmt.Sprintf("hetero gate %s/%s hybrid=%v", gpu.Name, cpu.Name, v == 1)
			guard(o, what, func() {
				var res [2]hsnoc.HeteroResults
				for w := 0; w < 2; w++ {
					cfg := heteroConfig(v == 1, e.seed)
					cfg.Workers = w + 1
					cfg.CheckInvariants = true
					cfg.CheckInterval = p.every
					h, err := hsnoc.NewHeterogeneous(cfg, cpu.Name, gpu.Name)
					if err != nil {
						o.fail(1, "%s: %v", what, err)
						return
					}
					res[w] = h.Run(p.cycles)
					n := h.InvariantViolationCount()
					h.Close()
					if n != 0 {
						o.fail(1, "%s: %d invariant violations at Workers=%d", what, n, w+1)
						return
					}
				}
				if !reflect.DeepEqual(res[0], res[1]) {
					o.fail(1, "%s: results differ between Workers=1 and Workers=2", what)
				}
			})
		}
	}
}
