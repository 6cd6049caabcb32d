package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/workload"
)

// heteroVariant names the Fig. 8 configurations.
type heteroVariant struct {
	name string
	mk   func(seed uint64) hsnoc.Config
}

func heteroVariants(seed uint64) []heteroVariant {
	return []heteroVariant{
		{"Packet-VC4", func(s uint64) hsnoc.Config { return packetCfg(6, 6, s) }},
		{"Hybrid-TDM-VC4", func(s uint64) hsnoc.Config { return tdmCfg(6, 6, s) }},
		{"Hybrid-TDM-hop-VC4", func(s uint64) hsnoc.Config {
			c := tdmCfg(6, 6, s)
			c.PathSharing = true
			return c
		}},
		{"Hybrid-TDM-hop-VCt", func(s uint64) hsnoc.Config {
			c := tdmCfg(6, 6, s)
			c.PathSharing = true
			c.VCPowerGating = true
			return c
		}},
	}
}

// runHeteroMatrix executes (mix, variant) runs in parallel.
func runHeteroMatrix(rc runConfig, mixes []int, variants []heteroVariant, warm, measure int) map[[2]int]hsnoc.Results {
	workers := rc.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	var mu sync.Mutex
	out := map[[2]int]hsnoc.Results{}
	for _, mi := range mixes {
		for vi := range variants {
			wg.Add(1)
			go func(mi, vi int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				cpu, gpu := workload.Mix(mi)
				h, err := hsnoc.NewHeterogeneous(variants[vi].mk(rc.seed), cpu.Name, gpu.Name)
				if err != nil {
					panic(err)
				}
				defer h.Close()
				h.Warmup(warm)
				res := h.Run(measure)
				mu.Lock()
				out[[2]int{mi, vi}] = res
				mu.Unlock()
			}(mi, vi)
		}
	}
	wg.Wait()
	return out
}

func heteroCycles(quick bool) (warm, measure int) {
	if quick {
		return 2000, 8000
	}
	return 6000, 30000
}

func selectMixes(rc runConfig) []int {
	n := rc.mixes
	if n <= 0 || n > workload.MixCount() {
		n = workload.MixCount()
	}
	// Evenly subsample while keeping GPU-major grouping.
	step := float64(workload.MixCount()) / float64(n)
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, int(float64(i)*step))
	}
	return out
}

// fig8 reproduces Fig. 8: per-mix network energy saving, CPU speedup and
// GPU speedup for the three hybrid configurations versus Packet-VC4.
func fig8(rc runConfig) {
	fmt.Println("== Figure 8: heterogeneous workload mixes (6x6, Fig. 7 layout) ==")
	variants := heteroVariants(rc.seed)
	mixes := selectMixes(rc)
	warm, measure := heteroCycles(rc.quick)
	results := runHeteroMatrix(rc, mixes, variants, warm, measure)

	fmt.Printf("%-24s %-20s %-20s %-20s\n", "mix (GPU/CPU)", "energy saving", "CPU speedup", "GPU speedup")
	fmt.Printf("%-24s %6s %6s %6s  %6s %6s %6s  %6s %6s %6s\n", "",
		"TDM", "hop", "hopVCt", "TDM", "hop", "hopVCt", "TDM", "hop", "hopVCt")
	// Geometric means across mixes (the paper's AVG group).
	gm := make([][]float64, 3) // per metric: [variant-1] products
	for i := range gm {
		gm[i] = []float64{0, 0, 0}
	}
	count := 0
	for _, mi := range mixes {
		cpu, gpu := workload.Mix(mi)
		base := results[[2]int{mi, 0}]
		var es, cs, gs [3]float64
		for vi := 1; vi < 4; vi++ {
			r := results[[2]int{mi, vi}]
			es[vi-1] = 1 - r.Energy.TotalPJ/base.Energy.TotalPJ
			cs[vi-1] = float64(r.CPUInstructions) / float64(base.CPUInstructions)
			gs[vi-1] = float64(r.GPUIterations) / float64(base.GPUIterations)
			gm[0][vi-1] += math.Log(math.Max(1e-9, 1-es[vi-1]))
			gm[1][vi-1] += math.Log(cs[vi-1])
			gm[2][vi-1] += math.Log(gs[vi-1])
		}
		count++
		fmt.Printf("%-24s %5.1f%% %5.1f%% %5.1f%%  %6.3f %6.3f %6.3f  %6.3f %6.3f %6.3f\n",
			gpu.Name+"/"+cpu.Name,
			100*es[0], 100*es[1], 100*es[2],
			cs[0], cs[1], cs[2],
			gs[0], gs[1], gs[2])
	}
	if count > 0 {
		fmt.Printf("%-24s", "AVG (geomean)")
		for vi := 0; vi < 3; vi++ {
			fmt.Printf(" %5.1f%%", 100*(1-math.Exp(gm[0][vi]/float64(count))))
		}
		fmt.Printf(" ")
		for vi := 0; vi < 3; vi++ {
			fmt.Printf(" %6.3f", math.Exp(gm[1][vi]/float64(count)))
		}
		fmt.Printf(" ")
		for vi := 0; vi < 3; vi++ {
			fmt.Printf(" %6.3f", math.Exp(gm[2][vi]/float64(count)))
		}
		fmt.Println()
	}
	fmt.Println()
}

// fig9 reproduces the Fig. 9 energy breakdown: per-component dynamic and
// static energy of the full hybrid configuration, normalised to the
// packet-switched baseline, averaged over CPU applications per GPU
// benchmark.
func fig9(rc runConfig) {
	fmt.Println("== Figure 9: network energy breakdown (normalised to Packet-VC4) ==")
	variants := []heteroVariant{
		heteroVariants(rc.seed)[0], // Packet-VC4
		heteroVariants(rc.seed)[3], // Hybrid-TDM-hop-VCt
	}
	warm, measure := heteroCycles(rc.quick)
	nCPU := len(workload.CPUBenchmarks)
	cpuSamples := nCPU
	if rc.quick || rc.mixes < workload.MixCount() {
		cpuSamples = 2
	}
	components := []string{"buffer", "cs-component", "crossbar", "arbiter", "clock", "link"}

	fmt.Printf("%-14s | %s\n", "GPU benchmark", "dynamic: component shares (base -> hybrid), then static")
	var totBufSave, totDynSave, totStatSave float64
	var groups int
	for gi, gpu := range workload.GPUBenchmarks {
		// Average over CPU applications (the paper averages each group).
		var mixes []int
		for ci := 0; ci < cpuSamples; ci++ {
			mixes = append(mixes, gi*nCPU+ci*(nCPU/cpuSamples))
		}
		results := runHeteroMatrix(rc, mixes, variants, warm, measure)
		sum := func(vi int) (dyn, stat map[string]float64) {
			dyn, stat = map[string]float64{}, map[string]float64{}
			for _, mi := range mixes {
				r := results[[2]int{mi, vi}]
				for _, c := range components {
					dyn[c] += r.Energy.DynamicPJ[c]
					stat[c] += r.Energy.StaticPJ[c]
				}
			}
			return
		}
		bd, bs := sum(0)
		hd, hs := sum(1)
		tot := func(m map[string]float64) float64 {
			t := 0.0
			for _, v := range m {
				t += v
			}
			return t
		}
		fmt.Printf("%-14s dyn: ", gpu.Name)
		for _, c := range components {
			fmt.Printf("%s %4.1f%%->%4.1f%%  ", c, 100*bd[c]/tot(bd), 100*hd[c]/tot(bd))
		}
		fmt.Printf("\n%-14s stat:", "")
		for _, c := range components {
			fmt.Printf("%s %4.1f%%->%4.1f%%  ", c, 100*bs[c]/tot(bs), 100*hs[c]/tot(bs))
		}
		fmt.Printf("\n%-14s dyn saving %.1f%% (buffer %.1f%%, CS overhead %.1f%%) | static saving %.1f%% (CS overhead %.1f%%)\n",
			"", 100*(1-tot(hd)/tot(bd)),
			100*(1-hd["buffer"]/bd["buffer"]),
			100*hd["cs-component"]/tot(bd),
			100*(1-tot(hs)/tot(bs)),
			100*hs["cs-component"]/tot(bs))
		totBufSave += 1 - hd["buffer"]/bd["buffer"]
		totDynSave += 1 - tot(hd)/tot(bd)
		totStatSave += 1 - tot(hs)/tot(bs)
		groups++
	}
	fmt.Printf("AVERAGE: buffer dynamic saving %.1f%%, total dynamic saving %.1f%%, total static saving %.1f%%\n\n",
		100*totBufSave/float64(groups), 100*totDynSave/float64(groups), 100*totStatSave/float64(groups))
}

// table3 reproduces Table III: per-GPU-benchmark injection ratio and the
// percentage of flits that are circuit-switched under Hybrid-TDM-VC4.
func table3(rc runConfig) {
	fmt.Println("== Table III: GPU injection rate and circuit-switched flit percentage (Hybrid-TDM-VC4) ==")
	warm, measure := heteroCycles(rc.quick)
	variants := []heteroVariant{heteroVariants(rc.seed)[1]} // Hybrid-TDM-VC4
	fmt.Printf("%-14s %22s %22s\n", "GPU benchmark", "injection (paper->ours)", "CS flits %% (paper->ours)")
	paperInj := map[string]float64{"BLACKSCHOLES": 0.18, "HOTSPOT": 0.09, "LIB": 0.20, "LPS": 0.20, "NN": 0.18, "PATHFINDER": 0.13, "STO": 0.05}
	paperCS := map[string]float64{"BLACKSCHOLES": 55.7, "HOTSPOT": 29.1, "LIB": 34.4, "LPS": 55.0, "NN": 38.9, "PATHFINDER": 49.1, "STO": 18.5}
	nCPU := len(workload.CPUBenchmarks)
	for gi, gpu := range workload.GPUBenchmarks {
		// Use one representative CPU application (EQUAKE, index 3).
		mi := gi*nCPU + 3
		res := runHeteroMatrix(rc, []int{mi}, variants, warm, measure)
		r := res[[2]int{mi, 0}]
		fmt.Printf("%-14s %10.2f -> %6.3f %11.1f -> %5.1f\n",
			gpu.Name, paperInj[gpu.Name], r.GPUInjectionRate, paperCS[gpu.Name], 100*r.GPUCSFraction)
	}
	fmt.Println()
}

// table1 prints the evaluated router parameters and the area model
// numbers of Section IV-A.
func table1(rc runConfig) {
	fmt.Println("== Table I / Section IV-A: router parameters and area ==")
	ps := packetCfg(6, 6, rc.seed)
	hy := tdmCfg(6, 6, rc.seed)
	fmt.Printf("topology 6x6 2D mesh, 16-byte channels, 4 VCs/port, 5-flit buffers, 128-entry slot tables\n")
	fmt.Printf("packet-switched router area: %.3f mm^2 (paper: 0.177)\n", ps.RouterAreaMM2())
	fmt.Printf("hybrid-switched router area: %.3f mm^2 (paper: 0.188)\n", hy.RouterAreaMM2())
	fmt.Printf("area overhead: %.1f%% (paper: 6.2%%)\n\n",
		100*(hy.RouterAreaMM2()-ps.RouterAreaMM2())/ps.RouterAreaMM2())
}
