package main

import (
	"math"
	"strings"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
	"tdmnoc/internal/stats"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/workload"
)

// variant is the configuration a figure's job belongs to: a variants
// spec starts every label with the variant's name.
func variant(j campaign.Job) string {
	v, _, _ := strings.Cut(j.Label, "/")
	return v
}

// grid indexes a figure's records by (variant, workload, rate).
// Printers look cells up by what they are, never by position: a spec's
// job order is variant-major, a table's is not.
type grid map[point]campaign.Record

type point struct {
	variant, workload string
	rate              float64
}

func newGrid(jobs []campaign.Job, recs []campaign.Record) grid {
	g := make(grid, len(jobs))
	for i, j := range jobs {
		g[point{variant(j), j.PatternName, j.Rate}] = recs[i]
	}
	return g
}

// at is variant v's record at job j's workload point (an empty record,
// which every printer reads as n/a, when the grid has none).
func (g grid) at(v string, j campaign.Job) stats.RunRecord {
	return g[point{v, j.PatternName, j.Rate}].Result
}

// speedup is count/base; ok is false when either is zero (a failed job's
// record is empty), which leaves no speedup to report.
func speedup(count, base int64) (s float64, ok bool) {
	if count == 0 || base == 0 {
		return 0, false
	}
	return float64(count) / float64(base), true
}

// geomean accumulates the geometric mean of one table column over the
// rows where the column is defined.
type geomean struct {
	logSum float64
	n      int
}

func (g *geomean) add(v float64) { g.logSum += math.Log(v); g.n++ }
func (g geomean) mean() float64  { return math.Exp(g.logSum / float64(g.n)) }

// fig8 reproduces Fig. 8: per-mix network energy saving, CPU speedup and
// GPU speedup for the three hybrid variants versus the first,
// Packet-VC4.
func fig8(rc *runConfig, spec campaign.Spec, jobs []campaign.Job, recs []campaign.Record) {
	rc.println("== Figure 8: heterogeneous workload mixes (6x6, Fig. 7 layout) ==")
	g := newGrid(jobs, recs)
	base, hybrids := spec.Variants[0].Name, spec.Variants[1:]

	rc.printf("%-24s %-20s %-20s %-20s\n", "mix (GPU/CPU)", "energy saving", "CPU speedup", "GPU speedup")
	// A row is a label and nine cells: metric-major, then TDM/hop/hopVCt.
	const row = "%-24s %6s %6s %6s  %6s %6s %6s  %6s %6s %6s\n"
	rc.printf(row, "", "TDM", "hop", "hopVCt", "TDM", "hop", "hopVCt", "TDM", "hop", "hopVCt")
	formats := [3]string{"%.1f%%", "%.3f", "%.3f"}
	// Geometric means across mixes (the paper's AVG group); the energy
	// columns average the remaining fraction 1-saving.
	var avg [9]geomean
	for i, j := range jobs {
		if variant(j) != base {
			continue
		}
		b := recs[i].Result
		cells := make([]any, 10)
		cells[0] = j.GPU + "/" + j.CPU
		for v, h := range hybrids {
			r := g.at(h.Name, j)
			es, okE := r.EnergySavingVs(b)
			cs, okC := speedup(r.CPUInstructions, b.CPUInstructions)
			gs, okG := speedup(r.GPUIterations, b.GPUIterations)
			for m, c := range [3]struct {
				shown, mean float64
				ok          bool
			}{{100 * es, math.Max(1e-9, 1-es), okE}, {cs, cs, okC}, {gs, gs, okG}} {
				cells[1+3*m+v] = cell(formats[m], c.shown, c.ok)
				if c.ok {
					avg[3*m+v].add(c.mean)
				}
			}
		}
		rc.printf(row, cells...)
	}
	cells := make([]any, 10)
	cells[0] = "AVG (geomean)"
	for k, g := range avg {
		shown := g.mean()
		if k < 3 {
			shown = 100 * (1 - shown)
		}
		cells[1+k] = cell(formats[k/3], shown, g.n > 0)
	}
	rc.printf(row, cells...)
	rc.println()
}

// fig9 reproduces the Fig. 9 energy breakdown: per-component dynamic and
// static energy of the full hybrid configuration (the second variant),
// normalised to the packet-switched baseline (the first), averaged over
// the spec's CPU applications per GPU benchmark.
func fig9(rc *runConfig, spec campaign.Spec, jobs []campaign.Job, recs []campaign.Record) {
	rc.println("== Figure 9: network energy breakdown (normalised to Packet-VC4) ==")
	g := newGrid(jobs, recs)
	components := []string{"buffer", "cs-component", "crossbar", "arbiter", "clock", "link"}

	rc.printf("%-14s | %s\n", "GPU benchmark", "dynamic: component shares (base -> hybrid), then static")
	tot := func(m map[string]float64) float64 {
		t := 0.0
		for _, c := range components {
			t += m[c]
		}
		return t
	}
	var totBufSave, totDynSave, totStatSave float64
	var groups int
	for _, gpu := range workload.GPUBenchmarks {
		// Average over CPU applications (the paper averages each group).
		var base, hybrid stats.RunRecord
		var runs int64
		for i, j := range jobs {
			if j.GPU == gpu.Name && variant(j) == spec.Variants[0].Name {
				runs++
				base.Merge(recs[i].Result)
				hybrid.Merge(g.at(spec.Variants[1].Name, j))
			}
		}
		// A failed run's record is empty, and one missing run skews
		// every share of its group.
		if base.Runs != runs || hybrid.Runs != runs {
			rc.printf("%-14s n/a\n", gpu.Name)
			continue
		}
		bd, bs, hd, hs := base.DynamicPJ, base.StaticPJ, hybrid.DynamicPJ, hybrid.StaticPJ
		rc.printf("%-14s dyn: ", gpu.Name)
		for _, c := range components {
			rc.printf("%s %4.1f%%->%4.1f%%  ", c, 100*bd[c]/tot(bd), 100*hd[c]/tot(bd))
		}
		rc.printf("\n%-14s stat:", "")
		for _, c := range components {
			rc.printf("%s %4.1f%%->%4.1f%%  ", c, 100*bs[c]/tot(bs), 100*hs[c]/tot(bs))
		}
		rc.printf("\n%-14s dyn saving %.1f%% (buffer %.1f%%, CS overhead %.1f%%) | static saving %.1f%% (CS overhead %.1f%%)\n",
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
	avg := func(sum float64) string { return cell("%.1f%%", 100*sum/float64(groups), groups > 0) }
	rc.printf("AVERAGE: buffer dynamic saving %s, total dynamic saving %s, total static saving %s\n\n",
		avg(totBufSave), avg(totDynSave), avg(totStatSave))
}

// table3 reproduces Table III: per-GPU-benchmark injection ratio and the
// percentage of flits that are circuit-switched under Hybrid-TDM-VC4,
// one row per mix of the spec (one representative CPU application).
func table3(rc *runConfig, _ campaign.Spec, jobs []campaign.Job, recs []campaign.Record) {
	rc.println("== Table III: GPU injection rate and circuit-switched flit percentage (Hybrid-TDM-VC4) ==")
	rc.printf("%-14s %22s %22s\n", "GPU benchmark", "injection (paper->ours)", "CS flits % (paper->ours)")
	paperInj := map[string]float64{"BLACKSCHOLES": 0.18, "HOTSPOT": 0.09, "LIB": 0.20, "LPS": 0.20, "NN": 0.18, "PATHFINDER": 0.13, "STO": 0.05}
	paperCS := map[string]float64{"BLACKSCHOLES": 55.7, "HOTSPOT": 29.1, "LIB": 34.4, "LPS": 55.0, "NN": 38.9, "PATHFINDER": 49.1, "STO": 18.5}
	for i, j := range jobs {
		r, ok := recs[i].Result, recs[i].Err == ""
		rc.printf("%-14s %10.2f -> %6s %11.1f -> %5s\n", j.GPU,
			paperInj[j.GPU], cell("%.3f", r.GPUInjectionRate(), ok),
			paperCS[j.GPU], cell("%.1f", 100*r.GPUCSFraction(), ok))
	}
	rc.println()
}

// table1 prints the evaluated router parameters and the area model
// numbers of Section IV-A.
func table1(rc *runConfig) {
	rc.println("== Table I / Section IV-A: router parameters and area ==")
	ps := hsnoc.DefaultConfig(6, 6)
	hy := ps
	hy.Mode = hsnoc.HybridTDM
	rc.printf("topology 6x6 2D mesh, 16-byte channels, %d VCs/port, %d-flit buffers, %d-entry slot tables\n",
		tablei.VCs, tablei.BufDepth, tablei.SlotTableEntries)
	rc.printf("packet-switched router area: %.3f mm^2 (paper: 0.177)\n", ps.RouterAreaMM2())
	rc.printf("hybrid-switched router area: %.3f mm^2 (paper: 0.188)\n", hy.RouterAreaMM2())
	rc.printf("area overhead: %.1f%% (paper: 6.2%%)\n\n",
		100*(hy.RouterAreaMM2()-ps.RouterAreaMM2())/ps.RouterAreaMM2())
}
