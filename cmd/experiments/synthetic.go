package main

import (
	"runtime"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/stats"
)

// savingPct formats an energy-saving percentage for the result tables,
// returning "n/a" when the figure is undefined (either run measured
// zero cycles — e.g. a failed job's empty record — or the baseline
// reported zero energy).
func savingPct(r, base stats.RunRecord) string {
	s, ok := r.EnergySavingVs(base)
	return cell("%.1f%%", 100*s, ok)
}

// fig4 reproduces the load-latency curves of Fig. 4 for UR, TOR and TR
// under Packet-VC4, Hybrid-SDM-VC4, Hybrid-TDM-VC4 and Hybrid-TDM-VCt:
// per pattern, every variant's sweep.
func fig4(rc *runConfig, spec campaign.Spec, jobs []campaign.Job, recs []campaign.Record) {
	rc.println("== Figure 4: load-latency curves (6x6 mesh) ==")
	for _, p := range spec.Patterns {
		pat, _ := campaign.ParsePattern(p)
		rc.printf("\n-- pattern %v --\n", pat)
		rc.printf("%-16s %8s %10s %10s %10s %8s\n", "config", "offered", "accepted", "netlat", "totlat", "cs%")
		for i, j := range jobs {
			if j.Pattern != pat {
				continue
			}
			res := recs[i].Result
			rc.printf("%-16s %8.2f %10.3f %10.1f %10.1f %8.1f\n",
				variant(j), j.Rate, res.PayloadThroughput(), res.AvgNetLatency(), res.AvgTotalLatency(),
				100*res.CSFlitFraction())
		}
	}
	rc.println()
}

// fig5 reproduces the energy-saving-vs-injection curves of Fig. 5: the
// second and third variants, Hybrid-TDM-VC4 and Hybrid-TDM-VCt,
// relative to the first, Packet-VC4.
func fig5(rc *runConfig, spec campaign.Spec, jobs []campaign.Job, recs []campaign.Record) {
	rc.println("== Figure 5: network energy saving vs injection rate (6x6 mesh) ==")
	g := newGrid(jobs, recs)
	vs := spec.Variants
	for _, p := range spec.Patterns {
		pat, _ := campaign.ParsePattern(p)
		rc.printf("\n-- pattern %v --\n", pat)
		rc.printf("%8s %18s %18s\n", "offered", "TDM-VC4 saving", "TDM-VCt saving")
		for i, j := range jobs {
			if j.Pattern == pat && variant(j) == vs[0].Name {
				base := recs[i].Result
				rc.printf("%8.2f %18s %18s\n", j.Rate, savingPct(g.at(vs[1].Name, j), base), savingPct(g.at(vs[2].Name, j), base))
			}
		}
	}
	rc.println()
}

// fig6 reproduces the scalability study: maximum throughput improvement
// and energy saving of Hybrid-TDM-VCt over Packet-VC4 on 8x8 and 16x16
// meshes (256-entry slot tables for the larger network, per the paper).
// Each (mesh, pattern) is two batches, because the second depends on
// the first: the load sweep, then an energy sample at 75 % of the
// saturation load the sweep found.
func fig6(rc *runConfig) {
	rc.println("== Figure 6: scalability (Hybrid-TDM-VCt vs Packet-VC4) ==")
	rates := []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}
	warm, measure := 8000, 40000
	if rc.quick {
		rates, warm, measure = []float64{0.05, 0.20, 0.35, 0.50}, 2000, 8000
	}
	run := func(s campaign.Spec) ([]campaign.Job, []campaign.Record) {
		jobs, err := s.Expand()
		if err != nil {
			panic(err) // the batches below are valid by construction
		}
		return jobs, rc.runSpec(s, jobs, nil)
	}
	for _, dim := range []int{8, 16} {
		sample := campaign.Spec{
			Variants: []campaign.Variant{
				{Name: "base", Mode: "packet"},
				// The paper sizes the slot tables statically per network
				// (128 entries, 256 for the 16x16 mesh) in this study.
				{Name: "vct", Mode: "tdm", VCPowerGating: true, DisableDynamicSlotSizing: true},
			},
			Meshes:       []campaign.MeshSize{{Width: dim, Height: dim}},
			SlotTables:   []int{128},
			Seeds:        []uint64{rc.seed},
			WarmupCycles: warm, MeasureCycles: measure,
		}
		sweep := sample
		if dim >= 16 {
			sample.SlotTables, sweep.SlotTables = []int{256}, []int{256}
			// A 16x16 mesh is ~7x the work per cycle; shorten the
			// measured region to keep the sweep tractable.
			sweep.WarmupCycles, sweep.MeasureCycles = warm/2, measure/2
		}
		if rc.workers == 1 && runtime.NumCPU() > 1 {
			// Intra-network parallelism only pays off when cores
			// are not already saturated by parallel jobs: split the
			// network only when the engine runs one job at a time.
			sweep.SimWorkers = 2
		}
		for _, p := range []string{"ur", "tornado", "transpose"} {
			sweep.Patterns, sweep.Rates = []string{p}, rates
			jobs, recs := run(sweep)
			if recs == nil {
				return // the fleet run failed; runSpec reported it
			}
			// Maximum accepted payload throughput over the sweep is the
			// saturation throughput.
			maxBase, maxVct, satBase := 0.0, 0.0, 0.0
			for i, j := range jobs {
				t := recs[i].Result.PayloadThroughput()
				switch {
				case variant(j) != "base":
					maxVct = max(maxVct, t)
				case t > maxBase:
					maxBase, satBase = t, j.Rate
				}
			}
			// Energy sampled at 75 % of the baseline's saturation load;
			// a baseline that never delivered has no such load.
			saving := "n/a"
			if satBase > 0 {
				sample.Patterns, sample.Rates = []string{p}, []float64{0.75 * satBase}
				jobs, recs := run(sample)
				if recs == nil {
					return
				}
				g := newGrid(jobs, recs)
				saving = savingPct(g.at("vct", jobs[0]), g.at("base", jobs[0]))
			}
			pat, _ := campaign.ParsePattern(p)
			rc.printf("%2dx%-2d %-3v: max throughput %.3f -> %.3f (%s), energy saving at 75%% load: %s\n",
				dim, dim, pat, maxBase, maxVct,
				cell("%+.1f%%", 100*(maxVct-maxBase)/maxBase, maxBase > 0 && maxVct > 0), saving)
		}
	}
	rc.println()
}
