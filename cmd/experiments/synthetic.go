package main

import (
	"runtime"

	"tdmnoc/hsnoc"
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

// configs for the Fig. 4 comparison.
func packetCfg(w, h int, seed uint64) hsnoc.Config {
	c := hsnoc.DefaultConfig(w, h)
	c.Seed = seed
	return c
}

func tdmCfg(w, h int, seed uint64) hsnoc.Config {
	c := hsnoc.DefaultConfig(w, h)
	c.Mode = hsnoc.HybridTDM
	c.Seed = seed
	return c
}

func tdmVCtCfg(w, h int, seed uint64) hsnoc.Config {
	c := tdmCfg(w, h, seed)
	c.VCPowerGating = true
	return c
}

func sdmCfg(w, h int, seed uint64) hsnoc.Config {
	c := hsnoc.DefaultConfig(w, h)
	c.Mode = hsnoc.HybridSDM
	c.Seed = seed
	return c
}

func sweepRates(quick bool) []float64 {
	if quick {
		return []float64{0.05, 0.20, 0.35, 0.50}
	}
	return []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}
}

func cyclesFor(quick bool) (warm, measure int) {
	if quick {
		return 2000, 8000
	}
	return 8000, 40000
}

// fig4Patterns are the synthetic patterns of Figs. 4-6.
var fig4Patterns = []hsnoc.Pattern{hsnoc.UniformRandom, hsnoc.Tornado, hsnoc.Transpose}

// fig4 reproduces the load-latency curves of Fig. 4 for UR, TOR and TR
// under Packet-VC4, Hybrid-SDM-VC4, Hybrid-TDM-VC4 and Hybrid-TDM-VCt.
func fig4(rc *runConfig) {
	rc.println("== Figure 4: load-latency curves (6x6 mesh) ==")
	warm, measure := cyclesFor(rc.quick)
	variants := []struct {
		name string
		cfg  hsnoc.Config
	}{
		{"Packet-VC4", packetCfg(6, 6, rc.seed)},
		{"Hybrid-SDM-VC4", sdmCfg(6, 6, rc.seed)},
		{"Hybrid-TDM-VC4", tdmCfg(6, 6, rc.seed)},
		{"Hybrid-TDM-VCt", tdmVCtCfg(6, 6, rc.seed)},
	}
	var jobs []campaign.Job
	for _, pat := range fig4Patterns {
		for _, v := range variants {
			for _, rate := range sweepRates(rc.quick) {
				jobs = append(jobs, campaign.NewJob(v.cfg, pat, rate, warm, measure, v.name))
			}
		}
	}
	recs := rc.run(jobs)
	per := len(jobs) / len(fig4Patterns)
	for i, pat := range fig4Patterns {
		rc.printf("\n-- pattern %v --\n", pat)
		rc.printf("%-16s %8s %10s %10s %10s %8s\n", "config", "offered", "accepted", "netlat", "totlat", "cs%")
		for _, rec := range recs[i*per : (i+1)*per] {
			res := rec.Result
			rc.printf("%-16s %8.2f %10.3f %10.1f %10.1f %8.1f\n",
				rec.Label, rec.Rate, res.PayloadThroughput(), res.AvgNetLatency(), res.AvgTotalLatency(),
				100*res.CSFlitFraction())
		}
	}
	rc.println()
}

// fig5 reproduces the energy-saving-vs-injection curves of Fig. 5:
// Hybrid-TDM-VC4 and Hybrid-TDM-VCt relative to Packet-VC4.
func fig5(rc *runConfig) {
	rc.println("== Figure 5: network energy saving vs injection rate (6x6 mesh) ==")
	warm, measure := cyclesFor(rc.quick)
	var jobs []campaign.Job
	for _, pat := range fig4Patterns {
		for _, rate := range sweepRates(rc.quick) {
			jobs = append(jobs,
				campaign.NewJob(packetCfg(6, 6, rc.seed), pat, rate, warm, measure, "base"),
				campaign.NewJob(tdmCfg(6, 6, rc.seed), pat, rate, warm, measure, "tdm"),
				campaign.NewJob(tdmVCtCfg(6, 6, rc.seed), pat, rate, warm, measure, "vct"),
			)
		}
	}
	recs := rc.run(jobs)
	per := len(jobs) / len(fig4Patterns)
	for i, pat := range fig4Patterns {
		rc.printf("\n-- pattern %v --\n", pat)
		rc.printf("%8s %18s %18s\n", "offered", "TDM-VC4 saving", "TDM-VCt saving")
		for k := i * per; k < (i+1)*per; k += 3 {
			base, tdm, vct := recs[k].Result, recs[k+1].Result, recs[k+2].Result
			rc.printf("%8.2f %18s %18s\n", recs[k].Rate, savingPct(tdm, base), savingPct(vct, base))
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
	warm, measure := cyclesFor(rc.quick)
	workers := rc.workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	for _, dim := range []int{8, 16} {
		pc, tc := packetCfg(dim, dim, rc.seed), tdmVCtCfg(dim, dim, rc.seed)
		// The paper sizes the slot tables statically per network
		// (128 entries, 256 for the 16x16 mesh) in this study.
		tc.DisableDynamicSlotSizing = true
		w, m := warm, measure
		if dim >= 16 {
			tc.SlotTableEntries = 256
			// A 16x16 mesh is ~7x the work per cycle; shorten the
			// measured region to keep the sweep tractable.
			w, m = warm/2, measure/2
		}
		sweepPC, sweepTC := pc, tc
		if workers > 1 {
			// Intra-network parallelism only pays off when cores
			// are not already saturated by parallel jobs.
			sweepPC.Workers, sweepTC.Workers = 2, 2
		}
		for _, pat := range fig4Patterns {
			var jobs []campaign.Job
			for _, rate := range sweepRates(rc.quick) {
				jobs = append(jobs, campaign.NewJob(sweepPC, pat, rate, w, m, "base"), campaign.NewJob(sweepTC, pat, rate, w, m, "vct"))
			}
			recs := rc.run(jobs)
			// Maximum accepted payload throughput over the sweep is the
			// saturation throughput.
			maxBase, maxVct, satBase := 0.0, 0.0, 0.0
			for i := 0; i < len(recs); i += 2 {
				if t := recs[i].Result.PayloadThroughput(); t > maxBase {
					maxBase, satBase = t, recs[i].Rate
				}
				maxVct = max(maxVct, recs[i+1].Result.PayloadThroughput())
			}
			// Energy sampled at 75 % of the baseline's saturation load;
			// a baseline that never delivered has no such load.
			saving := "n/a"
			if satBase > 0 {
				e := rc.run([]campaign.Job{
					campaign.NewJob(pc, pat, 0.75*satBase, warm, measure, "base"),
					campaign.NewJob(tc, pat, 0.75*satBase, warm, measure, "vct")})
				saving = savingPct(e[1].Result, e[0].Result)
			}
			rc.printf("%2dx%-2d %-3v: max throughput %.3f -> %.3f (%s), energy saving at 75%% load: %s\n",
				dim, dim, pat, maxBase, maxVct,
				cell("%+.1f%%", 100*(maxVct-maxBase)/maxBase, maxBase > 0 && maxVct > 0), saving)
		}
	}
	rc.println()
}
