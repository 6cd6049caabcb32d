package main

import (
	"fmt"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
)

// ablation quantifies each design choice DESIGN.md calls out by switching
// it off in isolation: time-slot stealing (Section II-D), circuit-switched
// path sharing (III-A), dynamic slot-table sizing (II-C) and aggressive VC
// power gating (III-B). Two more rows swap in an alternative instead:
// the latency-driven gating refinement Section V-B4 suggests, and a
// 2-iteration iSLIP switch allocator in place of the single pass.
func ablation(rc *runConfig) {
	rc.println("== Ablation: one design choice changed at a time (hotspot traffic, 6x6) ==")
	warm, measure := cyclesFor(rc.quick)
	// Keep the offered load below the hotspot pattern's ejection-bound
	// saturation (~0.13) so latency and energy readings are not dominated
	// by queueing collapse.
	const rate = 0.10

	full := func() hsnoc.Config {
		c := tdmCfg(6, 6, rc.seed)
		c.PathSharing = true
		c.VCPowerGating = true
		return c
	}
	type variant struct {
		name string
		mod  func(hsnoc.Config) hsnoc.Config
	}
	variants := []variant{
		{"full hybrid", func(c hsnoc.Config) hsnoc.Config { return c }},
		{"- time-slot stealing", func(c hsnoc.Config) hsnoc.Config { c.DisableTimeSlotStealing = true; return c }},
		{"- path sharing", func(c hsnoc.Config) hsnoc.Config { c.PathSharing = false; return c }},
		{"- dynamic slot sizing", func(c hsnoc.Config) hsnoc.Config { c.DisableDynamicSlotSizing = true; return c }},
		{"- VC power gating", func(c hsnoc.Config) hsnoc.Config { c.VCPowerGating = false; return c }},
		{"~ latency-driven gating", func(c hsnoc.Config) hsnoc.Config { c.LatencyBasedVCGating = true; return c }},
		{"~ 2-iteration iSLIP", func(c hsnoc.Config) hsnoc.Config { c.SAIterations = 2; return c }},
	}

	jobs := []campaign.Job{campaign.NewJob(packetCfg(6, 6, rc.seed), hsnoc.Hotspot, rate, warm, measure, "Packet-VC4")}
	for _, v := range variants {
		jobs = append(jobs, campaign.NewJob(v.mod(full()), hsnoc.Hotspot, rate, warm, measure, v.name))
	}
	recs := rc.run(jobs)
	base := recs[0].Result
	rc.printf("%-24s %10s %10s %8s %12s\n", "variant", "totlat", "energy-sv", "cs%", "rides(h/v)")
	for _, rec := range recs[1:] {
		res := rec.Result
		rc.printf("%-24s %10.1f %10s %7.1f%% %6d/%d\n",
			rec.Label, res.AvgTotalLatency(), savingPct(res, base),
			100*res.CSFlitFraction(), res.Hitchhikes, res.VicinityRides)
	}
	rc.println()
}

// granularity sweeps the slot-table size (time-division granularity,
// Section II-C): smaller tables give each circuit more bandwidth and
// shorter waits but hold fewer circuits; larger tables the reverse.
func granularity(rc *runConfig) {
	rc.println("== Granularity: slot-table size sweep (Section II-C, tornado + UR, 6x6) ==")
	warm, measure := cyclesFor(rc.quick)
	sizes := []int{8, 16, 32, 64, 128, 256}
	if rc.quick {
		sizes = []int{16, 64, 256}
	}
	patterns := []hsnoc.Pattern{hsnoc.Tornado, hsnoc.UniformRandom}
	var jobs []campaign.Job
	for _, pat := range patterns {
		jobs = append(jobs, campaign.NewJob(packetCfg(6, 6, rc.seed), pat, 0.15, warm, measure, "Packet-VC4"))
		for _, sz := range sizes {
			cfg := tdmCfg(6, 6, rc.seed)
			cfg.SlotTableEntries = sz
			cfg.DisableDynamicSlotSizing = true // isolate the size effect
			jobs = append(jobs, campaign.NewJob(cfg, pat, 0.15, warm, measure, fmt.Sprintf("TDM-%d-slots", sz)))
		}
	}
	recs := rc.run(jobs)
	per := 1 + len(sizes)
	for i, pat := range patterns {
		base := recs[i*per].Result
		rc.printf("\n-- pattern %v at 0.15 flits/node/cycle --\n", pat)
		rc.printf("%-16s %10s %10s %8s %10s\n", "config", "totlat", "energy-sv", "cs%", "circuits")
		for _, rec := range recs[i*per+1 : (i+1)*per] {
			res := rec.Result
			rc.printf("%-16s %10.1f %10s %7.1f%% %10d\n",
				rec.Label, res.AvgTotalLatency(), savingPct(res, base),
				100*res.CSFlitFraction(), res.Circuits)
		}
	}
	rc.println()
}
