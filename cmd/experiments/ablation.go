package main

import (
	"fmt"

	"tdmnoc/hsnoc"
)

// ablation quantifies each design choice DESIGN.md calls out by switching
// it off in isolation: time-slot stealing (Section II-D), circuit-switched
// path sharing (III-A), dynamic slot-table sizing (II-C) and aggressive VC
// power gating (III-B). Two more rows swap in an alternative instead:
// the latency-driven gating refinement Section V-B4 suggests, and a
// 2-iteration iSLIP switch allocator in place of the single pass.
func ablation(rc runConfig) {
	fmt.Println("== Ablation: one design choice changed at a time (hotspot traffic, 6x6) ==")
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

	var jobs []synthJob
	jobs = append(jobs, synthJob{label: "Packet-VC4", cfg: packetCfg(6, 6, rc.seed),
		pattern: hsnoc.Hotspot, rate: rate, warm: warm, measure: measure})
	for _, v := range variants {
		jobs = append(jobs, synthJob{label: v.name, cfg: v.mod(full()),
			pattern: hsnoc.Hotspot, rate: rate, warm: warm, measure: measure})
	}
	pts := runSynthetic(jobs, rc.workers)
	base := pts[0].res
	fmt.Printf("%-24s %10s %10s %8s %12s\n", "variant", "totlat", "energy-sv", "cs%", "rides(h/v)")
	for _, p := range pts[1:] {
		fmt.Printf("%-24s %10.1f %10s %7.1f%% %6d/%d\n",
			p.label, p.res.AvgTotalLatency(), savingPct(p.res, base),
			100*p.res.CSFlitFraction(), p.res.Hitchhikes, p.res.VicinityRides)
	}
	fmt.Println()
}

// granularity sweeps the slot-table size (time-division granularity,
// Section II-C): smaller tables give each circuit more bandwidth and
// shorter waits but hold fewer circuits; larger tables the reverse.
func granularity(rc runConfig) {
	fmt.Println("== Granularity: slot-table size sweep (Section II-C, tornado + UR, 6x6) ==")
	warm, measure := cyclesFor(rc.quick)
	sizes := []int{8, 16, 32, 64, 128, 256}
	if rc.quick {
		sizes = []int{16, 64, 256}
	}
	for _, pat := range []hsnoc.Pattern{hsnoc.Tornado, hsnoc.UniformRandom} {
		var jobs []synthJob
		jobs = append(jobs, synthJob{label: "Packet-VC4", cfg: packetCfg(6, 6, rc.seed),
			pattern: pat, rate: 0.15, warm: warm, measure: measure})
		for _, sz := range sizes {
			cfg := tdmCfg(6, 6, rc.seed)
			cfg.SlotTableEntries = sz
			cfg.DisableDynamicSlotSizing = true // isolate the size effect
			jobs = append(jobs, synthJob{label: fmt.Sprintf("TDM-%d-slots", sz), cfg: cfg,
				pattern: pat, rate: 0.15, warm: warm, measure: measure})
		}
		pts := runSynthetic(jobs, rc.workers)
		base := pts[0].res
		fmt.Printf("\n-- pattern %v at 0.15 flits/node/cycle --\n", pat)
		fmt.Printf("%-16s %10s %10s %8s %10s\n", "config", "totlat", "energy-sv", "cs%", "circuits")
		for _, p := range pts[1:] {
			fmt.Printf("%-16s %10.1f %10s %7.1f%% %10d\n",
				p.label, p.res.AvgTotalLatency(), savingPct(p.res, base),
				100*p.res.CSFlitFraction(), p.res.Circuits)
		}
	}
	fmt.Println()
}
