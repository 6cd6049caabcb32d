package main

import (
	"fmt"

	"tdmnoc/internal/campaign"
)

// ablation quantifies each design choice DESIGN.md calls out by switching
// it off in isolation: time-slot stealing (Section II-D), circuit-switched
// path sharing (III-A), dynamic slot-table sizing (II-C) and aggressive VC
// power gating (III-B). Two more rows swap in an alternative instead:
// the latency-driven gating refinement Section V-B4 suggests, and a
// 2-iteration iSLIP switch allocator in place of the single pass. The
// spec's first variant, Packet-VC4, is the energy baseline; its hotspot
// load stays below the pattern's ejection-bound saturation (~0.13) so
// latency and energy readings are not dominated by queueing collapse.
func ablation(rc *runConfig, spec campaign.Spec, jobs []campaign.Job, recs []campaign.Record) {
	rc.println("== Ablation: one design choice changed at a time (hotspot traffic, 6x6) ==")
	g := newGrid(jobs, recs)
	base := spec.Variants[0].Name
	rc.printf("%-24s %10s %10s %8s %12s\n", "variant", "totlat", "energy-sv", "cs%", "rides(h/v)")
	for i, j := range jobs {
		if variant(j) == base {
			continue
		}
		res := recs[i].Result
		rc.printf("%-24s %10.1f %10s %7.1f%% %6d/%d\n",
			variant(j), res.AvgTotalLatency(), savingPct(res, g.at(base, j)),
			100*res.CSFlitFraction(), res.Hitchhikes, res.VicinityRides)
	}
	rc.println()
}

// granularity sweeps the slot-table size (time-division granularity,
// Section II-C): smaller tables give each circuit more bandwidth and
// shorter waits but hold fewer circuits; larger tables the reverse. The
// spec's TDM variant fixes the table size (no dynamic sizing) to
// isolate its effect; the first variant, Packet-VC4, is the energy
// baseline.
func granularity(rc *runConfig, spec campaign.Spec, jobs []campaign.Job, recs []campaign.Record) {
	rc.println("== Granularity: slot-table size sweep (Section II-C, tornado + UR, 6x6) ==")
	g := newGrid(jobs, recs)
	base := spec.Variants[0].Name
	for _, p := range spec.Patterns {
		pat, _ := campaign.ParsePattern(p)
		rc.printf("\n-- pattern %v at %.2f flits/node/cycle --\n", pat, spec.Rates[0])
		rc.printf("%-16s %10s %10s %8s %10s\n", "config", "totlat", "energy-sv", "cs%", "circuits")
		for i, j := range jobs {
			if j.Pattern != pat || variant(j) == base {
				continue
			}
			res := recs[i].Result
			rc.printf("%-16s %10.1f %10s %7.1f%% %10d\n",
				fmt.Sprintf("TDM-%d-slots", j.Config.SlotTableEntries), res.AvgTotalLatency(), savingPct(res, g.at(base, j)),
				100*res.CSFlitFraction(), res.Circuits)
		}
	}
	rc.println()
}
