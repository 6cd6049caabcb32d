// Trace-driven simulation: synthesize a traffic trace once, then replay
// the identical workload on two network configurations — the methodology
// NoC papers (this one included) use to compare architectures on equal
// footing.
//
//	go run ./examples/tracereplay
package main

import (
	"fmt"
	"log"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
)

// replay runs the trace to completion on a 6x6 network of the given mode.
func replay(tr *hsnoc.Trace, mode hsnoc.Mode) hsnoc.Results {
	cfg := hsnoc.DefaultConfig(6, 6)
	cfg.Mode = mode
	s, err := hsnoc.NewReplay(cfg, tr)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	s.Run(int(tr.Duration()) + 10)
	s.Drain(100000)
	return s.Run(0) // the measured region now includes the drain
}

func main() {
	tr := trace.Synthesize(hsnoc.Hotspot, topology.NewMesh(6, 6), 0.12, 5, 30000, 42)
	fmt.Printf("synthesized %d hotspot events over %d cycles\n\n", len(tr.Events), tr.Duration())

	ps := replay(tr, hsnoc.PacketSwitched)
	tdm := replay(tr, hsnoc.HybridTDM)

	fmt.Printf("%-14s %12s %12s %8s\n", "network", "avg latency", "energy (uJ)", "cs%")
	fmt.Printf("%-14s %12.1f %12.1f %8s\n", "Packet-VC4", ps.AvgTotalLatency, ps.Energy.TotalPJ/1e6, "-")
	fmt.Printf("%-14s %12.1f %12.1f %7.1f%%\n", "Hybrid-TDM", tdm.AvgTotalLatency, tdm.Energy.TotalPJ/1e6, 100*tdm.CSFlitFraction)
	// Total energy, not energy per cycle: both runs carried the same
	// packets to completion, however long the drain took.
	fmt.Printf("\nidentical traffic, %.1f%% less energy on the hybrid network\n", 100*(1-tdm.Energy.TotalPJ/ps.Energy.TotalPJ))
}
