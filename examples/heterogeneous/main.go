// Heterogeneous system study: run one CPU+GPU workload mix of Section V
// over the four Fig. 8 network configurations and report energy and
// performance — the reproduction of the paper's realistic evaluation in
// miniature. A Section V run is an ordinary hsnoc.Simulator, so the full
// hybrid configuration also gets a link heatmap: the many-to-few
// accelerator-to-cache pattern the paper's circuits exploit, made visible.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"tdmnoc/hsnoc"
)

func main() {
	const cpuBench, gpuBench = "EQUAKE", "BLACKSCHOLES"
	const warmup, measure = 6000, 30000

	type variant struct {
		name string
		cfg  hsnoc.Config
	}
	base := hsnoc.DefaultConfig(6, 6)
	tdm := base
	tdm.Mode = hsnoc.HybridTDM
	hop := tdm
	hop.PathSharing = true
	hopVCt := hop
	hopVCt.VCPowerGating = true
	variants := []variant{
		{"Packet-VC4", base},
		{"Hybrid-TDM-VC4", tdm},
		{"Hybrid-TDM-hop-VC4", hop},
		{"Hybrid-TDM-hop-VCt", hopVCt},
	}

	fmt.Printf("workload mix %s (GPU) x %s (CPU) on the Fig. 7 36-tile system\n\n", gpuBench, cpuBench)
	fmt.Printf("%-20s %10s %10s %10s %8s %8s\n", "configuration", "energy(uJ)", "CPU instr", "GPU ops", "GPU cs%", "saving")

	var baseline hsnoc.Results
	var heatmap string
	for i, v := range variants {
		h, err := hsnoc.NewHeterogeneous(v.cfg, cpuBench, gpuBench)
		if err != nil {
			log.Fatal(err)
		}
		last := i == len(variants)-1
		if last {
			// Telemetry only observes: the row below is what it would be
			// without it.
			if _, err := h.AttachTelemetry(hsnoc.TelemetryOptions{}); err != nil {
				log.Fatal(err)
			}
		}
		h.Warmup(warmup)
		res := h.Run(measure)
		if last {
			if heatmap, err = h.RenderLinkHeatmap(); err != nil {
				log.Fatal(err)
			}
		}
		h.Close()
		if i == 0 {
			baseline = res
		}
		saving := 1 - res.Energy.TotalPJ/baseline.Energy.TotalPJ
		fmt.Printf("%-20s %10.1f %10d %10d %7.1f%% %7.1f%%\n",
			v.name, res.Energy.TotalPJ/1e6, res.CPUInstructions, res.GPUIterations,
			100*res.GPUCSFraction, 100*saving)
	}

	fmt.Println("\nCPU traffic stays packet-switched (Section V-A2); only GPU messages")
	fmt.Println("with enough warp slack ride circuits, so CPU performance is nearly")
	fmt.Println("untouched while the network energy drops.")
	fmt.Printf("\n%s under %s (CPUs top, L2 banks and MCs middle, accelerators bottom):\n\n%s",
		variants[len(variants)-1].name, gpuBench+"/"+cpuBench, heatmap)
}
