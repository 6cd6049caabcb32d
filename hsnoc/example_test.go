package hsnoc_test

import (
	"fmt"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
)

// The canonical comparison: the same tornado workload on the
// packet-switched baseline and the TDM hybrid-switched network.
func Example() {
	tornado := hsnoc.Synthetic{Pattern: hsnoc.Tornado, Rate: 0.10}
	base, err := hsnoc.New(hsnoc.DefaultConfig(6, 6), tornado)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer base.Close()
	base.Warmup(4000)
	baseRes := base.Run(10000)

	cfg := hsnoc.DefaultConfig(6, 6)
	cfg.Mode = hsnoc.HybridTDM
	tdm, err := hsnoc.New(cfg, tornado)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer tdm.Close()
	tdm.Warmup(4000)
	tdmRes := tdm.Run(10000)

	fmt.Println("hybrid latency lower:", tdmRes.AvgNetLatency < baseRes.AvgNetLatency)
	fmt.Println("hybrid saves energy:", tdmRes.EnergySavingVs(baseRes) > 0)
	fmt.Println("circuits used:", tdmRes.CSFlitFraction > 0.5)
	// Output:
	// hybrid latency lower: true
	// hybrid saves energy: true
	// circuits used: true
}

// Router area matches the paper's Section IV-A synthesis numbers.
func ExampleConfig_RouterAreaMM2() {
	ps := hsnoc.DefaultConfig(6, 6)
	hy := hsnoc.DefaultConfig(6, 6)
	hy.Mode = hsnoc.HybridTDM
	fmt.Printf("packet %.3f mm2, hybrid %.3f mm2\n", ps.RouterAreaMM2(), hy.RouterAreaMM2())
	// Output:
	// packet 0.177 mm2, hybrid 0.188 mm2
}

// Heterogeneous evaluation: CPU traffic stays packet-switched while GPU
// traffic rides circuits.
func ExampleNewHeterogeneous() {
	cfg := hsnoc.DefaultConfig(6, 6)
	cfg.Mode = hsnoc.HybridTDM
	h, err := hsnoc.NewHeterogeneous(cfg, "EQUAKE", "BLACKSCHOLES")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer h.Close()
	h.Warmup(4000)
	res := h.Run(10000)
	fmt.Println("GPU circuits used:", res.GPUCSFraction > 0.05)
	fmt.Println("CPUs made progress:", res.CPUInstructions > 0)
	// Output:
	// GPU circuits used: true
	// CPUs made progress: true
}

// A Fig. 4-style load-latency curve under transpose traffic: the SDM
// baseline saturates first (plane serialization), while the TDM network
// sustains the highest accepted load with the lowest latency — the
// Section IV-B result.
func Example_loadLatency() {
	modes := []hsnoc.Mode{hsnoc.PacketSwitched, hsnoc.HybridSDM, hsnoc.HybridTDM}
	fmt.Printf("%7s", "offered")
	for _, m := range modes {
		fmt.Printf(" %20v", m)
	}
	fmt.Println()
	for _, rate := range []float64{0.05, 0.20, 0.35} {
		fmt.Printf("%7.2f", rate)
		for _, m := range modes {
			cfg := hsnoc.DefaultConfig(6, 6)
			cfg.Mode = m
			s, err := hsnoc.New(cfg, hsnoc.Synthetic{Pattern: hsnoc.Transpose, Rate: rate})
			if err != nil {
				fmt.Println(err)
				return
			}
			s.Warmup(1000)
			res := s.Run(3000)
			s.Close()
			fmt.Printf("      %5.3f / %6.1f", res.PayloadThroughput, res.AvgTotalLatency)
		}
		fmt.Println()
	}
	// Output:
	// offered           Packet-VC4           Hybrid-SDM           Hybrid-TDM
	//    0.05      0.040 /   31.6      0.040 /   31.5      0.040 /   26.7
	//    0.20      0.165 /   58.7      0.159 /  125.7      0.165 /   36.3
	//    0.35      0.224 /  352.2      0.194 /  797.0      0.268 /  113.9
}

// Path sharing (Section III-A) lets messages ride circuits they never
// set up: under hotspot traffic many sources lie on other sources'
// circuits (hitchhiking), and adjacent hot tiles invite vicinity
// hop-offs. Here the rides replace about a fifth of the circuit setups
// at the same energy.
func Example_pathSharing() {
	for _, sharing := range []bool{false, true} {
		cfg := hsnoc.DefaultConfig(6, 6)
		cfg.Mode = hsnoc.HybridTDM
		cfg.PathSharing = sharing
		s, err := hsnoc.New(cfg, hsnoc.Synthetic{Pattern: hsnoc.Hotspot, Rate: 0.12})
		if err != nil {
			fmt.Println(err)
			return
		}
		s.Warmup(4000)
		res := s.Run(20000)
		s.Close()
		fmt.Printf("sharing=%-5v %3d circuits set up, %4d hitchhikes, %3d vicinity rides, latency %4.1f, %.2f uJ\n",
			sharing, res.CircuitsEstablished, res.Hitchhikes, res.VicinityRides, res.AvgTotalLatency, res.Energy.TotalPJ/1e6)
	}
	// Output:
	// sharing=false 159 circuits set up,    0 hitchhikes,   0 vicinity rides, latency 45.2, 3.06 uJ
	// sharing=true  124 circuits set up,  585 hitchhikes, 125 vicinity rides, latency 47.4, 3.07 uJ
}

// One Section V mix over the four Fig. 8 network configurations: CPU
// traffic stays packet-switched (Section V-A2) and only GPU messages
// with enough warp slack ride circuits, so CPU progress is untouched
// while network energy drops.
func ExampleNewHeterogeneous_configurations() {
	base := hsnoc.DefaultConfig(6, 6)
	tdm := base
	tdm.Mode = hsnoc.HybridTDM
	hop := tdm
	hop.PathSharing = true
	hopVCt := hop
	hopVCt.VCPowerGating = true
	var baseline hsnoc.Results
	for i, v := range []struct {
		name string
		cfg  hsnoc.Config
	}{{"Packet-VC4", base}, {"Hybrid-TDM-VC4", tdm}, {"Hybrid-TDM-hop-VC4", hop}, {"Hybrid-TDM-hop-VCt", hopVCt}} {
		h, err := hsnoc.NewHeterogeneous(v.cfg, "EQUAKE", "BLACKSCHOLES")
		if err != nil {
			fmt.Println(err)
			return
		}
		h.Warmup(1000)
		res := h.Run(4000)
		h.Close()
		if i == 0 {
			baseline = res
		}
		fmt.Printf("%-18s %6d CPU instr, %5d GPU ops, GPU cs %4.1f%%, saving %4.1f%%\n",
			v.name, res.CPUInstructions, res.GPUIterations, 100*res.GPUCSFraction, 100*res.EnergySavingVs(baseline))
	}
	// Output:
	// Packet-VC4          38400 CPU instr,  4615 GPU ops, GPU cs  0.0%, saving  0.0%
	// Hybrid-TDM-VC4      38400 CPU instr,  4581 GPU ops, GPU cs 29.7%, saving 10.7%
	// Hybrid-TDM-hop-VC4  38400 CPU instr,  4642 GPU ops, GPU cs 27.7%, saving  9.4%
	// Hybrid-TDM-hop-VCt  38400 CPU instr,  4634 GPU ops, GPU cs 25.0%, saving 13.9%
}

// One constructor, three workloads, two networks each: synthetic
// tornado traffic and a Section V mix are warmed up and measured; a
// replayed trace runs from its first cycle until every recorded packet
// has landed, so both networks carry the same packets and total energy
// compares directly. The SDM baseline runs synthetic traffic only, and
// New says so.
func ExampleNew() {
	tr := trace.Synthesize(hsnoc.Hotspot, topology.NewMesh(6, 6), 0.12, 5, 20000, 42)
	fmt.Printf("%d hotspot events over %d cycles\n", len(tr.Events), tr.Duration())
	for _, w := range []hsnoc.Workload{
		hsnoc.Synthetic{Pattern: hsnoc.Tornado, Rate: 0.10},
		hsnoc.Mix{CPU: "EQUAKE", GPU: "BLACKSCHOLES"},
		hsnoc.Replay{Trace: tr},
	} {
		for _, m := range []hsnoc.Mode{hsnoc.PacketSwitched, hsnoc.HybridTDM} {
			cfg := hsnoc.DefaultConfig(6, 6)
			cfg.Mode = m
			s, err := hsnoc.New(cfg, w)
			if err != nil {
				fmt.Println(err)
				return
			}
			var res hsnoc.Results
			if _, replay := w.(hsnoc.Replay); replay {
				s.Run(int(tr.Duration()) + 10)
				s.Drain(100000)
				res = s.Run(0) // the measured region now includes the drain
			} else {
				s.Warmup(4000)
				res = s.Run(10000)
			}
			s.Close()
			fmt.Printf("%-15T %-10v %5d packets, latency %5.1f, %.2f uJ, cs %4.1f%%\n",
				w, m, res.Packets, res.AvgTotalLatency, res.Energy.TotalPJ/1e6, 100*res.CSFlitFraction)
		}
	}
	sdm := hsnoc.DefaultConfig(6, 6)
	sdm.Mode = hsnoc.HybridSDM
	_, err := hsnoc.New(sdm, hsnoc.Mix{CPU: "EQUAKE", GPU: "BLACKSCHOLES"})
	fmt.Println(err)
	// Output:
	// 17148 hotspot events over 19998 cycles
	// hsnoc.Synthetic Packet-VC4  7257 packets, latency  22.3, 1.34 uJ, cs  0.0%
	// hsnoc.Synthetic Hybrid-TDM  7260 packets, latency  20.5, 0.99 uJ, cs 87.7%
	// hsnoc.Mix       Packet-VC4 26041 packets, latency  30.8, 2.61 uJ, cs  0.0%
	// hsnoc.Mix       Hybrid-TDM 26245 packets, latency  57.7, 2.16 uJ, cs 38.1%
	// hsnoc.Replay    Packet-VC4 17148 packets, latency  48.5, 3.15 uJ, cs  0.0%
	// hsnoc.Replay    Hybrid-TDM 17148 packets, latency  45.1, 3.09 uJ, cs 14.5%
	// hsnoc: hsnoc.Mix workloads run on PacketSwitched and HybridTDM only
}
