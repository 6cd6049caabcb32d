// Benchmarks regenerating the paper's tables and figures in miniature.
// Each benchmark runs a shortened version of the corresponding experiment
// and attaches the headline shape metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as a quick reproduction check.
// The full-length experiments live in cmd/experiments.
package tdmnoc_test

import (
	"testing"

	"tdmnoc/hsnoc"
)

const (
	benchWarm    = 3000
	benchMeasure = 12000
)

func synth(b *testing.B, cfg hsnoc.Config, p hsnoc.Pattern, rate float64) hsnoc.Results {
	b.Helper()
	s := hsnoc.NewSynthetic(cfg, p, rate)
	defer s.Close()
	s.Warmup(benchWarm)
	res := s.Run(benchMeasure)
	if d := s.Diagnose(); d.MisroutedCS != 0 || d.DroppedCS != 0 {
		b.Fatalf("invariant violations: %+v", d)
	}
	return res
}

func baseCfg() hsnoc.Config { return hsnoc.DefaultConfig(6, 6) }

func tdmCfg() hsnoc.Config {
	c := baseCfg()
	c.Mode = hsnoc.HybridTDM
	return c
}

func sdmCfg() hsnoc.Config {
	c := baseCfg()
	c.Mode = hsnoc.HybridSDM
	return c
}

// BenchmarkFig4LoadLatency regenerates one point of each Fig. 4 curve
// (tornado at moderate load) and reports the latency of the three
// architectures.
func BenchmarkFig4LoadLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps := synth(b, baseCfg(), hsnoc.Tornado, 0.20)
		sdm := synth(b, sdmCfg(), hsnoc.Tornado, 0.20)
		tdm := synth(b, tdmCfg(), hsnoc.Tornado, 0.20)
		b.ReportMetric(ps.AvgNetLatency, "ps-latency")
		b.ReportMetric(sdm.AvgNetLatency, "sdm-latency")
		b.ReportMetric(tdm.AvgNetLatency, "tdm-latency")
	}
}

// BenchmarkFig4Saturation reports the accepted throughput of the three
// architectures past the SDM saturation point (tornado at 0.45): the
// paper's headline TDM-vs-SDM scaling comparison.
func BenchmarkFig4Saturation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps := synth(b, baseCfg(), hsnoc.Tornado, 0.45)
		sdm := synth(b, sdmCfg(), hsnoc.Tornado, 0.45)
		tdm := synth(b, tdmCfg(), hsnoc.Tornado, 0.45)
		b.ReportMetric(ps.PayloadThroughput, "ps-accepted")
		b.ReportMetric(sdm.PayloadThroughput, "sdm-accepted")
		b.ReportMetric(tdm.PayloadThroughput, "tdm-accepted")
	}
}

// BenchmarkFig5EnergySaving regenerates one point of Fig. 5: hybrid
// energy saving versus the packet-switched baseline under tornado.
func BenchmarkFig5EnergySaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := synth(b, baseCfg(), hsnoc.Tornado, 0.15)
		tdm := synth(b, tdmCfg(), hsnoc.Tornado, 0.15)
		vct := tdmCfg()
		vct.VCPowerGating = true
		gated := synth(b, vct, hsnoc.Tornado, 0.15)
		b.ReportMetric(100*tdm.EnergySavingVs(base), "tdm-saving-%")
		b.ReportMetric(100*gated.EnergySavingVs(base), "vct-saving-%")
	}
}

// BenchmarkFig6Scalability runs the 8x8 scalability point: throughput
// improvement and energy saving of Hybrid-TDM-VCt on the larger mesh.
func BenchmarkFig6Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc := hsnoc.DefaultConfig(8, 8)
		tc := hsnoc.DefaultConfig(8, 8)
		tc.Mode = hsnoc.HybridTDM
		tc.VCPowerGating = true
		base := synth(b, pc, hsnoc.Transpose, 0.20)
		vct := synth(b, tc, hsnoc.Transpose, 0.20)
		b.ReportMetric(100*(vct.PayloadThroughput-base.PayloadThroughput)/base.PayloadThroughput, "thruput-gain-%")
		b.ReportMetric(100*vct.EnergySavingVs(base), "energy-saving-%")
	}
}

func heteroRun(b *testing.B, cfg hsnoc.Config, cpu, gpu string) hsnoc.HeteroResults {
	b.Helper()
	h, err := hsnoc.NewHeterogeneous(cfg, cpu, gpu)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	h.Warmup(benchWarm)
	res := h.Run(benchMeasure)
	if d := h.Diagnose(); d.MisroutedCS != 0 || d.DroppedCS != 0 {
		b.Fatalf("invariant violations: %+v", d)
	}
	return res
}

// BenchmarkFig8Heterogeneous runs one workload mix over the baseline and
// the full hybrid configuration, reporting the Fig. 8 metrics.
func BenchmarkFig8Heterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hop := tdmCfg()
		hop.PathSharing = true
		hop.VCPowerGating = true
		base := heteroRun(b, baseCfg(), "EQUAKE", "BLACKSCHOLES")
		full := heteroRun(b, hop, "EQUAKE", "BLACKSCHOLES")
		b.ReportMetric(100*(1-full.Energy.TotalPJ/base.Energy.TotalPJ), "energy-saving-%")
		b.ReportMetric(float64(full.CPUInstructions)/float64(base.CPUInstructions), "cpu-speedup")
		b.ReportMetric(float64(full.GPUIterations)/float64(base.GPUIterations), "gpu-speedup")
	}
}

// BenchmarkFig9EnergyBreakdown reports the buffer-energy reduction that
// dominates Fig. 9(a) and the circuit-switching overhead share.
func BenchmarkFig9EnergyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hop := tdmCfg()
		hop.PathSharing = true
		hop.VCPowerGating = true
		base := heteroRun(b, baseCfg(), "ART", "LPS")
		full := heteroRun(b, hop, "ART", "LPS")
		bufSave := 1 - full.Energy.DynamicPJ["buffer"]/base.Energy.DynamicPJ["buffer"]
		var baseDyn float64
		for _, v := range base.Energy.DynamicPJ {
			baseDyn += v
		}
		b.ReportMetric(100*bufSave, "buffer-dyn-saving-%")
		b.ReportMetric(100*full.Energy.DynamicPJ["cs-component"]/baseDyn, "cs-overhead-%")
	}
}

// BenchmarkTable3CircuitSwitchedPercent reports the measured GPU
// injection rate and circuit-switched flit share for one Table III row.
func BenchmarkTable3CircuitSwitchedPercent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := heteroRun(b, tdmCfg(), "EQUAKE", "BLACKSCHOLES")
		b.ReportMetric(res.GPUInjectionRate, "gpu-inj-rate")
		b.ReportMetric(100*res.GPUCSFraction, "gpu-cs-%")
	}
}

// BenchmarkAblationTimeSlotStealing compares hybrid throughput with and
// without time-slot stealing (Section II-D).
func BenchmarkAblationTimeSlotStealing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := synth(b, tdmCfg(), hsnoc.Tornado, 0.30)
		cfg := tdmCfg()
		cfg.DisableTimeSlotStealing = true
		without := synth(b, cfg, hsnoc.Tornado, 0.30)
		b.ReportMetric(with.AvgTotalLatency, "steal-latency")
		b.ReportMetric(without.AvgTotalLatency, "nosteal-latency")
	}
}

// BenchmarkAblationPathSharing compares hotspot traffic with and without
// path sharing (Section III-A).
func BenchmarkAblationPathSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := tdmCfg()
		plain := synth(b, cfg, hsnoc.Hotspot, 0.12)
		cfg.PathSharing = true
		shared := synth(b, cfg, hsnoc.Hotspot, 0.12)
		b.ReportMetric(float64(shared.Hitchhikes+shared.VicinityRides), "rides")
		b.ReportMetric(100*shared.EnergySavingVs(plain), "extra-saving-%")
	}
}

// BenchmarkAblationDynamicSlots compares dynamic slot-table sizing
// against statically full tables (Section II-C).
func BenchmarkAblationDynamicSlots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dyn := synth(b, tdmCfg(), hsnoc.Tornado, 0.15)
		cfg := tdmCfg()
		cfg.DisableDynamicSlotSizing = true
		stat := synth(b, cfg, hsnoc.Tornado, 0.15)
		b.ReportMetric(float64(dyn.ActiveSlotEntries), "dyn-active-slots")
		b.ReportMetric(dyn.AvgTotalLatency, "dyn-latency")
		b.ReportMetric(stat.AvgTotalLatency, "static-latency")
	}
}

// BenchmarkAblationVCGating compares VC power gating's static energy
// saving against the ungated hybrid (Section III-B).
func BenchmarkAblationVCGating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := synth(b, tdmCfg(), hsnoc.Tornado, 0.10)
		cfg := tdmCfg()
		cfg.VCPowerGating = true
		gated := synth(b, cfg, hsnoc.Tornado, 0.10)
		var ps, gs float64
		for _, v := range plain.Energy.StaticPJ {
			ps += v
		}
		for _, v := range gated.Energy.StaticPJ {
			gs += v
		}
		b.ReportMetric(100*(1-gs/ps), "static-saving-%")
	}
}

// BenchmarkEngine measures raw simulation speed: router-cycles per second
// of the 6x6 hybrid network under load.
func BenchmarkEngine(b *testing.B) {
	cfg := tdmCfg()
	s := hsnoc.NewSynthetic(cfg, hsnoc.UniformRandom, 0.2)
	defer s.Close()
	s.Warmup(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Warmup(1000) // 1000 cycles x 36 routers per iteration
	}
	b.ReportMetric(float64(36*1000), "router-cycles/op")
}

// BenchmarkHotPathSteadyState is the tentpole regression benchmark: one
// op is one cycle of a warmed 6x6 hybrid-TDM network (the Fig. 4
// miniature hsnoc's TestHotPathAllocationFree pins). The long warmup
// steps past the allocator transient — pool stocking, circuit
// establishment — so -benchmem reports the steady state, which must
// stay at 0 allocs/op.
func BenchmarkHotPathSteadyState(b *testing.B) {
	cfg := tdmCfg()
	cfg.PathSharing = true
	cfg.VCPowerGating = true
	s := hsnoc.NewSynthetic(cfg, hsnoc.Tornado, 0.20)
	defer s.Close()
	s.Warmup(40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Warmup(1)
	}
}

// BenchmarkAblationLatencyVCGating compares the paper's suggested
// latency-driven gating refinement (Section V-B4) against the
// utilisation-driven policy.
func BenchmarkAblationLatencyVCGating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		util := tdmCfg()
		util.VCPowerGating = true
		lat := tdmCfg()
		lat.LatencyBasedVCGating = true
		u := synth(b, util, hsnoc.Tornado, 0.20)
		l := synth(b, lat, hsnoc.Tornado, 0.20)
		b.ReportMetric(u.AvgTotalLatency, "util-gate-latency")
		b.ReportMetric(l.AvgTotalLatency, "lat-gate-latency")
		var us, ls float64
		for _, v := range u.Energy.StaticPJ {
			us += v
		}
		for _, v := range l.Energy.StaticPJ {
			ls += v
		}
		b.ReportMetric(ls/us, "static-energy-ratio")
	}
}

// BenchmarkAblationSAIterations compares the single-pass separable switch
// allocator with a 2-iteration iSLIP matching under saturating load.
func BenchmarkAblationSAIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one := tdmCfg()
		two := tdmCfg()
		two.SAIterations = 2
		r1 := synth(b, one, hsnoc.UniformRandom, 0.45)
		r2 := synth(b, two, hsnoc.UniformRandom, 0.45)
		b.ReportMetric(r1.AvgTotalLatency, "islip1-latency")
		b.ReportMetric(r2.AvgTotalLatency, "islip2-latency")
		b.ReportMetric(r2.PayloadThroughput-r1.PayloadThroughput, "accepted-delta")
	}
}
