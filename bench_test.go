// The two hot-path benchmarks CI runs for their allocation report. The
// paper's tables, figures and ablations are run by cmd/experiments
// (`-exp fig4 … ablation`), not from here.
package tdmnoc_test

import (
	"testing"

	"tdmnoc/hsnoc"
)

func tdmCfg() hsnoc.Config {
	c := hsnoc.DefaultConfig(6, 6)
	c.Mode = hsnoc.HybridTDM
	return c
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
// steps past the allocator transient — pool growth, circuit
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
