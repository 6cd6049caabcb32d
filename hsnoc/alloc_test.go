package hsnoc

import "testing"

// TestHotPathAllocationFree pins the zero-allocation steady state of the
// serial hot path on the Fig. 4 / Fig. 6 miniatures: once a simulator is
// past its warm-up transient (pools filled, rings and circuit free-lists
// at their high-water marks), stepping it allocates nothing. The runs
// are deterministic (fixed seed, serial executor), so an exact zero is
// stable, not flaky.
func TestHotPathAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-up window too long for -short")
	}
	for _, tc := range []struct {
		name          string
		width, height int
		mode          Mode
		pattern       Pattern
		rate          float64
	}{
		{"fig4-ps-tornado-0.20", 6, 6, PacketSwitched, Tornado, 0.20},
		{"fig4-tdm-tornado-0.20", 6, 6, HybridTDM, Tornado, 0.20},
		{"fig4-tdm-uniform-0.35", 6, 6, HybridTDM, UniformRandom, 0.35},
		{"fig6-tdm-transpose-0.20", 8, 8, HybridTDM, Transpose, 0.20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.width, tc.height)
			cfg.Mode = tc.mode
			cfg.PathSharing = tc.mode == HybridTDM
			cfg.VCPowerGating = true
			cfg.Seed = 7
			s := NewSynthetic(cfg, tc.pattern, tc.rate)
			defer s.Close()
			s.Warmup(40000)

			const window = 256
			if avg := testing.AllocsPerRun(8, func() { s.Warmup(window) }); avg != 0 {
				t.Fatalf("steady-state hot path allocates: %.1f allocs per %d-cycle window", avg, window)
			}
		})
	}
}
