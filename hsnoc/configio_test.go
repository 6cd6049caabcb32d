package hsnoc

import (
	"bytes"
	"testing"
)

// TestConfigHashRoundTrip checks that the canonical hash survives a
// Save/Load round trip — the property the campaign result cache relies
// on when a spec is re-submitted from its persisted form.
func TestConfigHashRoundTrip(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Mode = HybridTDM
	cfg.PathSharing = true
	cfg.VCPowerGating = true
	cfg.SlotTableEntries = 64
	cfg.Seed = 42

	var buf bytes.Buffer
	if err := SaveConfig(&buf, cfg); err != nil {
		t.Fatalf("SaveConfig: %v", err)
	}
	got, err := LoadConfig(&buf)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	if got.Hash() != cfg.Hash() {
		t.Errorf("hash changed across round trip: %s != %s", got.Hash(), cfg.Hash())
	}
}

func TestConfigHashSensitivity(t *testing.T) {
	base := DefaultConfig(6, 6)
	base.Mode = HybridTDM
	h0 := base.Hash()
	if len(h0) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(h0))
	}
	if h1 := base.Hash(); h1 != h0 {
		t.Errorf("hash not deterministic: %s != %s", h1, h0)
	}

	mods := map[string]func(Config) Config{
		"seed":       func(c Config) Config { c.Seed = 2; return c },
		"mode":       func(c Config) Config { c.Mode = PacketSwitched; return c },
		"width":      func(c Config) Config { c.Width = 8; return c },
		"slot table": func(c Config) Config { c.SlotTableEntries = 256; return c },
		"sharing":    func(c Config) Config { c.PathSharing = true; return c },
		"vc gating":  func(c Config) Config { c.VCPowerGating = true; return c },
	}
	for name, mod := range mods {
		if mod(base).Hash() == h0 {
			t.Errorf("changing %s did not change the hash", name)
		}
	}

	// Workers is explicitly excluded: executor parallelism never
	// changes results, so parallel and serial runs must share cache
	// entries.
	w := base
	w.Workers = 8
	if w.Hash() != h0 {
		t.Errorf("Workers changed the hash: parallel and serial runs would miss each other's cache entries")
	}
}
