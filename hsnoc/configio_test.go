package hsnoc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
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

// outcomeGoldens is the SHA-256 over the golden files that pin what the
// model computes, each file's path then its bytes, at ModelVersion.
var outcomeGoldens = struct {
	version int
	sha256  string
}{0, "ef5100018584c8d38014d8008671fd9418474343db0b951a17dfb398de0b0b24"}

// TestModelVersionPinsOutcomeGoldens: regenerating a golden that records
// simulated outcomes means the model changed, so ModelVersion must move
// with it, or every result store would keep serving the old physics.
func TestModelVersionPinsOutcomeGoldens(t *testing.T) {
	h := sha256.New()
	for _, path := range []string{
		"testdata/golden-hetero.json",
		"testdata/golden-replay.json",
		"testdata/golden-profile.json",
		"../internal/campaign/testdata/golden-sdm.sha256",
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(path))
		h.Write(b)
	}
	got := hex.EncodeToString(h.Sum(nil))
	switch {
	case ModelVersion != outcomeGoldens.version:
		t.Errorf("ModelVersion is %d but the outcome goldens are pinned at %d: pin %s with version %d", ModelVersion, outcomeGoldens.version, got, ModelVersion)
	case got != outcomeGoldens.sha256:
		t.Errorf("outcome goldens hash %s, pinned %s at ModelVersion %d: a regenerated golden means the model changed, so bump ModelVersion and pin the new hash with it",
			got, outcomeGoldens.sha256, ModelVersion)
	}
}
