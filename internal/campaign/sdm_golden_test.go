package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tdmnoc/hsnoc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden-sdm.sha256")

// TestSDMGoldenRecords pins the Hybrid-SDM engine's output: the sha256
// over the JSON of every record a fixed job list produces must equal the
// committed digest, which was generated before the SDM kernel was
// optimised. The SDM network has no invariant digest of its own, so this
// is the only thing that catches a change to its arbitration order,
// counters or energy accounting (regenerate with `-update` after an
// intentional model change).
func TestSDMGoldenRecords(t *testing.T) {
	sdmCfg := func(w, h int) hsnoc.Config {
		cfg := hsnoc.DefaultConfig(w, h)
		cfg.Mode = hsnoc.HybridSDM
		return cfg
	}
	type row struct {
		label   string
		cfg     hsnoc.Config
		pattern hsnoc.Pattern
		rate    float64
	}
	var rows []row
	patterns := []struct {
		name string
		p    hsnoc.Pattern
	}{{"ur", hsnoc.UniformRandom}, {"tornado", hsnoc.Tornado}, {"transpose", hsnoc.Transpose}}
	for _, pat := range patterns {
		for _, rate := range []float64{0.05, 0.15, 0.45} { // 0.45 is past saturation
			for _, gated := range []int{0, 2} {
				cfg := sdmCfg(6, 6)
				cfg.GatedPlanes = gated
				rows = append(rows, row{fmt.Sprintf("6x6/%s/%.2f/gated%d", pat.name, rate, gated), cfg, pat.p, rate})
			}
		}
	}
	rows = append(rows, row{"8x8/transpose/0.20", sdmCfg(8, 8), hsnoc.Transpose, 0.20}) // circuits form
	vc2 := sdmCfg(6, 6)
	vc2.VCs = 2
	rows = append(rows, row{"6x6/tornado/0.15/vcs2", vc2, hsnoc.Tornado, 0.15})

	h := sha256.New()
	for _, r := range rows {
		rec, _, err := Simulate(context.Background(), NewJob(r.cfg, r.pattern, r.rate, 600, 2400, r.label))
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		if rec.Packets == 0 {
			t.Fatalf("%s: no packets delivered", r.label)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %s\n", r.label, b)
	}
	digest := fmt.Sprintf("%x\n", h.Sum(nil))

	golden := filepath.Join("testdata", "golden-sdm.sha256")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden digest (regenerate with `go test ./internal/campaign -run SDMGolden -update`): %v", err)
	}
	if digest != string(want) {
		t.Errorf("SDM record digest changed:\n got %swant %s(intentional model changes: regenerate with -update)", digest, want)
	}
}
