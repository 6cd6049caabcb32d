package tablei_test

import (
	"math"
	"testing"

	"tdmnoc/internal/power"
	"tdmnoc/internal/tablei"
)

// TestTableI pins each constant to the paper's value, and the area model
// built on them to Section IV-A: 0.177 mm^2 for the packet-switched
// router, 0.188 mm^2 for the hybrid one, a 6.2 % overhead.
func TestTableI(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"VCs", tablei.VCs, 4},
		{"BufDepth", tablei.BufDepth, 5},
		{"SlotTableEntries", tablei.SlotTableEntries, 128},
		{"DLTEntries", tablei.DLTEntries, 8},
		{"SDMPlanes", tablei.SDMPlanes, 4},
		{"PSDataFlits", tablei.PSDataFlits, 5},
		{"SetupThreshold", tablei.SetupThreshold, 4},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, the paper's is %d", c.name, c.got, c.want)
		}
	}

	ps := power.RouterAreaMM2(power.RouterAreaConfig{VCsPerPort: tablei.VCs})
	hy := power.RouterAreaMM2(power.RouterAreaConfig{
		VCsPerPort: tablei.VCs, SlotTableEntries: tablei.SlotTableEntries, Hybrid: true,
	})
	if math.Abs(ps-0.177) > 0.002 {
		t.Errorf("packet router area %.4f mm^2, want 0.177", ps)
	}
	if math.Abs(hy-0.188) > 0.002 {
		t.Errorf("hybrid router area %.4f mm^2, want 0.188", hy)
	}
	if overhead := (hy - ps) / ps; math.Abs(overhead-0.062) > 0.006 {
		t.Errorf("hybrid area overhead %.3f, want 0.062 (Section IV-A)", overhead)
	}
}
