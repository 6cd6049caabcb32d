package power

import (
	"math"
	"testing"
	"testing/quick"

	"tdmnoc/internal/tablei"
)

func TestComponentString(t *testing.T) {
	names := map[Component]string{
		CompBuffer: "buffer", CompCS: "cs-component", CompXbar: "crossbar",
		CompArb: "arbiter", CompClock: "clock", CompLink: "link",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q want %q", c, c.String(), want)
		}
	}
	if Component(42).String() == "" {
		t.Error("unknown component produced empty string")
	}
}

func TestReportDynamicCounting(t *testing.T) {
	m := RouterMeter{
		BufWrites: 10, BufReads: 10, XbarFlits: 10, LinkFlits: 10,
		VCArbs: 2, SWArbs: 10, ActiveCycles: 100,
	}
	b := m.Report()
	wantBuf := 10*bufferWritePJ + 10*bufferReadPJ
	if math.Abs(b.DynamicPJ[CompBuffer]-wantBuf) > 1e-9 {
		t.Errorf("buffer dynamic %.3f, want %.3f", b.DynamicPJ[CompBuffer], wantBuf)
	}
	if math.Abs(b.DynamicPJ[CompXbar]-10*xbarPJ) > 1e-9 {
		t.Errorf("xbar dynamic wrong")
	}
	if math.Abs(b.DynamicPJ[CompClock]-100*clockPJPerCycle) > 1e-9 {
		t.Errorf("clock dynamic wrong")
	}
	if b.DynamicPJ[CompCS] != 0 {
		t.Errorf("pure PS meter has CS energy %.3f", b.DynamicPJ[CompCS])
	}
}

func TestReportStaticScalesWithCycles(t *testing.T) {
	m1 := RouterMeter{Cycles: 1000, BufSlotCycles: 100 * 1000, LinkChannels: 4}
	m2 := RouterMeter{Cycles: 2000, BufSlotCycles: 100 * 2000, LinkChannels: 4}
	b1, b2 := m1.Report(), m2.Report()
	for c := Component(0); c < NumComponents; c++ {
		if b1.StaticPJ[c] == 0 && c != CompCS {
			continue
		}
		if math.Abs(b2.StaticPJ[c]-2*b1.StaticPJ[c]) > 1e-9*math.Max(1, b2.StaticPJ[c]) {
			t.Errorf("%v static did not double: %g vs %g", c, b1.StaticPJ[c], b2.StaticPJ[c])
		}
	}
}

func TestVCGatingReducesBufferLeakage(t *testing.T) {
	full := RouterMeter{Cycles: 1000, BufSlotCycles: 100 * 1000}
	gated := RouterMeter{Cycles: 1000, BufSlotCycles: 50 * 1000} // half the VCs off
	if !(gated.Report().StaticPJ[CompBuffer] < full.Report().StaticPJ[CompBuffer]) {
		t.Fatal("gating buffer slots did not reduce buffer leakage")
	}
}

func TestSlotTableLeakageIsSmallOverhead(t *testing.T) {
	// A hybrid router with full 128-entry tables on 5 ports should pay a
	// static overhead of a few percent, matching the ~2.1 % of Fig. 9(b).
	ps := RouterMeter{Cycles: 10000, BufSlotCycles: 100 * 10000, LinkChannels: 4}
	hy := ps
	hy.SlotEntryCycles = 640 * 10000
	hy.CSCycles = 10000
	psB, hyB := ps.Report(), hy.Report()
	overhead := (hyB.TotalStaticPJ() - psB.TotalStaticPJ()) / psB.TotalStaticPJ()
	if overhead <= 0.005 || overhead >= 0.08 {
		t.Fatalf("CS static overhead = %.3f, want a few percent", overhead)
	}
}

func TestBaselineDynamicProportions(t *testing.T) {
	// With a representative traffic profile (each flit: write+read+xbar+
	// link+arb, routers active most cycles), buffers should be the largest
	// dynamic component and arbiters the smallest, clock and link in
	// between — the Fig. 9(a) baseline shape.
	const flits = 6000
	m := RouterMeter{
		BufWrites: flits, BufReads: flits, XbarFlits: flits, LinkFlits: flits,
		VCArbs: flits / 5, SWArbs: flits, ActiveCycles: 8000, Cycles: 10000,
	}
	b := m.Report()
	tot := b.TotalDynamicPJ()
	share := func(c Component) float64 { return b.DynamicPJ[c] / tot }
	if s := share(CompBuffer); s < 0.28 || s > 0.45 {
		t.Errorf("buffer dynamic share %.2f outside [0.28,0.45]", s)
	}
	if s := share(CompClock); s < 0.10 || s > 0.35 {
		t.Errorf("clock dynamic share %.2f outside [0.10,0.35]", s)
	}
	if s := share(CompLink); s < 0.10 || s > 0.30 {
		t.Errorf("link dynamic share %.2f outside [0.10,0.30]", s)
	}
	if share(CompArb) > 0.10 {
		t.Errorf("arbiter share %.2f too large", share(CompArb))
	}
	if share(CompBuffer) <= share(CompXbar) {
		t.Error("buffers should dominate crossbar energy")
	}
}

func TestBreakdownAddAndTotals(t *testing.T) {
	var a, b Breakdown
	a.DynamicPJ[CompBuffer] = 1
	a.StaticPJ[CompLink] = 2
	b.DynamicPJ[CompBuffer] = 3
	b.StaticPJ[CompClock] = 4
	s := a.Add(b)
	if s.DynamicPJ[CompBuffer] != 4 || s.StaticPJ[CompLink] != 2 || s.StaticPJ[CompClock] != 4 {
		t.Fatalf("Add produced %+v", s)
	}
	if s.TotalDynamicPJ() != 4 || s.TotalStaticPJ() != 6 || s.TotalPJ() != 10 {
		t.Fatalf("totals wrong: %v %v %v", s.TotalDynamicPJ(), s.TotalStaticPJ(), s.TotalPJ())
	}
	// Add must not mutate its receiver (value semantics).
	if a.DynamicPJ[CompBuffer] != 1 {
		t.Error("Add mutated receiver")
	}
}

func TestMeterReset(t *testing.T) {
	m := RouterMeter{BufWrites: 5, Cycles: 10, SlotEntryCycles: 3, LinkChannels: 4}
	m.Reset()
	if m != (RouterMeter{LinkChannels: 4}) {
		t.Fatalf("Reset left %+v", m)
	}
}

func TestReportMonotoneInEvents(t *testing.T) {
	// Property: adding events never decreases total energy.
	f := func(w, r, x uint16) bool {
		m1 := RouterMeter{BufWrites: int64(w), BufReads: int64(r), XbarFlits: int64(x)}
		m2 := RouterMeter{BufWrites: int64(w) + 1, BufReads: int64(r) + 2, XbarFlits: int64(x) + 3}
		return m2.Report().TotalPJ() >= m1.Report().TotalPJ()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAreaCalibration(t *testing.T) {
	// Table I's configurations: 4 VCs per port, and on the hybrid
	// router 128-entry slot tables.
	ps := RouterAreaMM2(RouterAreaConfig{VCsPerPort: tablei.VCs})
	hy := RouterAreaMM2(RouterAreaConfig{
		VCsPerPort: tablei.VCs, SlotTableEntries: tablei.SlotTableEntries, Hybrid: true,
	})
	if math.Abs(ps-0.177) > 0.002 {
		t.Errorf("packet router area %.4f mm^2, want 0.177", ps)
	}
	if math.Abs(hy-0.188) > 0.002 {
		t.Errorf("hybrid router area %.4f mm^2, want 0.188", hy)
	}
	overhead := (hy - ps) / ps
	if math.Abs(overhead-0.062) > 0.006 {
		t.Errorf("hybrid area overhead %.3f, want 0.062 (Section IV-A)", overhead)
	}
}

func TestAreaScalesWithStructures(t *testing.T) {
	small := RouterAreaMM2(RouterAreaConfig{VCsPerPort: 2})
	big := RouterAreaMM2(RouterAreaConfig{VCsPerPort: 8})
	if small >= big {
		t.Error("area did not grow with VC count")
	}
	st128 := RouterAreaMM2(RouterAreaConfig{VCsPerPort: 4, SlotTableEntries: 128, Hybrid: true})
	st256 := RouterAreaMM2(RouterAreaConfig{VCsPerPort: 4, SlotTableEntries: 256, Hybrid: true})
	if st128 >= st256 {
		t.Error("area did not grow with slot-table size")
	}
}

func TestLeakPJConversion(t *testing.T) {
	// 1 mW for 1.5e9 cycles at 1.5 GHz is 1 mW for 1 s = 1 mJ = 1e9 pJ.
	got := leakPJ(1.0, 1_500_000_000)
	if math.Abs(got-1e9) > 1 {
		t.Fatalf("leakPJ = %g, want 1e9", got)
	}
}

func TestSlotTableMuchCheaperThanBuffer(t *testing.T) {
	// The core energy argument: a slot-table lookup must be far cheaper
	// than a buffer write+read, or circuit switching saves nothing.
	if slotReadPJ*5 > bufferWritePJ+bufferReadPJ {
		t.Errorf("slot read %.3f pJ not clearly cheaper than buffering %.3f pJ",
			slotReadPJ, bufferWritePJ+bufferReadPJ)
	}
}
