package stats

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRunRecordAccessors(t *testing.T) {
	r := RunRecord{
		Runs: 1, Cycles: 1000, Packets: 200,
		NetLatencySum: 200 * 25.0, TotalLatencySum: 200 * 40.0,
		FlitCycles: 1000 * 0.2, PayloadCycles: 1000 * 0.25,
		CSFracPackets: 200 * 0.5, ConfigFracPackets: 200 * 0.01,
		EnergyPJ: 5000,
	}
	if !approx(r.AvgNetLatency(), 25) {
		t.Errorf("AvgNetLatency = %v, want 25", r.AvgNetLatency())
	}
	if !approx(r.AvgTotalLatency(), 40) {
		t.Errorf("AvgTotalLatency = %v, want 40", r.AvgTotalLatency())
	}
	if !approx(r.Throughput(), 0.2) {
		t.Errorf("Throughput = %v, want 0.2", r.Throughput())
	}
	if !approx(r.PayloadThroughput(), 0.25) {
		t.Errorf("PayloadThroughput = %v, want 0.25", r.PayloadThroughput())
	}
	if !approx(r.CSFlitFraction(), 0.5) {
		t.Errorf("CSFlitFraction = %v, want 0.5", r.CSFlitFraction())
	}
	if !approx(r.ConfigTrafficFraction(), 0.01) {
		t.Errorf("ConfigTrafficFraction = %v, want 0.01", r.ConfigTrafficFraction())
	}
	if s, ok := r.EnergySavingVs(RunRecord{Cycles: 1000, EnergyPJ: 10000}); !ok || !approx(s, 0.5) {
		t.Errorf("EnergySavingVs = %v, %v, want 0.5, true", s, ok)
	}
	// Per-cycle normalization: a baseline twice as long with twice the
	// energy has the same energy per cycle, so the saving is unchanged.
	if s, ok := r.EnergySavingVs(RunRecord{Cycles: 2000, EnergyPJ: 20000}); !ok || !approx(s, 0.5) {
		t.Errorf("EnergySavingVs (2x-length baseline) = %v, %v, want 0.5, true", s, ok)
	}
}

func TestEnergySavingVsUndefined(t *testing.T) {
	full := RunRecord{Cycles: 1000, EnergyPJ: 5000}
	cases := map[string]struct{ r, base RunRecord }{
		"zero record vs zero":  {RunRecord{}, RunRecord{}},
		"zero-cycle numerator": {RunRecord{EnergyPJ: 5000}, full},
		"zero-cycle baseline":  {full, RunRecord{EnergyPJ: 5000}},
		"zero-energy baseline": {full, RunRecord{Cycles: 1000}},
		"failed-job record":    {RunRecord{}, full},
	}
	for name, c := range cases {
		if s, ok := c.r.EnergySavingVs(c.base); ok || s != 0 {
			t.Errorf("%s: EnergySavingVs = %v, %v, want 0, false", name, s, ok)
		}
	}
}

func TestRunRecordZeroSafe(t *testing.T) {
	var z RunRecord
	for name, v := range map[string]float64{
		"AvgNetLatency": z.AvgNetLatency(), "AvgTotalLatency": z.AvgTotalLatency(),
		"Throughput": z.Throughput(), "PayloadThroughput": z.PayloadThroughput(),
		"CSFlitFraction": z.CSFlitFraction(), "ConfigTrafficFraction": z.ConfigTrafficFraction(),
		"GPUInjectionRate": z.GPUInjectionRate(), "GPUCSFraction": z.GPUCSFraction(),
	} {
		if v != 0 {
			t.Errorf("%s on zero record = %v, want 0", name, v)
		}
	}
}

// TestRunRecordMerge checks that merging two regions reproduces the
// packet- and cycle-weighted averages of the combined region.
func TestRunRecordMerge(t *testing.T) {
	a := RunRecord{Runs: 1, Cycles: 1000, Packets: 100, NetLatencySum: 100 * 20,
		FlitCycles: 1000 * 0.1, CSFracPackets: 100 * 0.4, EnergyPJ: 1000, ActiveSlots: 16,
		Hitchhikes: 3, Circuits: 7}
	b := RunRecord{Runs: 1, Cycles: 3000, Packets: 300, NetLatencySum: 300 * 40,
		FlitCycles: 3000 * 0.3, CSFracPackets: 300 * 0.8, EnergyPJ: 3000, ActiveSlots: 8,
		Hitchhikes: 1, Circuits: 2}

	m := a
	m.Merge(b)
	if m.Runs != 2 || m.Cycles != 4000 || m.Packets != 400 {
		t.Fatalf("merged counts = %+v", m)
	}
	// Weighted mean latency: (100*20 + 300*40) / 400 = 35.
	if !approx(m.AvgNetLatency(), 35) {
		t.Errorf("merged AvgNetLatency = %v, want 35", m.AvgNetLatency())
	}
	// Weighted throughput: (1000*0.1 + 3000*0.3) / 4000 = 0.25.
	if !approx(m.Throughput(), 0.25) {
		t.Errorf("merged Throughput = %v, want 0.25", m.Throughput())
	}
	// Weighted CS fraction: (100*0.4 + 300*0.8) / 400 = 0.7.
	if !approx(m.CSFlitFraction(), 0.7) {
		t.Errorf("merged CSFlitFraction = %v, want 0.7", m.CSFlitFraction())
	}
	if m.EnergyPJ != 4000 {
		t.Errorf("merged EnergyPJ = %v, want 4000", m.EnergyPJ)
	}
	if m.ActiveSlots != 16 {
		t.Errorf("merged ActiveSlots = %d, want max 16", m.ActiveSlots)
	}
	if m.Hitchhikes != 4 || m.Circuits != 9 {
		t.Errorf("merged counters = %+v", m)
	}
}

// TestRunRecordMergeMixFigures covers the Section V fields: counters and
// per-component energy add, the GPU accessors re-derive flit-weighted
// figures, and a merge never writes into the records it read.
func TestRunRecordMergeMixFigures(t *testing.T) {
	a := RunRecord{Cycles: 1000, CPUInstructions: 500, GPUIterations: 40,
		GPUFlitCycles: 1000 * 0.2, GPUCSFlitCycles: 1000 * 0.2 * 0.5,
		DynamicPJ: map[string]float64{"buffer": 10, "link": 4}, StaticPJ: map[string]float64{"buffer": 1}}
	b := RunRecord{Cycles: 3000, CPUInstructions: 1500, GPUIterations: 60,
		GPUFlitCycles: 3000 * 0.1, GPUCSFlitCycles: 3000 * 0.1 * 0.25,
		DynamicPJ: map[string]float64{"buffer": 30, "clock": 2}, StaticPJ: map[string]float64{"buffer": 3}}

	var m RunRecord
	m.Merge(a)
	m.Merge(b)
	if m.CPUInstructions != 2000 || m.GPUIterations != 100 {
		t.Errorf("merged tile counters = %d / %d, want 2000 / 100", m.CPUInstructions, m.GPUIterations)
	}
	// (1000*0.2 + 3000*0.1) / 4000 = 0.125 flits/tile/cycle.
	if !approx(m.GPUInjectionRate(), 0.125) {
		t.Errorf("merged GPUInjectionRate = %v, want 0.125", m.GPUInjectionRate())
	}
	// (200*0.5 + 300*0.25) / 500 = 0.35 of GPU flits rode circuits.
	if !approx(m.GPUCSFraction(), 0.35) {
		t.Errorf("merged GPUCSFraction = %v, want 0.35", m.GPUCSFraction())
	}
	if m.DynamicPJ["buffer"] != 40 || m.DynamicPJ["link"] != 4 || m.DynamicPJ["clock"] != 2 || m.StaticPJ["buffer"] != 4 {
		t.Errorf("merged components = %v / %v", m.DynamicPJ, m.StaticPJ)
	}
	if a.DynamicPJ["buffer"] != 10 || len(a.DynamicPJ) != 2 || a.StaticPJ["buffer"] != 1 {
		t.Errorf("Merge wrote into its first source: %v / %v", a.DynamicPJ, a.StaticPJ)
	}
	// Merging records without the fields leaves them absent, so a
	// synthetic aggregate encodes as it always did.
	var s RunRecord
	s.Merge(RunRecord{Runs: 1})
	if s.DynamicPJ != nil || s.StaticPJ != nil {
		t.Errorf("synthetic merge grew component maps: %v / %v", s.DynamicPJ, s.StaticPJ)
	}
}
