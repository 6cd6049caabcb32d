package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	v := seq(216)
	if got := percentile(v, 50); got != 108 {
		t.Errorf("p50 of 1..216 = %v, want 108", got)
	}
	if got := percentile(v, 95); got != 206 {
		t.Errorf("p95 of 1..216 = %v, want 206 (rank ceil(0.95*216))", got)
	}
	if got := percentile(v, 100); got != 216 {
		t.Errorf("p100 = %v, want the maximum", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// fastMean reads the fast end: it holds still while a host's slow share
// grows from a third to two thirds, where the median jumps the gap.
func TestFastMean(t *testing.T) {
	if got := fastMean([]float64{8, 1, 7, 2, 6, 5, 4, 3}); got != 1.5 {
		t.Errorf("fastMean = %v, want 1.5 (mean of the fastest two of eight)", got)
	}
	if got := fastMean([]float64{9, 4, 5}); got != 4 {
		t.Errorf("under four samples fastMean is the minimum: got %v", got)
	}
	if fastMean(nil) != 0 {
		t.Error("fastMean of nothing must be 0")
	}
	fast, slow := 10.0, 15.0
	mix := func(nSlow int) []float64 {
		v := make([]float64, 16)
		for i := range v {
			v[i] = fast
			if i < nSlow {
				v[i] = slow
			}
		}
		return v
	}
	if a, b := fastMean(mix(5)), fastMean(mix(11)); a != fast || b != fast {
		t.Errorf("fastMean(5 slow)=%v, fastMean(11 slow)=%v: want %v both times", a, b, fast)
	}
	if a, b := median(mix(5)), median(mix(11)); b-a != slow-fast {
		t.Errorf("the median jumps the whole gap: %v -> %v", a, b)
	}
}

// A percentile may be quoted only with ten samples beyond it.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{10000, 99.9, true},
		{9999, 99.9, false},
		{1000, 99, true},
		{216, 95, true},  // fleet_cold's job count: 10.8 samples beyond p95
		{199, 95, false}, // 9.95 is not ten
		{135, 90, true},
		{40, 75, true},
		{39, 75, false},
	} {
		if got := hasTail(c.n, c.p); got != c.want {
			t.Errorf("hasTail(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// quartiles must match Python's statistics.quantiles(v, n=4), which the
// driver uses for the spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([12.1, 11.8, 12.4, 12.0, 13.0, 11.9, 12.2], n=4) -> [11.9, 12.1, 12.4]
	q1, q2, q3 = quartiles([]float64{12.1, 11.8, 12.4, 12.0, 13.0, 11.9, 12.2})
	if math.Abs(q1-11.9) > 1e-12 || math.Abs(q2-12.1) > 1e-12 || math.Abs(q3-12.4) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 11.9 12.1 12.4", q1, q2, q3)
	}
	if got, want := spread(seq(10)), 5.5/5.5; got != want {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 {
		t.Error("spread of one sample must be 0")
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	if got := worsening(10, 11, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10->11 = %v, want +0.1", got)
	}
	if got := worsening(10, 11, "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10->11 = %v, want -0.1", got)
	}
}
