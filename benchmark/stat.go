package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// fastMean is the mean of the fastest quarter of the samples (at least
// one). Interference from a shared host only ever adds time, so the
// fast end of samples spread over a few seconds estimates what the code
// costs; the median and the mean follow whichever speed the host
// happened to run at.
func fastMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return mean(s[:max(len(s)/4, 1)])
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// hasTail reports whether n samples leave at least ten beyond the p-th
// percentile, the metrics guide's condition for quoting it: p95 needs
// 200 samples, which is why fleet_cold always runs 216 jobs.
func hasTail(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9 // 100-99.9 is not exact in binary
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the driver uses to size
// the run-to-run spread. It needs at least two samples.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worsening is how much worse b is than a as a share of a, signed so
// that positive means worse under the metric's direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}

// geomean of positive values; 0 for none.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(math.Max(x, 1e-12))
	}
	return math.Exp(sum / float64(len(v)))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
