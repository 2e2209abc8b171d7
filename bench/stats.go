package main

import (
	"slices"
	"time"

	"repro/internal/stats"
)

// epoch anchors every timestamp the benchmark takes; stamps are monotonic
// nanoseconds since it, so they subtract across goroutines.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest ranks (0 for an empty slice).
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// median returns the median of xs, which it leaves as it was.
func median(xs []float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return quantile(sorted, 0.5)
}

// p50 sorts xs in place and returns its median, taken as the mean of the
// middle fifth of the samples: the per-layer timings are a few hundred
// nanoseconds read off a nanosecond clock, and a plain median of such
// readings is a whole number that comes out identical on run after run.
func p50(xs []int64) float64 {
	slices.Sort(xs)
	if len(xs) == 0 {
		return 0
	}
	lo := len(xs) * 2 / 5
	hi := max(lo+1, len(xs)*3/5)
	var sum int64
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return float64(sum) / float64(hi-lo)
}

// sample is one metric's value over the repetitions of a run: the median is
// the reported value, min and max show the spread, n counts repetitions and
// obs the observations behind each repetition's value.
type sample struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Obs    int     `json:"obs"`
}

func summarize(values []float64, obs int) sample {
	var s stats.Sample
	for _, v := range values {
		s.Add(v)
	}
	return sample{Median: s.Median(), Min: s.Min(), Max: s.Max(), N: s.N(), Obs: obs}
}
