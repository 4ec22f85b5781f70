package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed request: when it started (open loop: when it was
// due) relative to the start of the timed window, how long the caller
// waited for the answer, and whether the answer was acceptable.
type sample struct {
	at  time.Duration
	lat time.Duration
	ok  bool
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest value with at least p% of the
// values at or below it. Empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values for an
// even count); it sorts a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// numSlices is how many equal parts the timed window is cut into. A
// metric's reported value is the median of its per-slice values, which
// keeps one background merge or collector pause from deciding a run,
// and the minimum and maximum over the slices are its within-run
// spread.
const numSlices = 10

// bySlice cuts samples into numSlices equal parts of window by start
// time and applies f to each part's latencies (milliseconds, sorted
// ascending) and the part's length. The metric's value is the median
// of the parts' values, Min and Max their extremes, N the number of
// samples in the window.
func bySlice(samples []sample, window time.Duration, unit string, f func(latMs []float64, ok int, part time.Duration) float64) metric {
	part := window / numSlices
	lat := make([][]float64, numSlices)
	oks := make([]int, numSlices)
	n := 0
	for _, s := range samples {
		if s.at < 0 || s.at >= window {
			continue
		}
		i := int(s.at / part)
		if i >= numSlices {
			i = numSlices - 1
		}
		n++
		if s.ok {
			oks[i]++
			lat[i] = append(lat[i], float64(s.lat)/float64(time.Millisecond))
		}
	}
	vals := make([]float64, numSlices)
	for i := range vals {
		sort.Float64s(lat[i])
		vals[i] = f(lat[i], oks[i], part)
	}
	out := metric{Value: median(vals), Unit: unit, Min: vals[0], Max: vals[0], N: n}
	for _, v := range vals[1:] {
		out.Min = math.Min(out.Min, v)
		out.Max = math.Max(out.Max, v)
	}
	return out
}

func sliceQPS(samples []sample, window time.Duration) metric {
	return bySlice(samples, window, "1/s", func(_ []float64, ok int, part time.Duration) float64 {
		return float64(ok) / part.Seconds()
	})
}

func slicePercentile(samples []sample, window time.Duration, p float64) metric {
	return bySlice(samples, window, "ms", func(lat []float64, _ int, _ time.Duration) float64 {
		return percentile(lat, p)
	})
}

// tailP999 is the whole-window 99.9th percentile in milliseconds, or 0
// when fewer than ten samples lie beyond it (too few to call it a
// percentile rather than a maximum).
func tailP999(samples []sample, window time.Duration) float64 {
	var lat []float64
	for _, s := range samples {
		if s.ok && s.at >= 0 && s.at < window {
			lat = append(lat, float64(s.lat)/float64(time.Millisecond))
		}
	}
	if len(lat) < 10000 {
		return 0
	}
	sort.Float64s(lat)
	return percentile(lat, 99.9)
}
