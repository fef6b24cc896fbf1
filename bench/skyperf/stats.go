package main

import (
	"math"
	"sort"
)

// Exact order statistics over raw samples.  metrics.Histogram is not used
// here: its log buckets are about 19 % wide, coarser than the regression
// bounds this benchmark has to resolve.

// Dist summarises one set of samples: the value reported for it (the median,
// a named percentile, or the quiet-side quartile: see quietTime), the
// quartiles beside it, and how many samples they rest on.
type Dist struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summarize sorts a copy of samples and reads off median and quartiles.
func summarize(samples []float64) Dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Dist{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// latencyDist summarises nanosecond latencies as milliseconds at percentile
// p (0.5 for the median): the value is that percentile, the quartiles are
// those of the whole sample.
func latencyDist(ns []int64, p float64) Dist {
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v) / 1e6
	}
	sort.Float64s(s)
	return Dist{Value: quantile(s, p), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quietTime and quietRate pick the value reported for a set of repetitions
// or windows: the lower quartile of times, the upper quartile of rates.  On
// the shared 2-vCPU virtual machine the benchmark was sized on, the same code
// runs up to 1.6x slower for seconds at a time (CPU time per request moves
// with it, so it is the processor, not the schedule), and it never runs
// faster than the undisturbed machine allows.  The quartile on the quiet side
// stays among the undisturbed samples as long as a quarter of them are, which
// makes it steadier between invocations than the median; the quartiles in the
// result still describe the whole sample.
func quietTime(samples []float64) Dist {
	d := summarize(samples)
	d.Value = d.Q1
	return d
}

func quietRate(samples []float64) Dist {
	d := summarize(samples)
	d.Value = d.Q3
	return d
}

// scaled multiplies the value and its quartiles by k.
func (d Dist) scaled(k float64) Dist {
	d.Value, d.Q1, d.Q3 = d.Value*k, d.Q1*k, d.Q3*k
	return d
}
