package main

import (
	"math"
	"sort"
	"time"
)

// dist summarises raw per-operation durations: the median and the tail
// percentile the sample supports.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct int     `json:"tailPct"`
	Mean    float64 `json:"mean"`
	Max     float64 `json:"max"`
}

// tailPercentile is the percentile rule: the highest of p99, p95, p90 and
// p75 that leaves at least ten samples beyond it, else the median. Above
// p99 the tail of a 2-core sandbox is scheduler noise, so the ladder stops
// there however many samples there are.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if n*(100-p) >= 1000 {
			return p
		}
	}
	return 50
}

// quantile reads the nearest-rank p-th percentile from sorted samples.
func quantile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p == 50 {
		return median(sorted)
	}
	rank := (len(sorted)*p + 99) / 100
	return sorted[max(rank, 1)-1]
}

// median of sorted samples; the mean of the middle two when even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return median(s)
}

func meanOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// summarize sorts a copy of the samples and applies the percentile rule.
func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{TailPct: 50}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: median(s), TailPct: tailPercentile(len(s)), Mean: meanOf(s), Max: s[len(s)-1]}
	d.Tail = quantile(s, d.TailPct)
	return d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) — the figure the driver checks
// against a metric's bound. It needs at least two values.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
