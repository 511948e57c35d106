package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free fixed-bucket histogram over int64 observations
// (nanoseconds, node counts, ...), safe for concurrent use: an observation
// is three atomic adds and a CAS max, so it can sit on a per-request hot
// path. Quantiles are estimated as the upper bound of the bucket the
// target rank falls in; the max is exact.
type Histogram struct {
	bounds []int64 // ascending inclusive upper bounds; one overflow bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds.
func NewHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// NewLatencyHistogram returns a histogram of durations in nanoseconds with
// buckets from 20µs to ~84s in ×1.5 steps: fine resolution where queries
// live (sub-millisecond to tens of milliseconds), coarse at the tail.
func NewLatencyHistogram() *Histogram {
	var bounds []int64
	for b := 20e3; b < 90e9; b *= 1.5 {
		bounds = append(bounds, int64(b))
	}
	return NewHistogram(bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	UpdateMax(&h.max, v)
}

// quantile returns the estimated q-quantile (0 with no observations).
func (h *Histogram) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen int64
	for i := range h.bounds {
		seen += h.counts[i].Load()
		if seen > target {
			return h.bounds[i]
		}
	}
	return h.max.Load()
}

// HistogramSummary is the JSON rendering of a Histogram in the units it
// was observed in.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Summary reads the histogram's count, mean, p50/p90/p99 and max.
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{
		Count: h.count.Load(),
		P50:   h.quantile(0.50),
		P90:   h.quantile(0.90),
		P99:   h.quantile(0.99),
		Max:   h.max.Load(),
	}
	if s.Count > 0 {
		s.Mean = float64(h.sum.Load()) / float64(s.Count)
	}
	return s
}

// LatencySummary is the JSON rendering of a histogram of nanosecond
// durations, in milliseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P90MS  float64 `json:"p90Ms"`
	P99MS  float64 `json:"p99Ms"`
	MaxMS  float64 `json:"maxMs"`
}

// Latency is Summary for a histogram of nanosecond durations.
func (h *Histogram) Latency() LatencySummary {
	const ms = float64(time.Millisecond)
	s := h.Summary()
	return LatencySummary{
		Count:  s.Count,
		MeanMS: s.Mean / ms,
		P50MS:  float64(s.P50) / ms,
		P90MS:  float64(s.P90) / ms,
		P99MS:  float64(s.P99) / ms,
		MaxMS:  float64(s.Max) / ms,
	}
}
