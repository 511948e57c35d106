package obs

import "sync/atomic"

// Counters is the engine-wide counter set. Fields are plain atomics —
// incrementing one is a single uncontended atomic add, and reading them
// never locks — so they are cheap enough to leave enabled on a serving
// path. Hot loops that run millions of times per reconcile (strsim,
// node scoring) must still gate on a nil *Counters: with observability
// off, the cost of the whole layer is that one pointer comparison.
//
// Counters accumulate monotonically for the lifetime of the struct; a
// Session carries one across batches, so snapshot deltas, not absolute
// values, describe a single batch.
type Counters struct {
	// Similarity-cache traffic in simfn.Library.Compare.
	SimfnCacheHits   atomic.Int64
	SimfnCacheMisses atomic.Int64

	// Blocking: candidate pairs emitted, bucket-cap drops, index keys,
	// and the largest bucket seen.
	BlockingCandidates atomic.Int64
	SkippedBuckets     atomic.Int64
	BlockingKeys       atomic.Int64
	MaxBucket          atomic.Int64

	// Propagation-engine activity.
	Steps          atomic.Int64
	Merges         atomic.Int64
	Folds          atomic.Int64
	Rounds         atomic.Int64
	RequeueReal    atomic.Int64
	RequeueStrong  atomic.Int64
	RequeueWeak    atomic.Int64
	QueueHighWater atomic.Int64 // max, not sum

	// Query-time collective reconciliation: queries run, queries that
	// degraded to the attribute-only fallback, RefPair nodes materialized
	// across all expansions, and the largest single expansion.
	CollectiveQueries      atomic.Int64
	CollectiveDegraded     atomic.Int64
	CollectivePairNodes    atomic.Int64
	CollectiveMaxPairNodes atomic.Int64 // max, not sum

	// Session-level events.
	Batches  atomic.Int64
	Canceled atomic.Int64
}

// NewCounters returns a zeroed counter set.
func NewCounters() *Counters { return &Counters{} }

// UpdateMax raises c to at least v (a CAS max; lock-free and safe for
// concurrent use).
func UpdateMax(c *atomic.Int64, v int64) {
	for {
		cur := c.Load()
		if v <= cur || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CounterSnapshot is a point-in-time copy of a Counters set, shaped for
// JSON rendering (the serve /metrics document embeds one).
type CounterSnapshot struct {
	SimfnCacheHits         int64 `json:"simfnCacheHits"`
	SimfnCacheMisses       int64 `json:"simfnCacheMisses"`
	BlockingCandidates     int64 `json:"blockingCandidates"`
	SkippedBuckets         int64 `json:"skippedBuckets"`
	BlockingKeys           int64 `json:"blockingKeys"`
	MaxBucket              int64 `json:"maxBucket"`
	Steps                  int64 `json:"steps"`
	Merges                 int64 `json:"merges"`
	Folds                  int64 `json:"folds"`
	Rounds                 int64 `json:"rounds"`
	RequeueReal            int64 `json:"requeueReal"`
	RequeueStrong          int64 `json:"requeueStrong"`
	RequeueWeak            int64 `json:"requeueWeak"`
	QueueHighWater         int64 `json:"queueHighWater"`
	CollectiveQueries      int64 `json:"collectiveQueries"`
	CollectiveDegraded     int64 `json:"collectiveDegraded"`
	CollectivePairNodes    int64 `json:"collectivePairNodes"`
	CollectiveMaxPairNodes int64 `json:"collectiveMaxPairNodes"`

	Batches  int64 `json:"batches"`
	Canceled int64 `json:"canceled"`
}

// Snapshot copies the current counter values. Safe on a nil receiver
// (returns the zero snapshot).
func (c *Counters) Snapshot() CounterSnapshot {
	if c == nil {
		return CounterSnapshot{}
	}
	return CounterSnapshot{
		SimfnCacheHits:         c.SimfnCacheHits.Load(),
		SimfnCacheMisses:       c.SimfnCacheMisses.Load(),
		BlockingCandidates:     c.BlockingCandidates.Load(),
		SkippedBuckets:         c.SkippedBuckets.Load(),
		BlockingKeys:           c.BlockingKeys.Load(),
		MaxBucket:              c.MaxBucket.Load(),
		Steps:                  c.Steps.Load(),
		Merges:                 c.Merges.Load(),
		Folds:                  c.Folds.Load(),
		Rounds:                 c.Rounds.Load(),
		RequeueReal:            c.RequeueReal.Load(),
		RequeueStrong:          c.RequeueStrong.Load(),
		RequeueWeak:            c.RequeueWeak.Load(),
		QueueHighWater:         c.QueueHighWater.Load(),
		CollectiveQueries:      c.CollectiveQueries.Load(),
		CollectiveDegraded:     c.CollectiveDegraded.Load(),
		CollectivePairNodes:    c.CollectivePairNodes.Load(),
		CollectiveMaxPairNodes: c.CollectiveMaxPairNodes.Load(),
		Batches:                c.Batches.Load(),
		Canceled:               c.Canceled.Load(),
	}
}
