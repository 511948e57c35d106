package serve

// Service observability. Counters are lock-free (atomics plus a
// fixed-bucket latency histogram) so the query hot path never contends
// with scrapes or with other queries; /metrics renders them as JSON, and
// cmd/reconserve additionally publishes the same view through expvar.

import (
	"sync/atomic"
	"time"

	"refrecon/internal/obs"
)

// LatencySummary and SizeSummary are the JSON renderings of the service's
// latency and expansion-size histograms.
type (
	LatencySummary = obs.LatencySummary
	SizeSummary    = obs.HistogramSummary
)

// metrics aggregates the service counters.
type metrics struct {
	queries   atomic.Int64 // all reconcile queries, every mode
	queryErrs atomic.Int64
	queryLat  *obs.Histogram // attribute-mode latency
	candRefs  atomic.Int64   // total blocking candidate references across queries
	candLast  atomic.Int64
	candMax   atomic.Int64

	// Collective-mode telemetry, split from the attribute path so the two
	// latency profiles stay readable side by side.
	collQueries  atomic.Int64
	collDegraded atomic.Int64 // queries that fell back to attribute-only scoring
	collLat      *obs.Histogram
	collSize     *obs.Histogram // expanded-subgraph pair nodes per query

	// Ecosystem-surface counters: suggest autocompletes, preview flyouts,
	// and data-extension requests.
	suggests atomic.Int64
	previews atomic.Int64
	extends  atomic.Int64

	batches    atomic.Int64
	ingestRefs atomic.Int64
	ingestNS   atomic.Int64
	lastInNS   atomic.Int64

	// poisoned counts session poisonings (commit or publish failures that
	// forced a from-scratch rebuild on the next ingest); it ticks in both
	// in-memory and durable modes.
	poisoned atomic.Int64

	// Durability gauges, synced from the mu-guarded service state after
	// every ingest so /metrics never takes the writer lock.
	durErrors      atomic.Int64 // non-fatal durability failures (marker/checkpoint/compaction)
	checkpoints    atomic.Int64
	ckptBytes      atomic.Int64 // size of the newest checkpoint file
	ckptOrdinal    atomic.Int64
	accepted       atomic.Int64
	committed      atomic.Int64
	historyRecords atomic.Int64
	logBytes       atomic.Int64
	logSegments    atomic.Int64
}

func newMetrics() *metrics {
	// Expansion sizes bucket by powers of two up to 65536: collective
	// subgraphs are budget-capped (default 512 pair nodes), so the top
	// buckets only catch raised budgets.
	var sizes []int64
	for b := int64(1); b <= 65536; b *= 2 {
		sizes = append(sizes, b)
	}
	return &metrics{
		queryLat: obs.NewLatencyHistogram(),
		collLat:  obs.NewLatencyHistogram(),
		collSize: obs.NewHistogram(sizes),
	}
}

func (m *metrics) recordQuery(d time.Duration, candRefs int, err bool) {
	m.queries.Add(1)
	if err {
		m.queryErrs.Add(1)
		return
	}
	m.queryLat.Observe(d.Nanoseconds())
	m.candRefs.Add(int64(candRefs))
	m.candLast.Store(int64(candRefs))
	obs.UpdateMax(&m.candMax, int64(candRefs))
}

// recordCollective records one collective-mode query: latency and
// expansion size land in the collective histograms, while the shared
// query/candidate counters tick as for any query.
func (m *metrics) recordCollective(d time.Duration, candRefs, pairNodes int, degraded, err bool) {
	m.queries.Add(1)
	m.collQueries.Add(1)
	if err {
		m.queryErrs.Add(1)
		return
	}
	m.collLat.Observe(d.Nanoseconds())
	m.collSize.Observe(int64(pairNodes))
	if degraded {
		m.collDegraded.Add(1)
	}
	m.candRefs.Add(int64(candRefs))
	m.candLast.Store(int64(candRefs))
	obs.UpdateMax(&m.candMax, int64(candRefs))
}

func (m *metrics) recordIngest(refs int, d time.Duration) {
	m.batches.Add(1)
	m.ingestRefs.Add(int64(refs))
	m.ingestNS.Add(d.Nanoseconds())
	m.lastInNS.Store(d.Nanoseconds())
}

// MetricsSnapshot is the JSON document served at /metrics (and published
// via expvar by cmd/reconserve).
type MetricsSnapshot struct {
	Queries      int64          `json:"queries"`
	QueryErrors  int64          `json:"queryErrors"`
	QueryLatency LatencySummary `json:"queryLatencyMs"`
	Candidates   CandidateStats `json:"candidates"`
	// Collective-mode split: query count, degraded (attribute-fallback)
	// count, a separate latency histogram, and the expanded-subgraph-size
	// distribution. QueryLatency above covers attribute-mode queries only.
	CollectiveQueries   int64          `json:"collectiveQueries"`
	CollectiveDegraded  int64          `json:"collectiveDegraded"`
	CollectiveLatency   LatencySummary `json:"collectiveLatencyMs"`
	CollectiveExpansion SizeSummary    `json:"collectiveExpansionNodes"`
	// Ecosystem-surface request counters (suggest/preview/data-extension).
	SuggestRequests int64         `json:"suggestRequests"`
	PreviewRequests int64         `json:"previewRequests"`
	ExtendRequests  int64         `json:"extendRequests"`
	Ingest          IngestMetrics `json:"ingest"`
	Snapshot        SnapshotInfo  `json:"snapshot"`
	UptimeSeconds   float64       `json:"uptimeSeconds"`
	StoreReferences int           `json:"storeReferences"`
	// SessionPoisoned counts commits that failed after their batch reached
	// the store, forcing the next ingest to rebuild the session.
	SessionPoisoned int64 `json:"sessionPoisoned"`
	// Durability describes the write-ahead log and checkpoints when the
	// service runs with Config.DataDir (absent otherwise).
	Durability *DurabilityInfo `json:"durability,omitempty"`
	// Engine carries the reconciliation-engine counters when the service
	// was configured with an obs.Counters set (absent otherwise).
	Engine *obs.CounterSnapshot `json:"engine,omitempty"`
}

// DurabilityInfo describes the durable-session state at /metrics.
type DurabilityInfo struct {
	// Recovery says how the service last started: "fresh", "checkpoint"
	// (fast restore), or "replay" (history replayed through the session).
	Recovery        string  `json:"recovery"`
	RecoveryBatches int     `json:"recoveryBatches"`
	RecoveryMS      float64 `json:"recoveryMs"`
	// Accepted is the ordinal of the last batch fsynced to the log;
	// Committed the ordinal whose commit last published a view. They
	// diverge while the session is poisoned.
	Accepted  int64 `json:"accepted"`
	Committed int64 `json:"committed"`
	// HistoryRecords counts batch + lifecycle records in the replayable
	// history.
	HistoryRecords    int64 `json:"historyRecords"`
	LogBytes          int64 `json:"logBytes"`
	LogSegments       int64 `json:"logSegments"`
	Checkpoints       int64 `json:"checkpoints"`
	CheckpointBytes   int64 `json:"checkpointBytes"`
	CheckpointOrdinal int64 `json:"checkpointOrdinal"`
	Errors            int64 `json:"errors"`
}

// CandidateStats describes blocking candidate-set sizes per query.
type CandidateStats struct {
	Total int64   `json:"total"`
	Last  int64   `json:"last"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
}

// IngestMetrics describes ingest batch timings.
type IngestMetrics struct {
	Batches    int64   `json:"batches"`
	References int64   `json:"references"`
	LastMS     float64 `json:"lastMs"`
	TotalMS    float64 `json:"totalMs"`
}

// SnapshotInfo describes the currently published snapshot.
type SnapshotInfo struct {
	Version    int     `json:"version"`
	AgeSeconds float64 `json:"ageSeconds"`
	References int     `json:"references"`
	Entities   int     `json:"entities"`
	// OverMergeClass / OverMergeShare are recon.Stats' over-merge alarm.
	OverMergeClass string  `json:"overMergeClass"`
	OverMergeShare float64 `json:"overMergeShare"`
}

func (m *metrics) snapshot() MetricsSnapshot {
	out := MetricsSnapshot{
		Queries:             m.queries.Load(),
		QueryErrors:         m.queryErrs.Load(),
		QueryLatency:        m.queryLat.Latency(),
		CollectiveQueries:   m.collQueries.Load(),
		CollectiveDegraded:  m.collDegraded.Load(),
		CollectiveLatency:   m.collLat.Latency(),
		CollectiveExpansion: m.collSize.Summary(),
		SuggestRequests:     m.suggests.Load(),
		PreviewRequests:     m.previews.Load(),
		ExtendRequests:      m.extends.Load(),
		Candidates: CandidateStats{
			Total: m.candRefs.Load(),
			Last:  m.candLast.Load(),
			Max:   m.candMax.Load(),
		},
		Ingest: IngestMetrics{
			Batches:    m.batches.Load(),
			References: m.ingestRefs.Load(),
			LastMS:     float64(m.lastInNS.Load()) / 1e6,
			TotalMS:    float64(m.ingestNS.Load()) / 1e6,
		},
	}
	if n := out.QueryLatency.Count + out.CollectiveLatency.Count; n > 0 {
		out.Candidates.Mean = float64(out.Candidates.Total) / float64(n)
	}
	out.SessionPoisoned = m.poisoned.Load()
	return out
}

// durability renders the durability gauges (called only with DataDir set).
func (m *metrics) durability(r recoveryInfo) *DurabilityInfo {
	return &DurabilityInfo{
		Recovery:          r.Mode,
		RecoveryBatches:   r.Batches,
		RecoveryMS:        r.Millis,
		Accepted:          m.accepted.Load(),
		Committed:         m.committed.Load(),
		HistoryRecords:    m.historyRecords.Load(),
		LogBytes:          m.logBytes.Load(),
		LogSegments:       m.logSegments.Load(),
		Checkpoints:       m.checkpoints.Load(),
		CheckpointBytes:   m.ckptBytes.Load(),
		CheckpointOrdinal: m.ckptOrdinal.Load(),
		Errors:            m.durErrors.Load(),
	}
}
