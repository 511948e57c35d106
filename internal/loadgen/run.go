package loadgen

// The replayer. A single writer goroutine issues ingest batches in order,
// gated on query progress (batch i waits until IngestAt[i] queries have
// completed); query clients run either closed-loop (N workers, next query
// as soon as the last returns) or open-loop (a paced arrival process at a
// fixed rate, latency measured from the intended arrival time so a slow
// server cannot hide queueing delay — the coordinated-omission guard).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"refrecon/internal/obs"
	"refrecon/internal/serve"
)

// Options configures a replay run.
type Options struct {
	// Concurrency is the closed-loop worker count (and the open-loop
	// in-flight hint). Minimum 1.
	Concurrency int
	// RateQPS switches to open-loop mode at this arrival rate; 0 keeps
	// closed-loop.
	RateQPS float64
}

// LatencyStats summarizes one client-side latency histogram (the
// server's own bucket layout).
type LatencyStats = obs.LatencySummary

// Report is the machine-readable result of one replay.
type Report struct {
	Dataset     string  `json:"dataset"`
	Seed        int64   `json:"seed"`
	Refs        int     `json:"refs"`
	Mode        string  `json:"mode"` // "closed" or "open"
	Concurrency int     `json:"concurrency"`
	RateQPS     float64 `json:"rateQps,omitempty"`

	Queries         int     `json:"queries"`
	IngestBatches   int     `json:"ingestBatches"`
	IngestedRefs    int     `json:"ingestedRefs"`
	DurationSec     float64 `json:"durationSec"`
	QPS             float64 `json:"qps"`
	TransportErrors int64   `json:"transportErrors"`
	QueryErrors     int64   `json:"queryErrors"`
	EmptyResults    int64   `json:"emptyResults"`

	// Per-mode latency splits, measured at the client.
	Plain      LatencyStats `json:"plainLatencyMs"`
	Collective LatencyStats `json:"collectiveLatencyMs"`
	Ingest     LatencyStats `json:"ingestLatencyMs"`

	// Degraded is the server-side count of collective queries that fell
	// back to attribute-only scoring (from the final metrics scrape; -1
	// when the target exposes no metrics).
	Degraded int64 `json:"degraded"`
}

// Run replays the workload against the target and reports.
func Run(w *Workload, target Target, opts Options) (*Report, error) {
	if opts.Concurrency < 1 {
		opts.Concurrency = 1
	}
	rep := &Report{
		Dataset:     w.Config.Dataset,
		Seed:        w.Config.Seed,
		Refs:        w.Config.Refs,
		Mode:        "closed",
		Concurrency: opts.Concurrency,
		RateQPS:     opts.RateQPS,
		Queries:     len(w.Queries),
	}
	if opts.RateQPS > 0 {
		rep.Mode = "open"
	}

	var (
		completed       atomic.Int64 // queries finished (gates the writer)
		transportErrors atomic.Int64
		queryErrors     atomic.Int64
		emptyResults    atomic.Int64
		plain           = obs.NewLatencyHistogram()
		collective      = obs.NewLatencyHistogram()
		ingestHist      = obs.NewLatencyHistogram()
	)

	runQuery := func(qi int, lat0 time.Time) {
		q := w.Queries[qi]
		out, err := target.Query(q)
		d := time.Since(lat0)
		if err != nil {
			transportErrors.Add(1)
		} else if out.Err {
			queryErrors.Add(1)
		} else {
			if out.Results == 0 {
				emptyResults.Add(1)
			}
			if q.Mode == serve.ModeCollective {
				collective.Observe(d.Nanoseconds())
			} else {
				plain.Observe(d.Nanoseconds())
			}
		}
		completed.Add(1)
	}

	// The writer: batches in order, each gated on query progress. Batch 0
	// is issued synchronously before the clock starts so every run begins
	// against a populated service.
	if len(w.Batches) > 0 {
		t0 := time.Now()
		if err := target.Ingest(w.Batches[0]); err != nil {
			return nil, fmt.Errorf("loadgen: seed ingest: %w", err)
		}
		ingestHist.Observe(time.Since(t0).Nanoseconds())
		rep.IngestBatches++
		rep.IngestedRefs += len(w.Batches[0])
	}

	start := time.Now()
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 1; i < len(w.Batches); i++ {
			for completed.Load() < int64(w.IngestAt[i]) {
				time.Sleep(200 * time.Microsecond)
			}
			t0 := time.Now()
			if err := target.Ingest(w.Batches[i]); err != nil {
				transportErrors.Add(1)
				continue
			}
			ingestHist.Observe(time.Since(t0).Nanoseconds())
			rep.IngestBatches++
			rep.IngestedRefs += len(w.Batches[i])
		}
	}()

	if opts.RateQPS > 0 {
		// Open loop: arrivals at fixed intervals; latency from intended
		// arrival, not actual dispatch.
		interval := time.Duration(float64(time.Second) / opts.RateQPS)
		var wg sync.WaitGroup
		for qi := range w.Queries {
			intended := start.Add(time.Duration(qi) * interval)
			if d := time.Until(intended); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(qi int, intended time.Time) {
				defer wg.Done()
				runQuery(qi, intended)
			}(qi, intended)
		}
		wg.Wait()
	} else {
		// Closed loop: N workers, shared cursor.
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < opts.Concurrency; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					qi := int(next.Add(1)) - 1
					if qi >= len(w.Queries) {
						return
					}
					runQuery(qi, time.Now())
				}
			}()
		}
		wg.Wait()
	}
	writerWG.Wait()

	rep.DurationSec = time.Since(start).Seconds()
	if rep.DurationSec > 0 {
		rep.QPS = float64(len(w.Queries)) / rep.DurationSec
	}
	rep.TransportErrors = transportErrors.Load()
	rep.QueryErrors = queryErrors.Load()
	rep.EmptyResults = emptyResults.Load()
	rep.Plain = plain.Latency()
	rep.Collective = collective.Latency()
	rep.Ingest = ingestHist.Latency()
	rep.Degraded = -1
	if m, err := target.Metrics(); err == nil && m != nil {
		rep.Degraded = m.CollectiveDegraded
	}
	return rep, nil
}
