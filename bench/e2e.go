package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"refrecon"
)

// servingSpec describes a workload that drives a reconserve child over
// loopback HTTP. The load is a closed loop, as OpenRefine clients send a
// batch and wait for the reply.
type servingSpec struct {
	name       string
	dataset    string
	refs       int
	perSecond  int // queries in the stream per second of -seconds
	batchSize  int
	collective float64 // share of collective queries; negative keeps loadgen's 25%
	clients    int
	// minTop1 is a garbage detector, not a quality gate: a run whose top
	// candidates hit gold less often than this is not correct. It is far
	// below what the workload scores (see top1_hit_pct).
	minTop1 float64
	// mixed runs a writer beside the query clients on a durable server:
	// batch 0 is loaded during set-up, the rest are interleaved with the
	// queries on loadgen's schedule, then the server is killed and
	// restarted on the same directory.
	mixed bool
}

func (s sizes) readBiblio() servingSpec {
	return servingSpec{name: "read-biblio", dataset: "biblio", refs: s.biblioRefs, perSecond: s.biblioQPS,
		batchSize: s.readBatch, collective: -1, clients: 2, minTop1: 60}
}

func (s sizes) readCatalog() servingSpec {
	return servingSpec{name: "read-catalog", dataset: "catalog", refs: s.catalogRefs, perSecond: s.catalogQPS,
		batchSize: s.readBatch, collective: 0, clients: 2, minTop1: 1}
}

func (s sizes) mixedBiblio() servingSpec {
	return servingSpec{name: "mixed-biblio", dataset: "biblio", refs: s.biblioRefs, perSecond: s.mixedQPS,
		batchSize: s.mixedBatch, collective: -1, clients: 1, minTop1: 60, mixed: true}
}

// replay is the outcome of one pass over a query stream.
type replay struct {
	elapsed   time.Duration
	latencyMS []float64 // per query, by stream index
	top       []string  // id of the top candidate, "" when none
	errs      []error
	ingestMS  []float64 // per batch issued during the pass
	ingestErr []error
}

// replayStream sends queries[0:n) from `clients` closed-loop clients that
// share one cursor. When batches is not nil, a single writer issues
// batches[1:] in order, batch i once ingestAt[i] queries have completed.
func replayStream(srv *server, bodies [][]byte, n, clients int, batches [][]byte, ingestAt []int) replay {
	rp := replay{latencyMS: make([]float64, n), top: make([]string, n), errs: make([]error, n)}
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	if batches != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i < len(batches); i++ {
				for completed.Load() < int64(min(ingestAt[i], n)) {
					time.Sleep(200 * time.Microsecond)
				}
				t0 := time.Now()
				_, err := srv.post("/ingest", batches[i])
				rp.ingestMS = append(rp.ingestMS, ms(time.Since(t0)))
				rp.ingestErr = append(rp.ingestErr, err)
			}
		}()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				qi := int(next.Add(1)) - 1
				if qi >= n {
					return
				}
				t0 := time.Now()
				payload, err := srv.post("/reconcile", bodies[qi])
				rp.latencyMS[qi] = ms(time.Since(t0))
				if err == nil {
					rp.top[qi], err = topOfResponse(payload)
				}
				rp.errs[qi] = err
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	rp.elapsed = time.Since(start)
	return rp
}

func runServing(e *env, spec servingSpec, seed int64, seconds int) (*result, error) {
	res := newResult(spec.name, seed, false)
	clients := e.host.clients(spec.clients)
	nq := spec.perSecond * seconds

	// Set-up: generate, start the server, preload, warm. The server binary
	// is built before this clock starts.
	t0 := time.Now()
	c, err := loadgenCorpus(spec.dataset, spec.refs, nq, spec.batchSize, spec.collective, seed)
	if err != nil {
		return nil, err
	}
	res.Fingerprint = c.fingerprint()
	bodies := make([][]byte, nq)
	for i, q := range c.queries {
		bodies[i] = queryBody(q)
	}
	batchBodies := make([][]byte, len(c.batches))
	for i, b := range c.batches {
		if batchBodies[i], err = json.Marshal(b); err != nil {
			return nil, err
		}
	}
	args := []string{"-schema", c.schemaName}
	if spec.mixed {
		dir, err := os.MkdirTemp(e.scratch, "data-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		args = append(args, "-data-dir", dir)
	}
	srv, _, err := startServer(e.bin, clients+1, args...)
	if err != nil {
		return nil, err
	}
	defer func() { srv.stop() }()
	preload, warm := len(c.batches), nq/10
	if spec.mixed {
		preload = 1
		if len(c.ingestAt) > 1 {
			warm = min(warm, c.ingestAt[1])
		}
	}
	for _, b := range batchBodies[:preload] {
		if _, err := srv.post("/ingest", b); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	replayStream(srv, bodies, warm, clients, nil, nil)
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	// The timed pass.
	var writerBatches [][]byte
	if spec.mixed {
		writerBatches = batchBodies
	}
	rp := replayStream(srv, bodies, nq, clients, writerBatches, c.ingestAt)
	after, err := srv.stats()
	if err != nil {
		return nil, err
	}

	// Outputs: every reply well-formed, the server's own counts consistent
	// with what was sent, and the top candidate checked against gold.
	res.Attempted = nq + len(rp.ingestMS)
	var plain, collective, all []float64
	hits := 0
	for qi, err := range rp.errs {
		if err != nil {
			res.fail(1, "query %d: %v", qi, err)
			continue
		}
		all = append(all, rp.latencyMS[qi])
		if c.queries[qi].Mode == modeCollective {
			collective = append(collective, rp.latencyMS[qi])
		} else {
			plain = append(plain, rp.latencyMS[qi])
		}
		if id, err := strconv.Atoi(rp.top[qi]); err == nil && c.gold[qi] != "" && c.entityOf(id) == c.gold[qi] {
			hits++
		}
	}
	for i, err := range rp.ingestErr {
		if err != nil {
			res.fail(1, "ingest batch %d: %v", i+1, err)
		}
	}
	res.check(after.StoreReferences == c.store.Len(), "server holds %d references, corpus has %d", after.StoreReferences, c.store.Len())
	res.check(after.Snapshot.Version == len(c.batches), "snapshot version %d after %d batches", after.Snapshot.Version, len(c.batches))
	res.check(after.QueryErrors == before.QueryErrors, "server counted %d query errors", after.QueryErrors-before.QueryErrors)
	served := (after.Queries - before.Queries) + (after.CollectiveQueries - before.CollectiveQueries)
	res.check(served >= int64(nq), "server counted %d queries, %d were sent", served, nq)

	allD, plainD, collD, ingestD := summarize(all), summarize(plain), summarize(collective), summarize(rp.ingestMS)
	top1 := 100 * float64(hits) / float64(max(nq, 1))
	qps := float64(nq) / rp.elapsed.Seconds()
	res.detail("query_qps", qps, "1/s", nq, "")
	res.detail("plain_p50_ms", plainD.P50, "ms", plainD.N, "")
	res.detail("plain_tail_ms", plainD.Tail, "ms", plainD.N, fmt.Sprintf("p%d", plainD.TailPct))
	res.check(top1 >= spec.minTop1, "only %.1f%% of top candidates hit gold; below %.0f%% the answers are garbage", top1, spec.minTop1)
	// Without a writer the answers repeat exactly for one seed; with one,
	// which snapshot a query lands on depends on timing.
	higher, lower := "higher", "lower"
	if spec.mixed {
		higher, lower = "", ""
	}
	res.exact("top1_hit_pct", top1, "%", nq, higher)
	if collD.N > 0 {
		res.detail("collective_p50_ms", collD.P50, "ms", collD.N, "")
		res.detail("collective_tail_ms", collD.Tail, "ms", collD.N, fmt.Sprintf("p%d", collD.TailPct))
		degraded := after.CollectiveDegraded - before.CollectiveDegraded
		res.exact("collective_degraded_pct", 100*float64(degraded)/float64(collD.N), "%", collD.N, lower)
	}
	res.detail("server_rss_peak_mb", srv.rssPeakMB(), "MB", 0, "")

	res.set("setup_s", setup.Seconds())
	if spec.mixed {
		refs := c.store.Len() - len(c.batches[0])
		res.detail("ingest_p50_ms", ingestD.P50, "ms", ingestD.N, "")
		res.detail("ingest_refs_per_s", float64(refs)/rp.elapsed.Seconds(), "1/s", refs, "")
		res.setDist("op_p50_ms", ingestD, false)
		res.setDist("op_tail_ms", ingestD, true)
		res.set("ops_per_s", float64(nq+ingestD.N)/rp.elapsed.Seconds())
		if srv, err = recoverAfterKill(e, res, c, srv, bodies, args); err != nil {
			return nil, err
		}
	} else {
		res.setDist("op_p50_ms", allD, false)
		res.setDist("op_tail_ms", allD, true)
		res.set("ops_per_s", qps)
	}
	res.finish(e.manifest.EndToEnd)
	return res, nil
}

// recoverAfterKill sends a fixed probe, kills the server with SIGKILL,
// restarts it on the same data directory and times exec to the first 200.
// Every acknowledged batch must be back and the probe must read the same
// bytes as before the kill.
func recoverAfterKill(e *env, res *result, c *corpus, srv *server, bodies [][]byte, args []string) (*server, error) {
	probe := func(s *server) [][]byte {
		out := make([][]byte, min(e.sz.probeQueries, len(bodies)))
		for i := range out {
			payload, err := s.post("/reconcile", bodies[i])
			if err != nil {
				res.fail(1, "probe %d: %v", i, err)
			}
			out[i] = payload
		}
		return out
	}
	want := probe(srv)
	srv.kill()
	restarted, recovered, err := startServer(e.bin, 2, args...)
	if err != nil {
		return srv, fmt.Errorf("restart after kill: %w", err)
	}
	res.detail("recover_s", recovered.Seconds(), "s", 1, "exec to first 200")
	stats, err := restarted.stats()
	if err != nil {
		return restarted, err
	}
	res.check(stats.StoreReferences == c.store.Len(), "after recovery the server holds %d references, corpus has %d", stats.StoreReferences, c.store.Len())
	res.check(stats.Snapshot.Version == len(c.batches), "after recovery snapshot version %d, %d batches were acknowledged", stats.Snapshot.Version, len(c.batches))
	got := probe(restarted)
	res.Attempted += 2 * len(want)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			res.fail(1, "probe %d reads differently after recovery", i)
		}
	}
	return restarted, nil
}

// runBatch times whole Reconcile calls of the public package, in this
// process, until `seconds` have passed.
func runBatch(e *env, w workloadDef, seed int64, seconds int) (*result, error) {
	reconcile := func(c *corpus) (*refrecon.Result, time.Duration, float64, error) {
		runtime.GC() // every rep starts from the same heap
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r, err := refrecon.New(c.sch, refrecon.DefaultConfig()).Reconcile(c.store)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return r, d, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), err
	}

	// Set-up: generate, and one untimed rep (the first rep of a process
	// runs about 15% slower than the following ones).
	t0 := time.Now()
	c, err := w.generate(e.sz, seed)
	if err != nil {
		return nil, err
	}
	res := newResult(w.Name, seed, false)
	res.Fingerprint = c.fingerprint()
	first, _, _, err := reconcile(c)
	if err != nil {
		return nil, err
	}
	want := partitionHash(first)
	setup := time.Since(t0)

	var repMS, allocMB []float64
	start := time.Now()
	for time.Since(start) < time.Duration(seconds)*time.Second {
		r, d, alloc, err := reconcile(c)
		res.Attempted++
		if err != nil {
			res.fail(1, "rep %d: %v", res.Attempted, err)
			continue
		}
		if len(r.Assignment) != c.store.Len() {
			res.fail(1, "rep %d assigned %d of %d references", res.Attempted, len(r.Assignment), c.store.Len())
		} else if partitionHash(r) != want {
			res.fail(1, "rep %d partitions differ from the first rep's", res.Attempted)
		}
		repMS, allocMB = append(repMS, ms(d)), append(allocMB, alloc)
	}
	elapsed := time.Since(start)

	f1, classes := 0.0, 0
	for _, class := range c.classes() {
		if rep := refrecon.Evaluate(c.store, class, first.Partitions[class]); rep.References > 0 {
			f1 += rep.F1
			classes++
		}
	}
	f1 /= float64(max(classes, 1))
	d := summarize(repMS)
	res.detail("reconcile_s", d.P50/1000, "s", d.N, "median of reps")
	res.detail("reconcile_alloc_mb", medianOf(allocMB), "MB", d.N, "TotalAlloc per Reconcile")
	res.exact("f1_macro", f1, "ratio", classes, "higher")
	res.check(f1 >= 0.5, "mean pairwise F1 %.3f; below 0.5 the partitions are garbage", f1)
	res.set("setup_s", setup.Seconds())
	res.setDist("op_p50_ms", d, false)
	res.setDist("op_tail_ms", d, true)
	res.set("ops_per_s", float64(d.N)/elapsed.Seconds())
	res.finish(e.manifest.EndToEnd)
	return res, nil
}

// partitionHash identifies a reconciliation outcome: the partitions of
// every class, in the order Reconcile returned them.
func partitionHash(r *refrecon.Result) string {
	classes := make([]string, 0, len(r.Partitions))
	for c := range r.Partitions {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var b bytes.Buffer
	for _, c := range classes {
		fmt.Fprintf(&b, "%s:%v;", c, r.Partitions[c])
	}
	return b.String()
}
