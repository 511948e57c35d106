package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// tracedCorpus materialises the corpus, batches and query stream the
// traced run of a workload replays. The serving workloads use their own
// loadgen streams with loadgen's default mix (so read-catalog keeps a 25%
// collective share here and the collective layer is measured on the
// catalog corpus too; its end-to-end stream has none). The batch
// workloads come with a store only, so batches and queries are derived
// from it.
func tracedCorpus(e *env, w workloadDef, seed int64) (*corpus, error) {
	if w.serving != nil {
		spec := w.serving(e.sz)
		queries := e.sz.tracedQueries
		if spec.dataset == "catalog" {
			queries = e.sz.tracedSlowQueries
		}
		return loadgenCorpus(spec.dataset, spec.refs, queries, spec.batchSize, -1, seed)
	}
	c, err := w.generate(e.sz, seed)
	if err != nil {
		return nil, err
	}
	c.deriveTraffic(e.sz.tracedBatch, e.sz.tracedQueries, seed)
	return c, nil
}

// runTraced is the traced run: single client, every request replayed at
// each rung of its ladder, spans kept in memory and written as one JSON
// file when the run ends.
//
//	read:  http -> serve.handler -> serve.query -> recon.match | collective.match
//	write: http.ingest -> serve.ingest.durable -> serve.ingest ->
//	       recon.commit + recon.snapshot + recon.matcher_build; durable.append
//	batch: reconcile -> recon.build + recon.propagate
func runTraced(e *env, w workloadDef, seed int64) (*result, error) {
	res := newResult(w.Name, seed, true)
	tr := newTracer()

	t0 := time.Now()
	c, err := tracedCorpus(e, w, seed)
	if err != nil {
		return nil, err
	}
	res.set("loadgen.build_ms", ms(time.Since(t0)))
	res.Fingerprint = c.fingerprint()

	dir, err := os.MkdirTemp(e.scratch, "traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if err := traceBatch(res, tr, c); err != nil {
		return nil, fmt.Errorf("batch ladder: %w", err)
	}
	srv, svc, err := traceWrites(e, res, tr, c, dir)
	if err != nil {
		return nil, fmt.Errorf("write ladder: %w", err)
	}
	defer srv.stop()
	if err := traceReads(res, tr, c, srv, svc); err != nil {
		return nil, fmt.Errorf("read ladder: %w", err)
	}
	res.set("serve.rss_peak_mb", srv.rssPeakMB())
	traceCorpus(e, res, c)

	path := filepath.Join(e.scratch, fmt.Sprintf("trace-%s-seed%d.json", w.Name, seed))
	if err := tr.write(path, map[string]any{"workload": w.Name, "seed": seed, "host": e.host}); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.detail, "%d spans written to %s\n", len(tr.spans), path)
	res.finish(e.manifest.PerLayer)
	return res, nil
}

// traceBatch is the batch ladder: one whole Reconcile, then the same
// reconciliation as build and propagate halves, a single-worker build
// and a two-shard run.
func traceBatch(res *result, tr *tracer, c *corpus) error {
	// One untimed reconcile first: a fresh process runs its first about
	// 15% slower than the following ones.
	whole, err := reconcileSharded(c, 1)
	if err != nil {
		return err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	total := tr.timed("reconcile", "", 0, func() { whole, err = reconcileSharded(c, 1) })
	runtime.ReadMemStats(&m1)
	res.Attempted++
	if err != nil {
		return err
	}
	res.check(whole.assigned == c.store.Len(), "reconcile assigned %d of %d references", whole.assigned, c.store.Len())
	runtime.GC()
	build, propagate, halves, err := buildThenPropagate(c, tr.under("reconcile"))
	res.Attempted++
	if err != nil {
		return err
	}
	// The determinism contract: the same store reconciles to the same
	// partitions and the same engine counts, whole or in halves.
	res.check(fmt.Sprint(halves.partitions) == fmt.Sprint(whole.partitions), "build+propagate partitions differ from Reconcile's")
	res.check(halves.steps == whole.steps && halves.folds == whole.folds, "build+propagate engine counts differ from Reconcile's")
	runtime.GC()
	serial, err := buildSerial(c)
	res.Attempted++
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	sharded, err := reconcileSharded(c, 2)
	shardTime := time.Since(t0)
	res.Attempted++
	if err != nil {
		return err
	}
	res.check(sharded.assigned == c.store.Len(), "sharded reconcile assigned %d of %d references", sharded.assigned, c.store.Len())

	res.set("trace.reconcile_s", total.Seconds())
	res.set("recon.build_s", build.Seconds())
	res.set("recon.propagate_s", propagate.Seconds())
	res.set("recon.closure_ms", ms(halves.closureTime))
	res.set("recon.candidate_pairs", float64(whole.candidatePairs))
	res.set("recon.graph_nodes", float64(whole.graphNodes))
	res.set("recon.graph_edges", float64(whole.graphEdges))
	res.set("recon.allocs", float64(m1.Mallocs-m0.Mallocs))
	res.set("recon.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	res.set("parallel.build_speedup", serial.Seconds()/build.Seconds())
	res.set("depgraph.steps", float64(whole.steps))
	res.set("depgraph.merges", float64(whole.merges))
	res.set("depgraph.folds", float64(whole.folds))
	res.set("depgraph.rounds", float64(whole.rounds))
	res.set("depgraph.requeues", float64(whole.requeues))
	res.set("depgraph.queue_high_water", float64(whole.queueHighWater))
	res.set("depgraph.delta_hits", float64(whole.deltaHits))
	res.set("depgraph.agg_rebuilds", float64(whole.aggRebuilds))
	res.set("shard.reconcile_s", shardTime.Seconds())
	res.set("shard.boundary_pairs", float64(sharded.boundaryLinks))
	res.set("shard.fold_replays", float64(sharded.shardFoldReplays))
	res.detail("ladder.batch_coverage", (build+propagate).Seconds()/total.Seconds(), "ratio", 1, "recon.build + recon.propagate over reconcile")
	res.detail("ladder.batch_build_share", build.Seconds()/total.Seconds(), "ratio", 1, "recon.build over reconcile")
	return nil
}

// traceWrites is the write ladder: every batch is ingested into a durable
// reconserve child over HTTP, into an in-process durable service, into an
// in-process memory-only service and through a bare session. It returns
// the loaded child and memory-only service for the read ladder.
func traceWrites(e *env, res *result, tr *tracer, c *corpus, dir string) (*server, *service, error) {
	n := len(c.batches)
	srv, _, err := startServer(e.bin, 2, "-schema", c.schemaName, "-data-dir", filepath.Join(dir, "child"))
	if err != nil {
		return nil, nil, err
	}
	ok := false
	defer func() {
		if !ok {
			srv.stop()
		}
	}()
	lad := newLadder("http.ingest", "serve.ingest.durable", "serve.ingest", "recon.commit+snapshot+matcher_build")
	http := make([]time.Duration, n)
	for i, b := range c.batches {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, nil, err
		}
		http[i] = tr.timed("http.ingest", "", i, func() { _, err = srv.post("/ingest", body) })
		if err != nil {
			return nil, nil, err
		}
	}

	liveDir, crashDir := filepath.Join(dir, "live"), filepath.Join(dir, "crash")
	durableSvc, err := newService(c, liveDir)
	if err != nil {
		return nil, nil, err
	}
	durableMS := make([]time.Duration, n)
	for i, b := range c.batches {
		durableMS[i] = tr.timed("serve.ingest.durable", "http.ingest", i, func() { err = durableSvc.ingest(b) })
		if err != nil {
			return nil, nil, err
		}
	}
	// Before the clean close writes its final checkpoint, keep the log as
	// a kill would leave it.
	if err := crashImage(liveDir, crashDir); err != nil {
		return nil, nil, err
	}
	snapshot, err := durableSvc.encodedSnapshot()
	if err != nil {
		return nil, nil, err
	}
	if err := durableSvc.close(); err != nil {
		return nil, nil, err
	}

	svc, err := newService(c, "")
	if err != nil {
		return nil, nil, err
	}
	plainMS := make([]time.Duration, n)
	for i, b := range c.batches {
		plainMS[i] = tr.timed("serve.ingest", "serve.ingest.durable", i, func() { err = svc.ingest(b) })
		if err != nil {
			return nil, nil, err
		}
	}
	stats := svc.stats()
	res.check(stats.StoreReferences == c.store.Len() && stats.Snapshot.Version == n,
		"in-process service holds %d references at version %d, want %d at %d", stats.StoreReferences, stats.Snapshot.Version, c.store.Len(), n)

	sess, err := bareSession(c, tr.under("serve.ingest"))
	if err != nil {
		return nil, nil, err
	}
	dur, err := durableProbe(c, filepath.Join(dir, "log"), snapshot, tr.under("serve.ingest.durable"))
	if err != nil {
		return nil, nil, err
	}
	for i := range c.batches {
		lad.add(http[i], durableMS[i], plainMS[i], sess.commit[i]+sess.snapshot[i]+sess.matcherBuild[i])
	}
	res.Attempted += 5 * n
	self := lad.selfTimes()

	underIngest, err := queriesUnderIngest(c)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted += n

	// Recovery, in process: a clean shutdown restores from its final
	// checkpoint; the crash image has only the log and replays it all.
	for _, probe := range []struct{ metric, dir, mode string }{
		{"serve.recover_checkpoint_ms", liveDir, "checkpoint"},
		{"serve.recover_replay_ms", crashDir, "replay"},
	} {
		t0 := time.Now()
		recovered, err := newService(c, probe.dir)
		took := time.Since(t0)
		res.Attempted++
		if err != nil {
			return nil, nil, err
		}
		got := recovered.stats()
		res.check(recovered.recoveryMode() == probe.mode, "%s: recovery mode %q, want %q", probe.metric, recovered.recoveryMode(), probe.mode)
		res.check(got.StoreReferences == c.store.Len(), "%s: recovered %d of %d references", probe.metric, got.StoreReferences, c.store.Len())
		if err := recovered.close(); err != nil {
			return nil, nil, err
		}
		res.set(probe.metric, ms(took))
	}

	plainD := summarize(msOf(plainMS))
	res.setDist("trace.http_ingest_p50_ms", summarize(msOf(http)), false)
	res.set("wire.ingest_p50_ms", self[0])
	res.set("durable.overhead_p50_ms", self[1])
	res.set("serve.ingest_self_p50_ms", self[2])
	res.setDist("serve.ingest_p50_ms", plainD, false)
	res.set("serve.ingest_max_ms", plainD.Max)
	res.setDist("serve.plain_tail_under_ingest_ms", underIngest, true)
	res.setDist("recon.commit_p50_ms", summarize(msOf(sess.commit)), false)
	res.set("recon.commit_build_ms", ms(sess.buildTotal))
	res.set("recon.commit_propagate_ms", ms(sess.propagateTotal))
	res.setDist("recon.snapshot_p50_ms", summarize(msOf(sess.snapshot)), false)
	res.setDist("recon.matcher_build_p50_ms", summarize(msOf(sess.matcherBuild)), false)
	res.set("recon.encode_snapshot_ms", ms(sess.encode))
	res.set("recon.decode_snapshot_ms", ms(sess.decode))
	res.setDist("durable.append_p50_ms", summarize(msOf(dur.appendEach)), false)
	res.set("durable.log_bytes_per_ref", float64(dur.logBytes)/float64(c.store.Len()))
	res.set("durable.checkpoint_ms", ms(dur.checkpoint))
	res.set("durable.checkpoint_bytes", float64(dur.checkpointBytes))
	res.detail("ladder.write_coverage", lad.coverage(), "ratio", n, "self times over http.ingest")
	ok = true
	return srv, svc, nil
}

// queriesUnderIngest loads a fresh in-process service batch by batch
// while one goroutine sends it the stream's plain queries back to back,
// and returns those queries' latencies.
func queriesUnderIngest(c *corpus) (dist, error) {
	svc, err := newService(c, "")
	if err != nil {
		return dist{}, err
	}
	var plain []reconQuery
	for _, q := range c.queries {
		if q.Mode != modeCollective {
			plain = append(plain, q)
		}
	}
	if len(plain) == 0 {
		return dist{}, fmt.Errorf("the traced stream has no plain query")
	}
	stop, done := make(chan struct{}), make(chan []float64)
	go func() {
		var lat []float64
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- lat
				return
			default:
			}
			t0 := time.Now()
			svc.query(plain[i%len(plain)])
			lat = append(lat, ms(time.Since(t0)))
		}
	}()
	for _, b := range c.batches {
		if err = svc.ingest(b); err != nil {
			break
		}
	}
	close(stop)
	return summarize(<-done), err
}

// traceReads is the read ladder over the whole traced stream. Each rung
// is its own pass over the stream, in stream order, after one untimed
// warm pass: replaying one request down the rungs back to back would let
// the lower rungs read the similarity cache the rung above just filled,
// and charge the cold comparisons to whichever rung ran first. An extra
// pass of the HTTP rung with span recording off gives the tracing
// overhead.
func traceReads(res *result, tr *tracer, c *corpus, srv *server, svc *service) error {
	n := len(c.queries)
	bodies := make([][]byte, n)
	for i, q := range c.queries {
		bodies[i] = queryBody(q)
	}
	type pass struct {
		d    []time.Duration
		tops []string
		errs []error
	}
	run := func(t *tracer, name, parent string, call func(i int) (string, error)) pass {
		p := pass{make([]time.Duration, n), make([]string, n), make([]error, n)}
		for i := range c.queries {
			rung := name
			if name == "recon.match" && c.queries[i].Mode == modeCollective {
				rung = "collective.match"
			}
			p.d[i] = t.timed(rung, parent, i, func() { p.tops[i], p.errs[i] = call(i) })
		}
		return p
	}
	overHTTP := func(i int) (string, error) {
		payload, err := srv.post("/reconcile", bodies[i])
		if err != nil {
			return "", err
		}
		return topOfResponse(payload)
	}
	stats, typed := make([]matchStats, n), make([]bool, n)
	run(nil, "", "", overHTTP) // warm the child
	run(nil, "", "", func(i int) (string, error) { return svc.handle(bodies[i]) })
	untraced := run(nil, "", "", overHTTP)
	passes := []pass{
		run(tr, "http", "", overHTTP),
		run(tr, "serve.handler", "http", func(i int) (string, error) { return svc.handle(bodies[i]) }),
		run(tr, "serve.query", "serve.handler", func(i int) (string, error) { return svc.query(c.queries[i]) }),
		run(tr, "recon.match", "serve.query", func(i int) (top string, err error) {
			top, stats[i], typed[i], err = svc.match(c.queries[i])
			return top, err
		}),
	}

	plain := newLadder("http", "serve.handler", "serve.query", "recon.match")
	coll := newLadder("http", "serve.handler", "serve.query", "collective.match")
	var refs, entities, expand, resolve, pairNodes []float64
	degraded := map[string]int{}
	for i := range c.queries {
		rungs := 3
		if typed[i] {
			rungs = 4
		}
		res.Attempted += rungs
		for r, p := range passes[:rungs] {
			if p.errs[i] != nil {
				res.fail(1, "query %d at rung %d: %v", i, r, p.errs[i])
			} else if p.tops[i] != passes[0].tops[i] {
				res.fail(1, "query %d: rung %d answers %q, the HTTP rung %q", i, r, p.tops[i], passes[0].tops[i])
			}
		}
		if !typed[i] {
			continue // serve fans a typeless query out over every class; there is no single matcher call below it
		}
		st := stats[i]
		if st.collective {
			coll.add(passes[0].d[i], passes[1].d[i], passes[2].d[i], passes[3].d[i])
			expand, resolve, pairNodes = append(expand, st.expandMS), append(resolve, st.resolveMS), append(pairNodes, float64(st.pairNodes))
			if st.degraded != "" {
				degraded[st.degraded]++
			}
		} else {
			plain.add(passes[0].d[i], passes[1].d[i], passes[2].d[i], passes[3].d[i])
			refs, entities = append(refs, float64(st.candidateRefs)), append(entities, float64(st.candidateEntities))
		}
	}
	if plain.n() == 0 || coll.n() == 0 {
		return fmt.Errorf("the traced stream has %d typed plain and %d typed collective queries; both ladders need some", plain.n(), coll.n())
	}

	plainSelf, collSelf := plain.selfTimes(), coll.selfTimes()
	res.setDist("trace.http_plain_p50_ms", summarize(plain.rung("http")), false)
	res.setDist("trace.http_collective_p50_ms", summarize(coll.rung("http")), false)
	res.set("wire.plain_p50_ms", plainSelf[0])
	res.set("wire.collective_p50_ms", collSelf[0])
	res.set("serve.codec_p50_ms", plainSelf[1])
	res.set("serve.bind_p50_ms", plainSelf[2])
	queryPlain, queryColl := summarize(plain.rung("serve.query")), summarize(coll.rung("serve.query"))
	res.setDist("serve.query_plain_p50_ms", queryPlain, false)
	res.setDist("serve.query_plain_tail_ms", queryPlain, true)
	res.setDist("serve.query_collective_p50_ms", queryColl, false)
	res.setDist("serve.query_collective_tail_ms", queryColl, true)
	match, collMatch := summarize(plain.rung("recon.match")), summarize(coll.rung("collective.match"))
	res.setDist("recon.match_p50_ms", match, false)
	res.setDist("recon.match_tail_ms", match, true)
	res.set("recon.candidate_refs_mean", meanOf(refs))
	res.set("recon.candidate_entities_mean", meanOf(entities))
	res.setDist("collective.match_p50_ms", collMatch, false)
	res.setDist("collective.match_tail_ms", collMatch, true)
	res.set("collective.expand_ms_mean", meanOf(expand))
	res.set("collective.resolve_ms_mean", meanOf(resolve))
	res.set("collective.pair_nodes_mean", meanOf(pairNodes))
	res.set("collective.degraded_nodes", float64(degraded["nodes"]))
	res.set("collective.degraded_steps", float64(degraded["steps"]))
	res.set("collective.degraded_time", float64(degraded["time"]))
	on, off := medianOf(msOf(passes[0].d)), medianOf(msOf(untraced.d))
	res.set("trace.overhead_pct", 100*(on-off)/off)
	top := medianOf(plain.rung("http"))
	res.detail("ladder.read_plain_coverage", plain.coverage(), "ratio", plain.n(), "self times over http")
	res.detail("ladder.read_collective_coverage", coll.coverage(), "ratio", coll.n(), "self times over http")
	res.detail("ladder.read_plain_wire_codec_share", (plainSelf[0]+plainSelf[1])/top, "ratio", plain.n(), "wire + serve.codec over http")
	res.detail("ladder.read_plain_match_share", plainSelf[3]/top, "ratio", plain.n(), "recon.match over http")
	return nil
}

// traceCorpus measures the layers that need only the corpus: the
// blocking index and the value comparators, on the blocked pairs'
// values.
func traceCorpus(e *env, res *result, c *corpus) {
	b := blockingProbe(c, e.sz.lookups, e.sz.valuePairs)
	cmp := compareProbe(c, b.valuePairs)
	res.Attempted += 2
	perPair := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(max(cmp.n, 1)) }
	lookups := make([]float64, len(b.candidatesEach))
	for i, d := range b.candidatesEach {
		lookups[i] = float64(d.Nanoseconds()) / 1e3
	}
	res.check(cmp.n > 0, "the corpus has no blocked value pairs")
	res.set("blocking.index_build_ms", ms(b.indexBuild))
	res.set("blocking.pairs_ms", ms(b.pairs))
	res.setDist("blocking.candidates_p50_us", summarize(lookups), false)
	res.set("blocking.keys", float64(b.keys))
	res.set("blocking.max_bucket", float64(b.maxBucket))
	res.set("blocking.pairs", float64(b.nPairs))
	res.set("simfn.compare_cold_ns", perPair(cmp.cold))
	res.set("simfn.compare_warm_ns", perPair(cmp.warm))
	res.set("simfn.cache_hit_ratio", cmp.hitRatio)
	res.set("strsim.jarowinkler_ns", perPair(cmp.jaroWinkler))
	res.set("strsim.mongeelkan_ns", perPair(cmp.mongeElkan))
	res.set("strsim.cosine_ns", perPair(cmp.cosine))
}
