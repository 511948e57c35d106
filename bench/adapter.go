package main

// adapter.go is the only file of the benchmark that imports
// refrecon/internal/...; the import list below is the API the benchmark
// freezes for later PRs (bench/README.md lists the functions used). Every
// other file reaches the layers through the aliases and functions here,
// so a later change to an internal signature is repaired in one place.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"refrecon/internal/blocking"
	"refrecon/internal/datagen/cora"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/durable"
	"refrecon/internal/loadgen"
	"refrecon/internal/obs"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/serve"
	"refrecon/internal/simfn"
	"refrecon/internal/strsim"
)

type (
	ingestRef   = serve.IngestRef
	reconQuery  = serve.ReconQuery
	refStore    = reference.Store
	serverStats = serve.MetricsSnapshot
)

const modeCollective = serve.ModeCollective

// corpus is one workload's materialised inputs: the labelled references,
// the ingest batches that load them into a service, and the query stream
// with each query's gold entity label.
type corpus struct {
	schemaName string // the -schema flag of cmd/reconserve
	sch        *schema.Schema
	store      *refStore
	batches    [][]ingestRef
	ingestAt   []int // queries completed before batch i is issued
	queries    []reconQuery
	gold       []string
}

// loadgenCorpus materialises a loadgen workload. collective < 0 keeps
// loadgen's default query mix.
func loadgenCorpus(dataset string, refs, queries, batchSize int, collective float64, seed int64) (*corpus, error) {
	cfg := loadgen.Defaults(dataset, refs, queries, seed)
	cfg.BatchSize = batchSize
	if collective >= 0 {
		cfg.Collective = collective
	}
	w, err := loadgen.Build(cfg)
	if err != nil {
		return nil, err
	}
	c := &corpus{
		schemaName: map[string]string{"biblio": "pim", "catalog": "catalog"}[dataset],
		sch:        w.Schema,
		store:      reference.NewStore(),
		batches:    w.Batches,
		ingestAt:   w.IngestAt,
		queries:    w.Queries,
		gold:       w.Gold,
	}
	for _, b := range w.Batches {
		for _, ir := range b {
			c.store.Add(toReference(ir))
		}
	}
	return c, nil
}

// pimCorpus generates the PIM dataset A profile; seed 1 is the profile's
// own generator seed.
func pimCorpus(scale float64, seed int64) (*corpus, error) {
	p := pim.DatasetA(scale)
	p.Seed += seed - 1
	g, err := pim.Generate(p)
	if err != nil {
		return nil, err
	}
	return &corpus{schemaName: "pim", sch: schema.PIM(), store: g.Store}, nil
}

// coraCorpus generates the Cora-like citation corpus. The generator's
// world is 56 papers with Zipf-skewed citation counts, so two generator
// seeds differ by ±20% in reconcile time — wider than any bound the
// benchmark may set. The world is therefore fixed and the seed permutes
// the reference order (and with it the engine's merge order); size and
// candidate pairs stay the same for every seed.
func coraCorpus(scale float64, seed int64) (*corpus, error) {
	g, err := cora.Generate(cora.Default(scale))
	if err != nil {
		return nil, err
	}
	return &corpus{schemaName: "pim", sch: schema.PIM(), store: permuteStore(g.Store, seed)}, nil
}

// permuteStore returns a copy of the store with reference ids shuffled
// and association targets remapped.
func permuteStore(st *refStore, seed int64) *refStore {
	perm := rand.New(rand.NewSource(seed)).Perm(st.Len()) // new id -> old id
	newID := make([]reference.ID, len(perm))
	for nw, old := range perm {
		newID[old] = reference.ID(nw)
	}
	out := reference.NewStore()
	for _, old := range perm {
		o := st.Get(reference.ID(old))
		r := reference.New(o.Class)
		r.Source, r.Entity = o.Source, o.Entity
		for _, a := range o.AtomicAttrs() {
			for _, v := range o.Atomic(a) {
				r.AddAtomic(a, v)
			}
		}
		for _, a := range o.AssocAttrs() {
			for _, t := range o.Assoc(a) {
				r.AddAssoc(a, newID[t])
			}
		}
		out.Add(r)
	}
	return out
}

func toReference(ir ingestRef) *reference.Reference {
	r := reference.New(ir.Class)
	r.Source, r.Entity = ir.Source, ir.Entity
	for a, vs := range ir.Atomic {
		for _, v := range vs {
			r.AddAtomic(a, v)
		}
	}
	for a, ts := range ir.Assoc {
		for _, t := range ts {
			r.AddAssoc(a, t)
		}
	}
	return r
}

func toIngestRef(r *reference.Reference) ingestRef {
	ir := ingestRef{Class: r.Class, Source: r.Source, Entity: r.Entity}
	for _, a := range r.AtomicAttrs() {
		if ir.Atomic == nil {
			ir.Atomic = map[string][]string{}
		}
		ir.Atomic[a] = r.Atomic(a)
	}
	for _, a := range r.AssocAttrs() {
		if ir.Assoc == nil {
			ir.Assoc = map[string][]reference.ID{}
		}
		ir.Assoc[a] = r.Assoc(a)
	}
	return ir
}

// deriveTraffic gives a generator corpus (which has only a store) ingest
// batches and a query stream, so the traced run can measure the serving
// layers on it too. Batches never strand an association link past their
// end; queries follow loadgen's default mix (25% collective, half with
// properties, 10% typeless).
func (c *corpus) deriveTraffic(batchSize, queries int, seed int64) {
	refs := c.store.All()
	for start := 0; start < len(refs); {
		end := min(start+batchSize, len(refs))
		for i := start; i < end; i++ {
			for _, a := range refs[i].AssocAttrs() {
				for _, t := range refs[i].Assoc(a) {
					end = max(end, int(t)+1)
				}
			}
		}
		batch := make([]ingestRef, 0, end-start)
		for _, r := range refs[start:end] {
			batch = append(batch, toIngestRef(r))
		}
		c.batches = append(c.batches, batch)
		start = end
	}
	c.ingestAt = make([]int, len(c.batches))
	for i := range c.batches {
		c.ingestAt[i] = i * queries / len(c.batches)
	}
	rng := rand.New(rand.NewSource(seed))
	for len(c.queries) < queries {
		r := refs[rng.Intn(len(refs))]
		cls, _ := c.sch.Class(r.Class)
		name := nameAttr(cls)
		q := reconQuery{Query: r.FirstAtomic(name), Type: r.Class}
		if q.Query == "" {
			continue
		}
		if rng.Float64() < 0.1 {
			q.Type = ""
		}
		if rng.Float64() < 0.25 {
			q.Mode = modeCollective
		}
		if rng.Float64() < 0.5 {
			for _, a := range r.AtomicAttrs() {
				if a == name {
					continue
				}
				for _, v := range r.Atomic(a) {
					q.Properties = append(q.Properties, property(a, v))
				}
			}
			if q.Mode == modeCollective {
				for _, a := range r.AssocAttrs() {
					for _, t := range r.Assoc(a) {
						q.Properties = append(q.Properties, property(a, strconv.Itoa(int(t))))
					}
				}
			}
		}
		c.queries = append(c.queries, q)
		c.gold = append(c.gold, r.Entity)
	}
}

func property(pid, v string) serve.QueryProperty {
	raw, _ := json.Marshal(v) // a string always marshals
	return serve.QueryProperty{PID: pid, V: raw}
}

// nameAttr mirrors the server's free-text binding: name, then title, then
// the first atomic attribute.
func nameAttr(c *schema.Class) string {
	for _, a := range []string{schema.AttrName, schema.AttrTitle} {
		if _, ok := c.Attr(a); ok {
			return a
		}
	}
	if aa := c.AtomicAttrs(); len(aa) > 0 {
		return aa[0].Name
	}
	return ""
}

// entityOf returns the gold label of a reference id, "" when out of range.
func (c *corpus) entityOf(id int) string {
	if id < 0 || id >= c.store.Len() {
		return ""
	}
	return c.store.Get(reference.ID(id)).Entity
}

// classes lists the schema's class names.
func (c *corpus) classes() []string {
	var out []string
	for _, cl := range c.sch.Classes() {
		out = append(out, cl.Name)
	}
	return out
}

// ---- recon: batch phases ----

// engineCounts are the deterministic counts of one reconciliation.
type engineCounts struct {
	candidatePairs, graphNodes, graphEdges                  int
	steps, merges, folds, rounds, requeues, queueHighWater  int
	deltaHits, aggRebuilds, boundaryLinks, shardFoldReplays int
	closureTime                                             time.Duration
	partitions                                              map[string][][]reference.ID
	assigned                                                int
}

func countsOf(res *recon.Result) engineCounts {
	s := res.Stats
	return engineCounts{
		candidatePairs: s.CandidatePairs, graphNodes: s.GraphNodes, graphEdges: s.GraphEdges,
		steps: s.Engine.Steps, merges: s.Engine.Merges, folds: s.Engine.Folds, rounds: s.Engine.Rounds,
		requeues: s.Engine.Reactivate, queueHighWater: s.Engine.QueueHighWater,
		deltaHits: s.Engine.DeltaHits, aggRebuilds: s.Engine.AggRebuilds,
		boundaryLinks: s.Shard.BoundaryLinks, shardFoldReplays: s.Shard.FoldReplays,
		closureTime: s.ClosureTime,
		partitions:  res.Partitions, assigned: len(res.Assignment),
	}
}

// reconcileSharded runs one Reconcile with the default configuration at
// the given shard count (1 is the monolithic default).
func reconcileSharded(c *corpus, shards int) (engineCounts, error) {
	cfg := recon.DefaultConfig()
	cfg.Shards = shards
	res, err := recon.New(c.sch, cfg).Reconcile(c.store)
	if err != nil {
		return engineCounts{}, err
	}
	return countsOf(res), nil
}

// buildThenPropagate runs a reconciliation as its two halves, each under
// the timer: graph construction, then the fixed point with the closure.
func buildThenPropagate(c *corpus, timed timedFunc) (build, propagate time.Duration, counts engineCounts, err error) {
	var prep *recon.Prepared
	build = timed("recon.build", 0, func() { prep, err = recon.New(c.sch, recon.DefaultConfig()).BuildRetained(c.store) })
	if err != nil {
		return 0, 0, engineCounts{}, err
	}
	var res *recon.Result
	propagate = timed("recon.propagate", 0, func() { res, err = prep.Propagate() })
	if err != nil {
		return 0, 0, engineCounts{}, err
	}
	return build, propagate, countsOf(res), nil
}

// buildSerial times graph construction alone with a single scoring
// worker.
func buildSerial(c *corpus) (time.Duration, error) {
	cfg := recon.DefaultConfig()
	cfg.Workers = 1
	t0 := time.Now()
	_, err := recon.New(c.sch, cfg).BuildRetained(c.store)
	return time.Since(t0), err
}

// ---- recon: incremental session, snapshot, matcher ----

// sessionCosts are the per-batch costs of the write path below serve.
type sessionCosts struct {
	commit, snapshot, matcherBuild []time.Duration
	buildTotal, propagateTotal     time.Duration
	encode, decode                 time.Duration
}

// bareSession replays the batches through a recon.Session with nothing
// of serve around it, exporting a snapshot and building both matchers
// after every commit as serve.publish does.
func bareSession(c *corpus, timed timedFunc) (sessionCosts, error) {
	var out sessionCosts
	cfg := recon.DefaultConfig()
	store := reference.NewStore()
	sess := recon.New(c.sch, cfg).NewSession(store)
	var snap *recon.Snapshot
	for i, b := range c.batches {
		for _, ir := range b {
			store.Add(toReference(ir))
		}
		var res *recon.Result
		var err error
		out.commit = append(out.commit, timed("recon.commit", i, func() { res, err = sess.Reconcile() }))
		if err != nil {
			return out, err
		}
		out.buildTotal, out.propagateTotal = res.Stats.BuildTime, res.Stats.PropagateTime
		out.snapshot = append(out.snapshot, timed("recon.snapshot", i, func() { snap, err = sess.Snapshot() }))
		if err != nil {
			return out, err
		}
		out.matcherBuild = append(out.matcherBuild, timed("recon.matcher_build", i, func() {
			m := recon.NewMatcher(c.sch, cfg, snap)
			recon.NewCollectiveMatcher(m, serve.Config{}.Collective) // the collective defaults, as reconserve runs
		}))
	}
	t0 := time.Now()
	blob, err := recon.EncodeSnapshot(snap)
	out.encode = time.Since(t0)
	if err != nil {
		return out, err
	}
	t0 = time.Now()
	_, err = recon.DecodeSnapshot(blob)
	out.decode = time.Since(t0)
	return out, err
}

// ---- serve: the in-process service ----

func serviceConfig(c *corpus, dataDir string) serve.Config {
	return serve.Config{Schema: c.sch, Recon: recon.DefaultConfig(), Name: "bench", DataDir: dataDir}
}

// service is an in-process serve.Service over a corpus.
type service struct {
	c   *corpus
	svc *serve.Service
	h   http.Handler
}

func newService(c *corpus, dataDir string) (*service, error) {
	svc, err := serve.New(serviceConfig(c, dataDir))
	if err != nil {
		return nil, err
	}
	return &service{c: c, svc: svc, h: svc.Handler()}, nil
}

func (s *service) ingest(batch []ingestRef) error {
	_, err := s.svc.Ingest(batch)
	return err
}

func (s *service) close() error { return s.svc.Close() }

func (s *service) stats() serverStats { return s.svc.Metrics() }

// recoveryMode reports how a service over a data directory started.
func (s *service) recoveryMode() string {
	if d := s.svc.Metrics().Durability; d != nil {
		return d.Recovery
	}
	return ""
}

// handle serves one reconcile body through the service's handler on a
// recorder: everything the HTTP path does except the socket.
func (s *service) handle(body []byte) (top string, err error) {
	req := httptest.NewRequest(http.MethodPost, "/reconcile", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("handler status %d", rec.Code)
	}
	return topOfResponse(rec.Body.Bytes())
}

// query calls Service.Query: binding, matching, ranking, no codec.
func (s *service) query(q reconQuery) (top string, err error) {
	cands, err := s.svc.Query(q)
	if err != nil || len(cands) == 0 {
		return "", err
	}
	return strconv.Itoa(int(cands[0].Entity.Canonical)), nil
}

// matchStats is the work one matcher call reports.
type matchStats struct {
	candidateRefs, candidateEntities int
	collective                       bool
	expandMS, resolveMS              float64
	pairNodes                        int
	degraded                         string // "", "nodes", "steps" or "time"
}

// match binds a typed query the way serve does and calls the published
// view's Matcher (or CollectiveMatcher) directly. ok is false for
// typeless queries, which serve fans out over every class.
func (s *service) match(q reconQuery) (top string, st matchStats, ok bool, err error) {
	if q.Type == "" {
		return "", st, false, nil
	}
	cls, found := s.c.sch.Class(q.Type)
	if !found {
		return "", st, false, nil
	}
	v := s.svc.View()
	rq := recon.Query{Class: q.Type, Atomic: map[string][]string{}, Limit: 10}
	for _, p := range q.Properties {
		a, known := cls.Attr(p.PID)
		if !known {
			continue
		}
		var val string
		if json.Unmarshal(p.V, &val) != nil || val == "" {
			continue
		}
		if a.Kind == schema.Atomic {
			rq.Atomic[p.PID] = append(rq.Atomic[p.PID], val)
		} else if n, err := strconv.Atoi(val); err == nil && q.Mode == modeCollective {
			if sr, ok := v.Snapshot.Ref(reference.ID(n)); ok && sr.Class == a.Target {
				if rq.Assoc == nil {
					rq.Assoc = map[string][]reference.ID{}
				}
				rq.Assoc[p.PID] = append(rq.Assoc[p.PID], reference.ID(n))
			}
		}
	}
	if attr := nameAttr(cls); attr != "" && q.Query != "" {
		rq.Atomic[attr] = append(rq.Atomic[attr], q.Query)
	}
	var cands []recon.Candidate
	if q.Mode == modeCollective {
		var cs recon.CollectiveStats
		cands, cs, err = v.Collective.MatchConfig(rq, v.Collective.Config())
		st = matchStats{
			candidateRefs: cs.CandidateRefs, candidateEntities: cs.CandidateEntities, collective: true,
			expandMS: cs.Expansion.ExpandMS, resolveMS: cs.Expansion.ResolveMS, pairNodes: cs.Expansion.PairNodes,
		}
		if cs.Expansion.Degraded {
			st.degraded = cs.Expansion.Reason
		}
	} else {
		var ms recon.MatchStats
		cands, ms, err = v.Matcher.Match(rq)
		st = matchStats{candidateRefs: ms.CandidateRefs, candidateEntities: ms.CandidateEntities}
	}
	if err != nil || len(cands) == 0 {
		return "", st, true, err
	}
	return strconv.Itoa(int(cands[0].Entity.Canonical)), st, true, nil
}

// ---- durable ----

// durableCosts times the log and checkpoint writers on the corpus's own
// batch payloads, in a scratch directory that is removed afterwards.
type durableCosts struct {
	appendEach      []time.Duration
	logBytes        int64
	checkpoint      time.Duration
	checkpointBytes int64
}

func durableProbe(c *corpus, dir string, snapshot []byte, timed timedFunc) (durableCosts, error) {
	var out durableCosts
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	lg, _, err := durable.OpenLog(dir)
	if err != nil {
		return out, err
	}
	var recs []durable.Record
	for i, b := range c.batches {
		payload, err := json.Marshal(b)
		if err != nil {
			lg.Close()
			return out, err
		}
		rec := durable.Record{Kind: durable.KindBatch, Ordinal: uint64(i + 1), Payload: payload}
		out.appendEach = append(out.appendEach, timed("durable.append", i, func() { err = lg.Append(rec) }))
		if err != nil {
			lg.Close()
			return out, err
		}
		recs = append(recs, rec)
	}
	out.logBytes = lg.Bytes()
	if err := lg.Close(); err != nil {
		return out, err
	}
	t0 := time.Now()
	out.checkpointBytes, err = durable.WriteCheckpoint(dir, &durable.Checkpoint{
		Ordinal: uint64(len(recs)), Records: recs, Snapshot: snapshot,
	})
	out.checkpoint = time.Since(t0)
	return out, err
}

// encodedSnapshot returns the published snapshot of a service in its
// checkpoint wire form.
func (s *service) encodedSnapshot() ([]byte, error) {
	return recon.EncodeSnapshot(s.svc.View().Snapshot)
}

// crashImage copies a live data directory as a SIGKILL would leave it:
// every acknowledged batch is already fsynced, so the files as they are
// now are the crash state. Checkpoints are left out so that opening the
// copy replays the whole log.
func crashImage(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ---- blocking, simfn, strsim: corpus probes ----

type blockingCosts struct {
	indexBuild, pairs       time.Duration
	candidatesEach          []time.Duration
	keys, maxBucket, nPairs int
	valuePairs              []valuePair
}

// valuePair is one attribute-value comparison of a blocked reference
// pair, with the evidence type production code scores it under.
type valuePair struct{ evidence, a, b string }

// evidenceOf maps a class attribute to its simfn evidence type, as the
// recon comparison tables do.
func evidenceOf(class, attr string) string {
	switch class + "." + attr {
	case schema.ClassPerson + "." + schema.AttrName:
		return simfn.EvName
	case schema.ClassPerson + "." + schema.AttrEmail:
		return simfn.EvEmail
	case schema.ClassArticle + "." + schema.AttrTitle:
		return simfn.EvTitle
	case schema.ClassArticle + "." + schema.AttrYear, schema.ClassVenue + "." + schema.AttrYear:
		return simfn.EvYear
	case schema.ClassArticle + "." + schema.AttrPages:
		return simfn.EvPages
	case schema.ClassVenue + "." + schema.AttrName:
		return simfn.EvVenueName
	case schema.ClassVenue + "." + schema.AttrLocation:
		return simfn.EvLocation
	}
	return "g:" + attr
}

// blockingProbe builds the blocking index the reconciler builds, then
// enumerates its pairs and looks every lookups-th reference up as a
// query would. It keeps the first maxValuePairs same-attribute value
// pairs of the blocked pairs for the comparator probes.
func blockingProbe(c *corpus, lookups, maxValuePairs int) blockingCosts {
	var out blockingCosts
	refs := c.store.All()
	t0 := time.Now()
	idx := blocking.New(recon.DefaultConfig().BucketCap)
	keysOf := make([][]string, len(refs))
	for i, r := range refs {
		recon.BlockingKeys(r, func(k string) {
			idx.Add(r.Class+"|"+k, reference.ID(i))
			keysOf[i] = append(keysOf[i], r.Class+"|"+k)
		})
	}
	out.indexBuild = time.Since(t0)
	t0 = time.Now()
	idx.Pairs(func(a, b reference.ID) {
		out.nPairs++
		if len(out.valuePairs) >= maxValuePairs {
			return
		}
		ra, rb := refs[a], refs[b]
		for _, attr := range ra.AtomicAttrs() {
			for _, va := range ra.Atomic(attr) {
				for _, vb := range rb.Atomic(attr) {
					out.valuePairs = append(out.valuePairs, valuePair{evidenceOf(ra.Class, attr), va, vb})
				}
			}
		}
	})
	out.pairs = time.Since(t0)
	for i := 0; i < len(refs); i += max(1, len(refs)/lookups) {
		t0 = time.Now()
		idx.Candidates(keysOf[i])
		out.candidatesEach = append(out.candidatesEach, time.Since(t0))
	}
	out.keys, out.maxBucket = idx.Keys(), idx.MaxBucket()
	return out
}

type compareCosts struct {
	cold, warm                      time.Duration // whole passes over the pairs
	hitRatio                        float64       // cache hits / calls during the cold pass
	jaroWinkler, mongeElkan, cosine time.Duration // whole passes
	n                               int
}

// compareProbe scores the value pairs through a fresh simfn.Library
// twice (cold, then warm), and through the three strsim comparators
// production code calls.
func compareProbe(c *corpus, pairs []valuePair) compareCosts {
	out := compareCosts{n: len(pairs)}
	lib := simfn.NewLibrary()
	corp := strsim.NewCorpus()
	for _, r := range c.store.All() {
		for _, attr := range r.AtomicAttrs() {
			for _, v := range r.Atomic(attr) {
				switch evidenceOf(r.Class, attr) {
				case simfn.EvName:
					lib.AddPersonName(v)
				case simfn.EvTitle:
					lib.Titles.Add(v)
				case simfn.EvVenueName:
					lib.Venues.Add(v)
				}
				corp.Add(v)
			}
		}
	}
	ctr := obs.NewCounters()
	lib.SetCounters(ctr)
	var sink float64
	t0 := time.Now()
	for _, p := range pairs {
		sink += lib.Compare(p.evidence, p.a, p.b)
	}
	out.cold = time.Since(t0)
	snap := ctr.Snapshot()
	if calls := snap.SimfnCacheHits + snap.SimfnCacheMisses; calls > 0 {
		out.hitRatio = float64(snap.SimfnCacheHits) / float64(calls)
	}
	t0 = time.Now()
	for _, p := range pairs {
		sink += lib.Compare(p.evidence, p.a, p.b)
	}
	out.warm = time.Since(t0)
	t0 = time.Now()
	for _, p := range pairs {
		sink += strsim.JaroWinkler(p.a, p.b)
	}
	out.jaroWinkler = time.Since(t0)
	t0 = time.Now()
	for _, p := range pairs {
		sink += strsim.MongeElkan(p.a, p.b, nil)
	}
	out.mongeElkan = time.Since(t0)
	t0 = time.Now()
	for _, p := range pairs {
		sink += corp.CosineSim(p.a, p.b)
	}
	out.cosine = time.Since(t0)
	compareSink = sink
	return out
}

// compareSink keeps the comparator results alive so the loops above are
// not optimised away.
var compareSink float64
