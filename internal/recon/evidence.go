package recon

// The evidence model of §3.1, stated once: the class rows of model.go bound
// to a schema and configuration, how their comparisons are streamed and
// scored, how a scored value pair hangs under a reference-pair node, and
// how a reference enters the corpus statistics and the blocking index.
// Graph construction (builder), entity scoring (Matcher) and query-time
// collective wiring (queryHost) are its three callers; none of them
// restates a rule. Where query time deliberately departs from
// construction, the departure is an argument or a comment at the call site
// (DESIGN.md, "Evidence model", lists the four).

import (
	"slices"

	"refrecon/internal/blocking"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
	"refrecon/internal/tokenizer"
)

// targets returns the rule's link targets of one reference; for a pooled
// rule the union of the pooled attributes, deduplicated, in pool order.
func (rule *assocRule) targets(r *reference.Reference) []reference.ID {
	if rule.pool == nil {
		return r.Assoc(rule.attr)
	}
	var out []reference.ID
	for _, a := range rule.pool {
		ts := r.Assoc(a)
		if len(out) == 0 {
			// Alias the stored list, capacity clamped: a later append copies.
			out = ts[:len(ts):len(ts)]
			continue
		}
		for _, id := range ts {
			if !slices.Contains(out, id) {
				out = append(out, id)
			}
		}
	}
	return out
}

// evidence binds the class model to one schema, configuration, similarity
// library and set of per-class blocking indexes. The rows are filtered by
// evidence level at construction and read-only afterwards; lib and indexes
// grow through feed. A Matcher shares its evidence between concurrent
// queries, which is safe because it feeds only while it is being built.
type evidence struct {
	sch     *schema.Schema
	cfg     Config
	lib     *simfn.Library
	indexes map[string]*blocking.Index
	model   map[string]*classModel
	// scores is each class's score row, resolved once for the engine's
	// scorer.
	scores map[string]*simfn.ClassScore
}

func newEvidence(sch *schema.Schema, cfg Config) *evidence {
	e := &evidence{
		sch:     sch,
		cfg:     cfg,
		lib:     simfn.NewLibrary(),
		indexes: make(map[string]*blocking.Index),
		model:   make(map[string]*classModel),
		scores:  make(map[string]*simfn.ClassScore),
	}
	if cfg.Obs != nil {
		e.lib.SetCounters(cfg.Obs.Counters)
	}
	for _, c := range sch.Classes() {
		row := modelFor(c).at(cfg.Evidence)
		e.model[c.Name], e.scores[c.Name] = row, row.score
	}
	return e
}

// engineOptions is the one place the propagation engine's scorer and merge
// thresholds are built: one-shot and incremental reconciliation and the
// query-time collective pass all run with it.
func (e *evidence) engineOptions() depgraph.Options {
	return depgraph.Options{
		Scorer:         &simfn.Scorer{Rows: e.scores},
		MergeThreshold: mergeThreshold,
		Propagate:      e.cfg.Mode.propagate(),
		Enrich:         e.cfg.Mode.enrich(),
	}
}

// mergeThreshold is the similarity at which a node merges (§5.2).
func mergeThreshold(n *depgraph.Node) float64 {
	if n.Kind() == depgraph.ValuePair {
		return attrMergeThreshold
	}
	return refMergeThreshold
}

// row returns the class's row at the configured evidence level; an empty
// one for a class the schema does not declare.
func (e *evidence) row(class string) *classModel {
	if m := e.model[class]; m != nil {
		return m
	}
	return &classModel{score: simfn.ScoreGeneric}
}

// feed enters one reference into the corpus statistics the comparators
// read and into its class's blocking index, under keys, or under the keys
// its row derives when keys is nil. It returns the keys.
func (e *evidence) feed(r *reference.Reference, keys []string) []string {
	row := e.row(r.Class)
	for _, cmp := range row.compare {
		if cmp.by.Feed != nil {
			for _, v := range r.Atomic(cmp.attrA) {
				cmp.by.Feed(e.lib, v)
			}
		}
	}
	idx, ok := e.indexes[r.Class]
	if !ok {
		idx = blocking.New(e.cfg.BucketCap)
		e.indexes[r.Class] = idx
	}
	if keys == nil {
		row.blockingKeys(r, func(k string) { keys = append(keys, k) })
	}
	for _, k := range keys {
		idx.Add(k, r.ID)
	}
	return keys
}

// candidates returns the fed references of r's class that share a
// blocking key with r, sorted ascending (r itself included if it was fed).
func (e *evidence) candidates(r *reference.Reference) []reference.ID {
	idx := e.indexes[r.Class]
	if idx == nil {
		return nil
	}
	var keys []string
	e.row(r.Class).blockingKeys(r, func(k string) { keys = append(keys, k) })
	return idx.Candidates(keys)
}

// valCompare is one atomic value comparison of a reference pair: the
// attribute comparison it instantiates and the two raw values, in
// (attrA, attrB) order.
type valCompare struct {
	cmp    *attrCompare
	v1, v2 string
}

// countValuePairs is the number of comparisons eachValuePair will stream.
func (e *evidence) countValuePairs(a, b *reference.Reference) int {
	n := 0
	for _, cmp := range e.row(a.Class).compare {
		n += len(a.Atomic(cmp.attrA)) * len(b.Atomic(cmp.attrB))
	}
	return n
}

// eachValuePair streams the comparable value pairs of two references of
// one class in the model's deterministic order: comparison table order,
// then a's values, then b's.
func (e *evidence) eachValuePair(a, b *reference.Reference, fn func(valCompare)) {
	cmps := e.row(a.Class).compare
	for i := range cmps {
		cmp := &cmps[i]
		v2s := b.Atomic(cmp.attrB)
		if len(v2s) == 0 {
			continue
		}
		for _, v1 := range a.Atomic(cmp.attrA) {
			for _, v2 := range v2s {
				fn(valCompare{cmp, v1, v2})
			}
		}
	}
}

// compare scores one value comparison through the cache-backed similarity
// library, honoring the comparator's argument order.
func (e *evidence) compare(v valCompare) float64 {
	x, y := v.v1, v.v2
	if v.cmp.swap {
		x, y = y, x
	}
	return e.lib.CompareBy(v.cmp.by, v.cmp.evidence, x, y)
}

// evidenceFloor is the similarity below which a value pair the row compared
// is no evidence at all (§3.1 step 1(2) leaves it out of the graph). relaxed
// lowers the floor for an induced pair of a class whose row keeps those.
func evidenceFloor(by *simfn.Comparator, relaxed bool) float64 {
	if relaxed && by.Floor > 0.05 {
		return 0.05
	}
	return by.Floor
}

// eachScored streams, scored, the value pairs of two references that reach
// the unrelaxed evidence floor — the query-time form of enumerate, score,
// filter, with nothing materialized.
func (e *evidence) eachScored(a, b *reference.Reference, fn func(v valCompare, sim float64)) {
	e.eachValuePair(a, b, func(v valCompare) {
		if sim := e.compare(v); sim >= v.cmp.by.Floor {
			fn(v, sim)
		}
	})
}

// valueElems memoizes the namespaced, normalized element key of each raw
// attribute value (attr -> raw -> key): values repeat across pairs, so
// normalization runs once per distinct value instead of once per pair.
type valueElems map[string]map[string]string

func (k valueElems) elemKey(attr, raw string) string {
	m := k[attr]
	if m == nil {
		m = make(map[string]string)
		k[attr] = m
	}
	if e, ok := m[raw]; ok {
		return e
	}
	e := elemPrefix(attr) + tokenizer.Normalize(raw)
	m[raw] = e
	return e
}

// wireValuePair hangs one scored value comparison under the RefPair node
// m: the value-pair node (shared by every pair comparing the same two
// elements), merged outright at the value merge threshold, its real-valued
// edge into m, and the alias back edge.
func wireValuePair(g *depgraph.Graph, m *depgraph.Node, elems valueElems, v valCompare, sim, attrMerge float64) {
	n := g.AddValuePair(v.cmp.evidence, elems.elemKey(v.cmp.attrA, v.v1), elems.elemKey(v.cmp.attrB, v.v2), sim)
	if n.Sim() >= attrMerge {
		g.MarkMerged(n)
	}
	g.AddEdge(n, m, depgraph.RealValued, v.cmp.evidence)
	// Alias learning: merging the references certifies identifying
	// values as aliases (Figure 2's n6).
	if v.cmp.by.Alias && v.cmp.attrA == v.cmp.attrB {
		g.AddEdge(m, n, depgraph.StrongBoolean, v.cmp.evidence)
	}
}
