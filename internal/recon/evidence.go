package recon

// The evidence model of §3.1, stated once: the class rows of model.go bound
// to a schema and configuration, how their comparisons are listed and
// scored, how a scored value pair hangs under a reference-pair node, and
// how a reference enters the corpus statistics, the value dictionary and
// the blocking index. Its three callers — graph construction (builder),
// entity scoring (Matcher), collective wiring (queryHost) — restate no
// rule; where query time departs from construction, the departure is an
// argument or a comment at the call site (DESIGN.md, "Evidence model").

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
	// cmps lists every row's comparisons (attrCompare.idx indexes it);
	// attrs every attribute the unfiltered rows compare, in first-use
	// order, which depends on the schema alone (attrCompare.ea, eb).
	cmps  []*attrCompare
	attrs []string
	// rows is each fed reference's valueRow by id, its ids issued by lib's
	// dictionary: append-only, so a snapshot shares its prefix.
	rows []valueRow
}

// valueRow is one reference's atomic values as dictionary ids, one list
// per attribute of evidence.attrs, in value order; a value a fork's
// dictionary lacks (a query's) is simfn.NoValue.
type valueRow [][]uint32

func newEvidence(sch *schema.Schema, cfg Config) *evidence {
	e := &evidence{
		sch:     sch,
		cfg:     cfg,
		indexes: make(map[string]*blocking.Index),
		model:   make(map[string]*classModel),
		scores:  make(map[string]*simfn.ClassScore),
	}
	if e.lib = simfn.NewLibrary(); cfg.Obs != nil {
		e.lib.SetCounters(cfg.Obs.Counters)
	}
	for _, c := range sch.Classes() {
		m := modelFor(c)
		for _, cmp := range m.compare {
			for _, a := range []string{cmp.attrA, cmp.attrB} {
				if !slices.Contains(e.attrs, a) {
					e.attrs = append(e.attrs, a)
				}
			}
		}
		row := m.at(cfg.Evidence)
		for i := range row.compare {
			cmp := &row.compare[i]
			cmp.idx = uint32(len(e.cmps))
			cmp.ea, cmp.eb = slices.Index(e.attrs, cmp.attrA), slices.Index(e.attrs, cmp.attrB)
			e.cmps = append(e.cmps, cmp)
		}
		e.model[c.Name], e.scores[c.Name] = row, row.score
	}
	return e
}

// valueRow returns r's values as dictionary ids (simfn.Library.ValueID).
func (e *evidence) valueRow(r *reference.Reference) valueRow {
	row := make(valueRow, len(e.attrs))
	for k, attr := range e.attrs {
		for _, v := range r.Atomic(attr) {
			row[k] = append(row[k], e.lib.ValueID(v))
		}
	}
	return row
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
		keys = e.keysOf(r)
	}
	for _, k := range keys {
		idx.Add(k, r.ID)
	}
	return keys
}

// keysOf derives the blocking keys r's class row gives it.
func (e *evidence) keysOf(r *reference.Reference) []string {
	var keys []string
	e.row(r.Class).blockingKeys(r, func(k string) { keys = append(keys, k) })
	return keys
}

// candidates returns the fed references of the class that share one of
// keys, sorted ascending.
func (e *evidence) candidates(class string, keys []string) []reference.ID {
	idx := e.indexes[class]
	if idx == nil {
		return nil
	}
	return idx.Candidates(keys)
}

// valCompare is one value comparison of a reference pair: the comparison
// (evidence.cmps index) and the two value ids, in (attrA, attrB) order. It
// holds no pointer: a build lists about a million.
type valCompare struct {
	row, x, y uint32
}

// appendVals appends the value comparisons of two references of one class
// to dst in the model's deterministic order: comparison table order, then
// a's values, then b's.
func (e *evidence) appendVals(dst []valCompare, class string, ra, rb valueRow) []valCompare {
	cmps := e.row(class).compare
	for i := range cmps {
		cmp := &cmps[i]
		ys := rb[cmp.eb]
		if len(ys) == 0 {
			continue
		}
		for _, x := range ra[cmp.ea] {
			for _, y := range ys {
				dst = append(dst, valCompare{cmp.idx, x, y})
			}
		}
	}
	return dst
}

// compare scores one value comparison through the library's id-keyed
// cache, honoring the comparator's argument order.
func (e *evidence) compare(v valCompare) float64 {
	cmp := e.cmps[v.row]
	if cmp.swap {
		return e.lib.CompareIDs(cmp.by, v.y, v.x)
	}
	return e.lib.CompareIDs(cmp.by, v.x, v.y)
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

// eachScored streams, scored and with their raw values, the value pairs of
// two references that reach the unrelaxed floor — the query-time form of
// enumerate, score, filter; a pair with a NoValue is scored uncached.
func (e *evidence) eachScored(a, b *reference.Reference, ra, rb valueRow, fn func(v valCompare, va, vb string, sim float64)) {
	cmps := e.row(a.Class).compare
	for c := range cmps {
		cmp := &cmps[c]
		ys := rb[cmp.eb]
		if len(ys) == 0 {
			continue
		}
		as, bs := a.Atomic(cmp.attrA), b.Atomic(cmp.attrB)
		for i, x := range ra[cmp.ea] {
			for j, y := range ys {
				v := valCompare{cmp.idx, x, y}
				var sim float64
				switch {
				case x != simfn.NoValue && y != simfn.NoValue:
					sim = e.compare(v)
				case cmp.swap:
					sim = e.lib.CompareBy(cmp.by, cmp.evidence, bs[j], as[i])
				default:
					sim = e.lib.CompareBy(cmp.by, cmp.evidence, as[i], bs[j])
				}
				if sim >= cmp.by.Floor {
					fn(v, as[i], bs[j], sim)
				}
			}
		}
	}
}

// elemTable holds one graph's ids of value element keys, by attribute index
// and value id (0: not yet derived), and of evidence labels, by comparison.
type elemTable struct {
	e      *evidence
	g      *depgraph.Graph
	ids    [][]int32
	labels []int32
}

func newElemTable(e *evidence, g *depgraph.Graph) elemTable {
	t := elemTable{e: e, g: g, ids: make([][]int32, len(e.attrs)), labels: make([]int32, len(e.cmps))}
	for i, cmp := range e.cmps {
		t.labels[i] = g.Intern(cmp.evidence)
	}
	return t
}

// elem returns the element id of attribute k's value raw, of id id.
func (t *elemTable) elem(k int, id uint32, raw string) int32 {
	if id == simfn.NoValue {
		return t.g.Intern(elemPrefix(t.e.attrs[k]) + tokenizer.Normalize(raw))
	}
	ids := t.ids[k]
	if n := int(id) + 1 - len(ids); n > 0 {
		ids = append(ids, make([]int32, n)...)
		t.ids[k] = ids
	}
	if ids[id] == 0 {
		ids[id] = t.g.Intern(elemPrefix(t.e.attrs[k]) + tokenizer.Normalize(raw))
	}
	return ids[id]
}

// wire hangs one scored value comparison, of elements x and y, under the
// RefPair node m: the value-pair node (shared by every pair comparing the
// same two elements), merged outright at the value merge threshold, its
// real-valued edge into m, and the alias back edge.
func (t *elemTable) wire(m *depgraph.Node, v valCompare, x, y int32, sim float64) {
	cmp, ev := t.e.cmps[v.row], t.labels[v.row]
	n := t.g.AddValuePairIDs(ev, x, y, sim)
	if n.Sim() >= attrMergeThreshold {
		t.g.MarkMerged(n)
	}
	t.g.AddEdgeID(n, m, depgraph.RealValued, ev)
	// Alias learning: merging the references certifies identifying
	// values as aliases (Figure 2's n6).
	if cmp.by.Alias && cmp.attrA == cmp.attrB {
		t.g.AddEdgeID(m, n, depgraph.StrongBoolean, ev)
	}
}
