package recon

// The evidence model of §3.1, stated once: which attribute values of two
// references are compared and by which comparator, how a scored value pair
// hangs under a reference-pair node, which association links induce which
// dependency edges, and how a reference enters the corpus statistics and
// the blocking index. Graph construction (builder), entity scoring
// (Matcher) and query-time collective wiring (queryHost) are its three
// callers; none of them restates a rule. Where query time deliberately
// departs from construction, the departure is an argument or a comment at
// the call site (DESIGN.md, "Evidence model", lists the four).

import (
	"refrecon/internal/blocking"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
	"refrecon/internal/tokenizer"
)

// attrCompare declares one comparable attribute pair (§3.1: values "of the
// same attribute, or according to the domain knowledge of related
// attributes, such as a name and an email").
type attrCompare struct {
	attrA, attrB string
	evidence     string
	// swap is set when Compare expects (attrB, attrA) argument order
	// (the name-vs-email comparator takes the name first).
	swap bool
	// from is the lowest evidence level at which the comparison is made.
	from EvidenceLevel
}

// contactsAttr is the pseudo-attribute a person's coAuthor and
// emailContact links pool under: the paper keeps one contact list per
// person (Figure 2(b) relates p5's *co-author* to p8's *email contact*).
const contactsAttr = "contacts"

// assocRule declares the dependency one association attribute of a class
// induces between a reference pair and the pairs of its link targets
// (§3.1 step 2): an edge target pair → source pair labelled evidence of
// type dep, and optionally a strong-boolean edge back (Figure 2: merging
// two articles merges their aligned authors and venues).
type assocRule struct {
	attr string
	// pool lists the stored attributes whose targets the rule unions under
	// attr; nil means attr itself is the stored attribute.
	pool     []string
	evidence string
	dep      depgraph.DepType
	// back labels the strong-boolean back edge ("" for none), wired from
	// evidence level backFrom up.
	back     string
	backFrom EvidenceLevel
	// from is the lowest evidence level at which the rule applies.
	from EvidenceLevel
}

// contactRule makes shared or reconciled contacts weak-boolean evidence
// for a person pair (§3.1 step 2, Figure 2(b)).
var contactRule = assocRule{
	attr: contactsAttr, pool: []string{schema.AttrCoAuthor, schema.AttrEmailContact},
	evidence: simfn.EvContact, dep: depgraph.WeakBoolean, from: EvidenceContact,
}

// builtinModel is the evidence model of the PIM classes: what is compared,
// and what each association induces. A class named here gets exactly these
// rows (filtered by evidence level); any other class gets the generic
// model newEvidence derives from its schema.
var builtinModel = map[string]struct {
	compare []attrCompare
	assoc   []assocRule
}{
	schema.ClassPerson: {
		compare: []attrCompare{
			{attrA: schema.AttrName, attrB: schema.AttrName, evidence: simfn.EvName},
			{attrA: schema.AttrEmail, attrB: schema.AttrEmail, evidence: simfn.EvEmail},
			{attrA: schema.AttrName, attrB: schema.AttrEmail, evidence: simfn.EvNameEmail, from: EvidenceNameEmail},
			{attrA: schema.AttrEmail, attrB: schema.AttrName, evidence: simfn.EvNameEmail, swap: true, from: EvidenceNameEmail},
		},
		assoc: []assocRule{contactRule},
	},
	schema.ClassArticle: {
		compare: []attrCompare{
			{attrA: schema.AttrTitle, attrB: schema.AttrTitle, evidence: simfn.EvTitle},
			{attrA: schema.AttrYear, attrB: schema.AttrYear, evidence: simfn.EvYear},
			{attrA: schema.AttrPages, attrB: schema.AttrPages, evidence: simfn.EvPages},
		},
		assoc: []assocRule{
			{attr: schema.AttrAuthoredBy, evidence: simfn.EvAuthors, dep: depgraph.RealValued, back: simfn.EvArticle, backFrom: EvidenceArticle},
			{attr: schema.AttrPublishedIn, evidence: simfn.EvVenue, dep: depgraph.RealValued, back: simfn.EvArticle},
		},
	},
	schema.ClassVenue: {
		compare: []attrCompare{
			{attrA: schema.AttrName, attrB: schema.AttrName, evidence: simfn.EvVenueName},
			{attrA: schema.AttrYear, attrB: schema.AttrYear, evidence: simfn.EvYear},
			{attrA: schema.AttrLocation, attrB: schema.AttrLocation, evidence: simfn.EvLocation},
		},
	},
}

// genericComparisons derives same-attribute comparisons for classes the
// built-in model doesn't know, so custom schemas (product catalogs, ...)
// reconcile with the generic string comparator and the srvGeneric
// averaging function.
func genericComparisons(c *schema.Class) []attrCompare {
	var out []attrCompare
	for _, a := range c.AtomicAttrs() {
		out = append(out, attrCompare{attrA: a.Name, attrB: a.Name, evidence: "g:" + a.Name})
	}
	return out
}

// targets returns the rule's link targets of one reference; for a pooled
// rule the union of the pooled attributes, deduplicated, in pool order.
func (rule *assocRule) targets(r *reference.Reference) []reference.ID {
	if rule.pool == nil {
		return r.Assoc(rule.attr)
	}
	var first []reference.ID
	lists, total := 0, 0
	for _, a := range rule.pool {
		if ts := r.Assoc(a); len(ts) > 0 {
			if lists == 0 {
				first = ts
			}
			lists++
			total += len(ts)
		}
	}
	if lists <= 1 {
		return first
	}
	out := make([]reference.ID, 0, total)
	seen := make(map[reference.ID]bool, total)
	for _, a := range rule.pool {
		for _, id := range r.Assoc(a) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// contactsOf returns the union of a person's co-author and email-contact
// links, deduplicated, in stable order.
func contactsOf(r *reference.Reference) []reference.ID {
	return contactRule.targets(r)
}

// evidence binds the model to one schema, configuration, similarity
// library and set of per-class blocking indexes. The tables are filled at
// construction and read-only afterwards; lib and indexes grow through
// feed. A Matcher shares its evidence between concurrent queries, which
// is safe because it feeds only while it is being built.
type evidence struct {
	sch     *schema.Schema
	cfg     Config
	lib     *simfn.Library
	indexes map[string]*blocking.Index
	cmps    map[string][]attrCompare
	rules   map[string][]assocRule
}

func newEvidence(sch *schema.Schema, cfg Config) *evidence {
	cfg = cfg.withDefaults()
	e := &evidence{
		sch:     sch,
		cfg:     cfg,
		lib:     simfn.NewLibrary(),
		indexes: make(map[string]*blocking.Index),
		cmps:    make(map[string][]attrCompare),
		rules:   make(map[string][]assocRule),
	}
	if cfg.Obs != nil {
		e.lib.SetCounters(cfg.Obs.Counters)
	}
	for _, c := range sch.Classes() {
		builtin, ok := builtinModel[c.Name]
		if !ok {
			e.cmps[c.Name] = genericComparisons(c)
			// Custom classes link conservatively, in the style of the
			// paper's contact evidence: a shared link target, or a
			// reconciled pair of link targets, adds weak-boolean evidence
			// (γ per link) gated on the pair's own attribute similarity.
			for _, a := range c.AssocAttrs() {
				e.rules[c.Name] = append(e.rules[c.Name], assocRule{attr: a.Name, evidence: "ga:" + a.Name, dep: depgraph.WeakBoolean})
			}
			continue
		}
		for _, cmp := range builtin.compare {
			if cfg.Evidence >= cmp.from {
				e.cmps[c.Name] = append(e.cmps[c.Name], cmp)
			}
		}
		for _, rule := range builtin.assoc {
			if cfg.Evidence < rule.from {
				continue
			}
			if cfg.Evidence < rule.backFrom {
				rule.back = ""
			}
			e.rules[c.Name] = append(e.rules[c.Name], rule)
		}
	}
	return e
}

// rule returns the class's rule for one association attribute.
func (e *evidence) rule(class, attr string) (*assocRule, bool) {
	rules := e.rules[class]
	for i := range rules {
		if rules[i].attr == attr {
			return &rules[i], true
		}
	}
	return nil, false
}

// feed enters one reference into the corpus statistics the comparators
// read and into its class's blocking index.
func (e *evidence) feed(r *reference.Reference) {
	for _, t := range r.Atomic(schema.AttrTitle) {
		e.lib.Titles.Add(t)
	}
	switch r.Class {
	case schema.ClassVenue:
		for _, v := range r.Atomic(schema.AttrName) {
			e.lib.Venues.Add(v)
		}
	case schema.ClassPerson:
		for _, v := range r.Atomic(schema.AttrName) {
			e.lib.AddPersonName(v)
		}
	}
	idx, ok := e.indexes[r.Class]
	if !ok {
		idx = blocking.New(e.cfg.BucketCap)
		e.indexes[r.Class] = idx
	}
	blockingKeys(r, func(k string) { idx.Add(k, r.ID) })
}

// candidates returns the fed references of r's class that share a
// blocking key with r, sorted ascending (r itself included if it was fed).
func (e *evidence) candidates(r *reference.Reference) []reference.ID {
	idx := e.indexes[r.Class]
	if idx == nil {
		return nil
	}
	var keys []string
	blockingKeys(r, func(k string) { keys = append(keys, k) })
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
	for _, cmp := range e.cmps[a.Class] {
		n += len(a.Atomic(cmp.attrA)) * len(b.Atomic(cmp.attrB))
	}
	return n
}

// eachValuePair streams the comparable value pairs of two references of
// one class in the model's deterministic order: comparison table order,
// then a's values, then b's.
func (e *evidence) eachValuePair(a, b *reference.Reference, fn func(valCompare)) {
	cmps := e.cmps[a.Class]
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
	return e.lib.Compare(v.cmp.evidence, x, y)
}

// evidenceFloor is the similarity below which a compared value pair is no
// evidence at all (§3.1 step 1(2) leaves it out of the graph). relaxed
// lowers the floor for venue pairs induced by an article pair, so that
// article-driven venue reconciliation has nodes to act on.
func evidenceFloor(evidence string, relaxed bool) float64 {
	thr := simfn.CandidateThreshold(evidence)
	if relaxed && thr > 0.05 {
		thr = 0.05
	}
	return thr
}

// eachScored streams, scored, the value pairs of two references that reach
// the unrelaxed evidence floor — the query-time form of enumerate, score,
// filter, with nothing materialized.
func (e *evidence) eachScored(a, b *reference.Reference, fn func(v valCompare, sim float64)) {
	e.eachValuePair(a, b, func(v valCompare) {
		if sim := e.compare(v); sim >= evidenceFloor(v.cmp.evidence, false) {
			fn(v, sim)
		}
	})
}

// valueElems memoizes the namespaced, normalized element key of each raw
// attribute value (attr -> raw -> key): values repeat across pairs, so
// normalization runs once per distinct value instead of once per pair.
type valueElems map[string]map[string]string

// elemPrefix namespaces value element keys per attribute domain so that the
// same string in different attributes is a different element.
func elemPrefix(attr string) string {
	switch attr {
	case schema.AttrName:
		return "n:"
	case schema.AttrEmail:
		return "e:"
	case schema.AttrTitle:
		return "t:"
	case schema.AttrYear:
		return "y:"
	case schema.AttrPages:
		return "p:"
	case schema.AttrLocation:
		return "l:"
	default:
		return "x:" + attr + ":"
	}
}

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
		// MarkMerged (not a direct Status write) so that incremental
		// batches keep the maintained evidence digests exact.
		g.MarkMerged(n)
	}
	g.AddEdge(n, m, depgraph.RealValued, v.cmp.evidence)
	// Alias learning: merging the references certifies identifying
	// values as aliases (Figure 2's n6).
	if simfn.AliasEvidence(v.cmp.evidence) && !v.cmp.swap && v.cmp.attrA == v.cmp.attrB {
		g.AddEdge(m, n, depgraph.StrongBoolean, v.cmp.evidence)
	}
}
