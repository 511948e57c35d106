package recon

// Query-time collective reconciliation: the CollectiveMatcher wraps the
// attribute-only Matcher and, per query, asks internal/collective to
// expand a bounded neighborhood around the query reference, run the
// propagation fixed point over it, and raise the entity scores with the
// collectively-informed pair similarities. A degraded run (budget
// exhausted) falls back to the Matcher's candidate list bit-for-bit — the
// fallback is the Matcher, not an approximation of it.

import (
	"sync/atomic"

	"refrecon/internal/collective"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
)

// CollectiveStats extends MatchStats with the expansion/propagation
// telemetry of the collective pass.
type CollectiveStats struct {
	MatchStats
	// Expansion describes the collective pass: neighborhood size, engine
	// activity, and whether (and why) the query degraded to the
	// attribute-only fallback.
	Expansion collective.Stats
}

// CollectiveMatcher answers reconciliation queries with query-time
// collective resolution over a Matcher's snapshot. Safe for concurrent
// use: each Match call materializes its own local graph.
type CollectiveMatcher struct {
	m  *Matcher
	cc collective.Config
}

// NewCollectiveMatcher wraps a Matcher. cc holds budgets only: the local
// fixed point runs with the Matcher's own engine options, which are the
// offline ones.
func NewCollectiveMatcher(m *Matcher, cc collective.Config) *CollectiveMatcher {
	if cc.Obs == nil {
		cc.Obs = m.cfg.Obs
	}
	return &CollectiveMatcher{m: m, cc: cc.WithDefaults()}
}

// Matcher returns the wrapped attribute-only matcher.
func (cm *CollectiveMatcher) Matcher() *Matcher { return cm.m }

// Config returns the resolved collective configuration (defaults filled).
func (cm *CollectiveMatcher) Config() collective.Config { return cm.cc }

// Match resolves one query collectively under the matcher's configured
// budgets.
func (cm *CollectiveMatcher) Match(q Query) ([]Candidate, CollectiveStats, error) {
	return cm.MatchConfig(q, cm.cc)
}

// MatchConfig resolves one query collectively under an explicit budget
// configuration (serve uses it for per-query budget knobs). Collective
// scores only ever raise an entity above its attribute-only score, so the
// result is never worse than Matcher.Match on the same query; when the
// budget degrades the run, it is exactly Matcher.Match.
func (cm *CollectiveMatcher) MatchConfig(q Query, cc collective.Config) ([]Candidate, CollectiveStats, error) {
	m := cm.m
	qr, err := m.queryRef(q)
	if err != nil {
		return nil, CollectiveStats{}, err
	}
	if len(qr.AtomicAttrs()) == 0 {
		// Associations alone generate no blocking candidates; nothing to
		// expand from.
		return nil, CollectiveStats{}, nil
	}

	// Attribute-only base, unranked and untruncated: the collective pass
	// raises entity scores, and the final ranking must see every blocked
	// entity, not the attribute-only top-limit.
	qrow := m.valueRow(qr)
	base, mstats := m.score(qr, qrow)
	st := CollectiveStats{MatchStats: mstats}

	host := newQueryHost(m, qr, qrow)
	res := collective.Resolve(host, collective.Request{Query: qr.ID}, cc)
	st.Expansion = res.Stats
	if res.Stats.Degraded || res.Scores == nil {
		return m.Rank(base, q.Limit), st, nil
	}

	// Entity-level MAX raise: a candidate entity's score becomes the max
	// of its attribute-only score and the collective similarity of any of
	// its member references with the query (MAX is order-independent, so
	// the map's iteration order does not matter).
	pos := make(map[int]int, len(base))
	for i := range base {
		pos[base[i].Entity.Label] = i
	}
	for id, s := range res.Scores {
		ent := m.snap.EntityOf(id)
		if ent == nil {
			continue
		}
		if i, ok := pos[ent.Label]; ok && s > base[i].Score {
			base[i].Score = s
		}
	}
	return m.Rank(base, q.Limit), st, nil
}

// queryHost adapts one (Matcher, query reference) pair to the
// collective.Host interface. The query reference gets the first id past
// the stored id space, its value row kept outside the stored ones;
// everything else resolves through the matcher's stored-reference views,
// and every evidence decision through its evidence model. Not safe for
// concurrent use — each Match call builds its own.
type queryHost struct {
	m     *Matcher
	qr    *reference.Reference
	qrow  valueRow
	elems elemTable
}

func newQueryHost(m *Matcher, qr *reference.Reference, qrow valueRow) *queryHost {
	qr.ID = reference.ID(m.snap.RefCount())
	return &queryHost{m: m, qr: qr, qrow: qrow}
}

func (h *queryHost) rowOf(r *reference.Reference) valueRow {
	if r == h.qr {
		return h.qrow
	}
	return h.m.rows[r.ID]
}

// keysOf returns r's blocking keys: the query's derived, a stored
// reference's as the matcher fed them.
func (h *queryHost) keysOf(r *reference.Reference) []string {
	if r == h.qr {
		return h.m.keysOf(r)
	}
	return h.m.keys[r.ID]
}

// EngineOptions implements collective.Host with the matcher's own: the
// scorer and thresholds offline reconciliation ran with.
func (h *queryHost) EngineOptions() depgraph.Options { return h.m.engineOptions() }

// ref resolves an id to the query reference or a stored one (nil when it
// is neither).
func (h *queryHost) ref(id reference.ID) *reference.Reference {
	if id == h.qr.ID {
		return h.qr
	}
	r, _ := h.m.snap.Ref(id)
	return r
}

// ClassOf implements collective.Host.
func (h *queryHost) ClassOf(id reference.ID) string {
	if r := h.ref(id); r != nil {
		return r.Class
	}
	return ""
}

// Candidates implements collective.Host: blocking-index lookup over the
// reference's keys, with the reference itself removed. Neighbourhoods
// overlap across queries, so a stored reference's list is memoized.
func (h *queryHost) Candidates(id reference.ID) []reference.ID {
	r := h.ref(id)
	if r == nil {
		return nil
	}
	return memo(h, h.m.cands, r, func() []reference.ID {
		ids := h.m.candidates(r.Class, h.keysOf(r))
		out := ids[:0]
		for _, c := range ids {
			if c != id {
				out = append(out, c)
			}
		}
		return out[:len(out):len(out)]
	})
}

// EachAssoc implements collective.Host: the targets of each association
// rule of the reference's class, in rule order (memoized like Candidates),
// so person references expose their pooled contact list. Unlike
// construction, no popularity cap drops hyper-popular contacts here: the
// cap is a statistic over the whole person population, and the expansion
// is already bounded by collective.Config's node and neighbor budgets.
func (h *queryHost) EachAssoc(id reference.ID, fn func(attr string, targets []reference.ID)) {
	r := h.ref(id)
	if r == nil {
		return
	}
	rules := h.m.row(r.Class).assoc
	ts := memo(h, h.m.assocs, r, func() [][]reference.ID {
		ts := make([][]reference.ID, len(rules))
		for i := range rules {
			ts[i] = rules[i].targets(r)
		}
		return ts
	})
	for i := range rules {
		if len(ts[i]) > 0 {
			fn(rules[i].attr, ts[i])
		}
	}
}

// memo returns compute(), memoized per stored reference in slots (filled
// on first use; racing first uses compute equal values) and computed
// afresh for the query reference.
func memo[T any](h *queryHost, slots []atomic.Pointer[T], r *reference.Reference, compute func() T) T {
	if r == h.qr {
		return compute()
	}
	if p := slots[r.ID].Load(); p != nil {
		return *p
	}
	v := compute()
	slots[r.ID].Store(&v)
	return v
}

// AssocEvidence implements collective.Host by reading the class's
// association rule for the attribute.
func (h *queryHost) AssocEvidence(class, attr string) (string, depgraph.DepType, string, bool) {
	rules := h.m.row(class).assoc
	for i := range rules {
		if rule := &rules[i]; rule.attr == attr {
			return rule.evidence, rule.dep, rule.back, true
		}
	}
	return "", 0, "", false
}

// WireAttrEvidence implements collective.Host: the value-pair nodes and
// edges construction wires, scored against the matcher's frozen corpus
// statistics, less three things construction does. The floor is never
// relaxed: no pair here is an induced venue pair in need of nodes. No
// domain constraint marks the pair non-merge: stored pairs carry theirs in
// the frozen decision Resolve applies next, and a partial query is no full
// description to hold one against. And a pair without evidence stays, as
// association evidence found later in the expansion may still feed it.
func (h *queryHost) WireAttrEvidence(g *depgraph.Graph, n *depgraph.Node, a, b reference.ID) bool {
	ra, rb := h.ref(a), h.ref(b)
	if ra == nil || rb == nil {
		return false
	}
	if h.elems.g != g {
		h.elems = newElemTable(h.m.evidence, g)
	}
	wired := false
	h.m.eachScored(ra, rb, h.rowOf(ra), h.rowOf(rb), func(v valCompare, va, vb string, sim float64) {
		cmp := h.m.cmps[v.row]
		h.elems.wire(n, v, h.elems.elem(cmp.ea, v.x, va), h.elems.elem(cmp.eb, v.y, vb), sim)
		wired = true
	})
	return wired
}

// Frozen implements collective.Host from the snapshot's pair decisions
// and transitive closure: a pair in the same partition is merged (sim 1
// when the closure united it without a direct merge decision), a
// constrained pair is non-merge, and a surviving pair node contributes
// its converged similarity as the floor for re-scoring.
func (h *queryHost) Frozen(a, b reference.ID) (float64, bool, bool, bool) {
	snap := h.m.snap
	n := reference.ID(snap.RefCount())
	if a < 0 || b < 0 || a >= n || b >= n {
		return 0, false, false, false
	}
	same := snap.SameEntity(a, b)
	d := snap.Pair(a, b)
	if d == nil {
		if same {
			return 1, true, false, true
		}
		return 0, false, false, false
	}
	directMerge := d.Status == depgraph.Merged.String()
	nonMerge := d.Status == depgraph.NonMerge.String()
	merged := same || directMerge
	sim := d.Sim
	if merged && !directMerge {
		sim = 1
	}
	return sim, merged, nonMerge && !same, true
}
