package collective

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"refrecon/internal/depgraph"
	"refrecon/internal/obs"
	"refrecon/internal/reference"
)

// errBudget is the sentinel the round-boundary Interrupt hook returns
// when the wall-clock budget expires mid-propagation.
var errBudget = errors.New("collective: time budget exhausted")

// Resolve runs one bounded expand-and-resolve for req.Query against the
// host's snapshot. It never returns an error: exhausting a budget yields
// a degraded Result (no scores) and the caller falls back to its
// attribute-only path. Counters and one trace lane per query go to
// cfg.Obs when set.
func Resolve(h Host, req Request, cfg Config) Result {
	cfg = cfg.WithDefaults()
	tr := cfg.Obs.Tracer()
	res := resolve(h, req, cfg, tr)
	if c := cfg.Obs.Counter(); c != nil {
		c.CollectiveQueries.Add(1)
		c.CollectivePairNodes.Add(int64(res.Stats.PairNodes))
		obs.UpdateMax(&c.CollectiveMaxPairNodes, int64(res.Stats.PairNodes))
		if res.Stats.Degraded {
			c.CollectiveDegraded.Add(1)
		}
	}
	return res
}

func resolve(h Host, req Request, cfg Config, tr *obs.Tracer) Result {
	q := req.Query
	st := &Stats{}
	lane := tr.NextTID()

	var deadline time.Time
	if cfg.Budget > 0 {
		deadline = time.Now().Add(cfg.Budget)
	}
	expired := func() bool {
		return !deadline.IsZero() && time.Now().After(deadline)
	}
	degrade := func(reason string) Result {
		st.Degraded, st.Reason = true, reason
		return Result{Stats: *st}
	}

	expandStart := time.Now()
	spExpand := tr.BeginTID("collective", "expand", lane)
	endExpand := func() {
		st.ExpandMS = float64(time.Since(expandStart).Microseconds()) / 1000
		spExpand.EndArgs(map[string]any{
			"candidates": st.Candidates,
			"refs":       st.ExpandedRefs,
			"pairs":      st.PairNodes,
			"maxHop":     st.MaxHop,
			"degraded":   st.Degraded,
		})
	}
	degradeExpand := func(reason string) Result {
		st.Degraded, st.Reason = true, reason
		endExpand()
		return Result{Stats: *st}
	}

	cand0 := h.Candidates(q)
	st.Candidates = len(cand0)
	if len(cand0) == 0 {
		endExpand()
		return Result{Scores: map[reference.ID]float64{}, Stats: *st}
	}

	// Plan over ids, then build: the node budget depends on the walk
	// alone, so an over-budget query degrades before any node is built or
	// any value compared.
	pl := &plan{h: h, q: q, cfg: cfg, st: st, seen: map[uint64]int32{}, hop0: map[reference.ID]int32{},
		refs: map[reference.ID]struct{}{}, sibDone: map[reference.ID]struct{}{}}
	if reason := pl.walk(cand0, expired); reason != "" {
		return degradeExpand(reason)
	}
	g, nodes := pl.build()
	st.ValueNodes = g.NodeCount() - st.PairNodes
	endExpand()
	if expired() {
		return degrade("time")
	}

	// Seed deepest hop first (dependees before dependents, §3.2), with a
	// total-order tie-break on the id pair so propagation order cannot
	// depend on expansion history. Frozen merged pairs are excluded —
	// seeding a merged node demotes it — and frozen non-merges stay dead.
	var seedable []int
	for i, n := range nodes {
		if s := n.Status(); s != depgraph.Merged && s != depgraph.NonMerge {
			seedable = append(seedable, i)
		}
	}
	slices.SortFunc(seedable, func(a, b int) int {
		return cmp.Or(cmp.Compare(pl.pairs[b].hop, pl.pairs[a].hop),
			cmp.Compare(nodes[a].RefA(), nodes[b].RefA()), cmp.Compare(nodes[a].RefB(), nodes[b].RefB()))
	})
	seed := make([]*depgraph.Node, len(seedable))
	for i, k := range seedable {
		seed[i] = nodes[k]
	}

	resolveStart := time.Now()
	spResolve := tr.BeginTID("collective", "resolve", lane)

	// fwd tracks enrichment folds so hop-0 pairs remain readable after
	// they fold away (merging (r1,r2) folds (r2,r3) into (r1,r3); when q
	// itself merges, (q,c) can fold into a stored-stored pair).
	fwd := make(map[*depgraph.Node]*depgraph.Node)
	// The host's scorer and thresholds under this call's budgets. Collective
	// resolution is propagation plus enrichment whatever mode the offline
	// run ablated to.
	opts := h.EngineOptions()
	opts.Propagate, opts.Enrich = true, true
	opts.MaxSteps, opts.Interrupt = cfg.MaxSteps, nil
	if !deadline.IsZero() {
		opts.Interrupt = func() error {
			if expired() {
				return errBudget
			}
			return nil
		}
	}
	opts.OnFold = func(l, m *depgraph.Node) { fwd[l] = m }
	es := g.Run(seed, opts)
	st.Rounds, st.Steps, st.Merges, st.Folds = es.Rounds, es.Steps, es.Merges, es.Folds
	st.ResolveMS = float64(time.Since(resolveStart).Microseconds()) / 1000
	spResolve.EndArgs(map[string]any{
		"rounds": es.Rounds, "steps": es.Steps,
		"merges": es.Merges, "folds": es.Folds,
		"interrupted": es.Interrupted, "truncated": es.Truncated,
	})
	if es.Interrupted {
		return degrade("time")
	}
	if es.Truncated {
		return degrade("steps")
	}

	scores := make(map[reference.ID]float64, len(pl.hop0))
	for c, i := range pl.hop0 {
		n := nodes[i]
		for m, folded := fwd[n]; folded; m, folded = fwd[n] {
			n = m
		}
		scores[c] = n.Sim()
	}
	return Result{Scores: scores, Stats: *st}
}

// plan is one query's neighbourhood over ids alone: the RefPairs it holds
// and the graph operations that build them, in the order the breadth-first
// walk met them. seen maps a pair key to its index in pairs (-1: no node).
type plan struct {
	h             Host
	q             reference.ID
	cfg           Config
	st            *Stats
	pairs         []pairPlan
	ops           []op
	seen          map[uint64]int32
	hop0          map[reference.ID]int32
	refs, sibDone map[reference.ID]struct{}
}

type pairPlan struct {
	a, b  reference.ID
	class string
	hop   int
}

// op is one graph operation: build RefPair p (opPair), wire shared target
// t as evidence for p (opShared), or the association edge c → p and its
// back edge (opAssoc).
type op struct {
	kind     uint8
	p, c     int32
	t        reference.ID
	dep      depgraph.DepType
	ev, back string
}

const (
	opPair = iota
	opShared
	opAssoc
)

// push plans the RefPair (a, b) at hop unless the walk has met it. It
// returns the pair's index (-1 when the pair gets no node: a self pair or
// a cross-class one) and false when the node budget is exhausted — the
// whole query degrades, as a partial neighbourhood would make scores
// depend on where the cap happened to land.
func (pl *plan) push(a, b reference.ID, hop int) (int32, bool) {
	if a == b {
		return -1, true
	}
	key := pairKey(a, b)
	if i, dup := pl.seen[key]; dup {
		return i, true
	}
	if len(pl.pairs) >= pl.cfg.MaxNodes {
		return -1, false
	}
	i := int32(-1)
	if class := pl.h.ClassOf(a); class != "" && class == pl.h.ClassOf(b) {
		i = int32(len(pl.pairs))
		pl.pairs = append(pl.pairs, pairPlan{a: a, b: b, class: class, hop: hop})
		pl.ops = append(pl.ops, op{kind: opPair, p: i})
		pl.st.PairNodes++
		pl.st.MaxHop = max(pl.st.MaxHop, hop)
		pl.refs[a], pl.refs[b] = struct{}{}, struct{}{}
	}
	pl.seen[key] = i
	return i, true
}

// siblings plans the first MaxNeighbors blocking candidates of t as pairs
// at hop: an association target first seen as evidence for a parent pair
// gets its own candidates one level deeper, so the local fixed point can
// discover merges among the neighbors themselves (and enrichment can fold
// their pairs).
func (pl *plan) siblings(t reference.ID, hop int) bool {
	if _, done := pl.sibDone[t]; done {
		return true
	}
	pl.sibDone[t] = struct{}{}
	cands := pl.h.Candidates(t)
	for _, t2 := range cands[:min(len(cands), MaxNeighbors)] {
		if _, ok := pl.push(t, t2, hop); !ok {
			return false
		}
	}
	return true
}

// walk plans the neighbourhood: the hop-0 candidate pairs, then, breadth
// first, each planned pair inside the hop budget aligns its references'
// association attributes into shared targets, target pairs and those
// targets' sibling candidates. It returns why the query degrades ("nodes"
// or "time"), or "" when the plan fits.
func (pl *plan) walk(cand0 []reference.ID, expired func() bool) string {
	for _, c := range cand0 {
		i, ok := pl.push(pl.q, c, 0)
		if !ok {
			return "nodes"
		}
		if i >= 0 {
			pl.hop0[c] = i
		}
	}
	for i := int32(0); int(i) < len(pl.pairs); i++ {
		if expired() {
			return "time"
		}
		p := pl.pairs[i]
		if p.hop >= pl.cfg.MaxHops {
			continue
		}
		bT := assocOf(pl.h, p.b)
		for _, ae := range assocOf(pl.h, p.a) {
			j := slices.IndexFunc(bT, func(e assocEntry) bool { return e.attr == ae.attr })
			ev, dep, back, ok := pl.h.AssocEvidence(p.class, ae.attr)
			if j < 0 || !ok {
				continue
			}
			for _, t1 := range ae.targets {
				for _, t2 := range bT[j].targets {
					if t1 == t2 {
						pl.ops = append(pl.ops, op{kind: opShared, p: i, t: t1, dep: dep, ev: ev})
						continue
					}
					c, ok := pl.push(t1, t2, p.hop+1)
					if !ok {
						return "nodes"
					}
					if c < 0 || c == i {
						continue
					}
					pl.ops = append(pl.ops, op{kind: opAssoc, p: i, c: c, dep: dep, ev: ev, back: back})
					if p.hop+1 < pl.cfg.MaxHops && (!pl.siblings(t1, p.hop+2) || !pl.siblings(t2, p.hop+2)) {
						return "nodes"
					}
				}
			}
		}
	}
	delete(pl.refs, pl.q)
	pl.st.ExpandedRefs = len(pl.refs)
	return ""
}

// build replays the plan's operations in walk order, so the graph, its
// node and edge order included, is the one an interleaved expansion would
// make.
func (pl *plan) build() (*depgraph.Graph, []*depgraph.Node) {
	h, g := pl.h, depgraph.New()
	nodes := make([]*depgraph.Node, len(pl.pairs))
	for _, o := range pl.ops {
		switch o.kind {
		case opPair:
			p := &pl.pairs[o.p]
			n := g.AddRefPair(p.a, p.b, p.class)
			nodes[o.p] = n
			h.WireAttrEvidence(g, n, p.a, p.b)
			// A frozen decision (never one for the query, which is not
			// stored): a non-merge stays dead, anything else floors the
			// pair at its converged similarity.
			if sim, merged, nonMerge, has := h.Frozen(p.a, p.b); has && nonMerge {
				g.MarkNonMerge(n)
			} else if has {
				g.RaiseSim(n, sim)
				if merged {
					g.MarkMerged(n)
				}
			}
		case opShared:
			// A shared target is direct relational evidence.
			g.AddEdge(g.SharedTarget(o.t), nodes[o.p], o.dep, o.ev)
		case opAssoc:
			g.AddEdge(nodes[o.c], nodes[o.p], o.dep, o.ev)
			if o.back != "" {
				g.AddEdge(nodes[o.p], nodes[o.c], depgraph.StrongBoolean, o.back)
			}
		}
	}
	return g, nodes
}

// pairKey packs an unordered id pair into a map key.
func pairKey(a, b reference.ID) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// assocEntry is one association attribute with its targets.
type assocEntry struct {
	attr    string
	targets []reference.ID
}

func assocOf(h Host, id reference.ID) []assocEntry {
	var out []assocEntry
	h.EachAssoc(id, func(attr string, targets []reference.ID) {
		if len(targets) > 0 {
			out = append(out, assocEntry{attr: attr, targets: targets})
		}
	})
	return out
}
