package collective

import (
	"errors"
	"sort"
	"strconv"
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

// pend is one materialized RefPair awaiting association expansion.
type pend struct {
	n    *depgraph.Node
	a, b reference.ID
	hop  int
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
		st.Degraded = true
		st.Reason = reason
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
		st.Degraded = true
		st.Reason = reason
		endExpand()
		return Result{Stats: *st}
	}

	g := depgraph.New()
	refs := make(map[reference.ID]struct{})
	seen := make(map[uint64]struct{})
	var made []pend // every materialized pair, in creation order

	// ensure materializes the RefPair (a, b) at hop if it does not exist
	// yet: attribute evidence wired, frozen decision applied. created
	// reports a fresh node; ok is false when the node budget is
	// exhausted (the whole query degrades — a partial neighborhood would
	// make scores depend on where the cap happened to land).
	ensure := func(a, b reference.ID, hop int) (n *depgraph.Node, created, ok bool) {
		if a == b {
			return nil, false, true
		}
		key := pairKey(a, b)
		if _, dup := seen[key]; dup {
			return g.LookupRefPair(a, b), false, true
		}
		if st.PairNodes >= cfg.MaxNodes {
			return nil, false, false
		}
		class := h.ClassOf(a)
		if class == "" || class != h.ClassOf(b) {
			seen[key] = struct{}{}
			return nil, false, true
		}
		seen[key] = struct{}{}
		n = g.AddRefPair(a, b, class)
		st.PairNodes++
		if hop > st.MaxHop {
			st.MaxHop = hop
		}
		if a != q {
			refs[a] = struct{}{}
		}
		if b != q {
			refs[b] = struct{}{}
		}
		h.WireAttrEvidence(g, n, a, b)
		if a != q && b != q {
			if sim, merged, nonMerge, has := h.Frozen(a, b); has {
				switch {
				case nonMerge:
					g.MarkNonMerge(n)
				default:
					if sim > 0 {
						g.RaiseSim(n, sim)
					}
					if merged {
						g.MarkMerged(n)
					}
				}
			}
		}
		return n, true, true
	}

	cand0 := h.Candidates(q)
	st.Candidates = len(cand0)
	if len(cand0) == 0 {
		endExpand()
		return Result{Scores: map[reference.ID]float64{}, Stats: *st}
	}

	hop0 := make(map[reference.ID]*depgraph.Node, len(cand0))
	var queue []pend
	push := func(a, b reference.ID, hop int) (*depgraph.Node, bool) {
		n, created, ok := ensure(a, b, hop)
		if !ok {
			return nil, false
		}
		if created {
			p := pend{n: n, a: a, b: b, hop: hop}
			made = append(made, p)
			queue = append(queue, p)
		}
		return n, true
	}

	for _, c := range cand0 {
		n, ok := push(q, c, 0)
		if !ok {
			return degradeExpand("nodes")
		}
		if n != nil {
			hop0[c] = n
		}
	}

	// Sibling expansion: an association target first seen as evidence for
	// a parent pair gets its own blocking candidates materialized one
	// level deeper, so the local fixed point can discover merges among
	// the neighbors themselves (and enrichment can fold their pairs).
	sibDone := make(map[reference.ID]struct{})
	expandSiblings := func(t reference.ID, hop int) bool {
		if _, done := sibDone[t]; done {
			return true
		}
		sibDone[t] = struct{}{}
		cands := h.Candidates(t)
		if len(cands) > MaxNeighbors {
			cands = cands[:MaxNeighbors]
		}
		for _, t2 := range cands {
			if _, ok := push(t, t2, hop); !ok {
				return false
			}
		}
		return true
	}

	// Breadth-first association expansion: each materialized pair whose
	// hop is still inside the budget aligns its two references'
	// association attributes and wires the induced evidence edges.
	for i := 0; i < len(queue); i++ {
		if expired() {
			return degradeExpand("time")
		}
		p := queue[i]
		if p.hop >= cfg.MaxHops {
			continue
		}
		aT := assocOf(h, p.a)
		bT := assocOf(h, p.b)
		for _, ae := range aT {
			be, ok := findAssoc(bT, ae.attr)
			if !ok {
				continue
			}
			ev, dep, backEv, ok := h.AssocEvidence(p.n.Class(), ae.attr)
			if !ok {
				continue
			}
			for _, t1 := range ae.targets {
				for _, t2 := range be.targets {
					if t1 == t2 {
						// A shared target is direct relational evidence:
						// a merged value node, as the offline builder
						// wires shared association endpoints.
						sn := g.AddValuePair("shared", sharedElem(t1), sharedElem(t1), 1)
						g.MarkMerged(sn)
						g.AddEdge(sn, p.n, dep, ev)
						continue
					}
					child, ok := push(t1, t2, p.hop+1)
					if !ok {
						return degradeExpand("nodes")
					}
					if child == nil || child == p.n {
						continue
					}
					g.AddEdge(child, p.n, dep, ev)
					if backEv != "" {
						g.AddEdge(p.n, child, depgraph.StrongBoolean, backEv)
					}
					if p.hop+1 < cfg.MaxHops {
						if !expandSiblings(t1, p.hop+2) || !expandSiblings(t2, p.hop+2) {
							return degradeExpand("nodes")
						}
					}
				}
			}
		}
	}

	st.ExpandedRefs = len(refs)
	st.ValueNodes = g.NodeCount() - st.PairNodes
	endExpand()
	if expired() {
		return degrade("time")
	}

	// Seed deepest hop first (dependees before dependents, §3.2), with a
	// total-order tie-break on the id pair so propagation order cannot
	// depend on expansion history. Frozen merged pairs are excluded —
	// seeding a merged node demotes it — and frozen non-merges stay dead.
	seedable := made[:0]
	for _, p := range made {
		if s := p.n.Status(); s == depgraph.Merged || s == depgraph.NonMerge {
			continue
		}
		seedable = append(seedable, p)
	}
	sort.Slice(seedable, func(i, j int) bool {
		if seedable[i].hop != seedable[j].hop {
			return seedable[i].hop > seedable[j].hop
		}
		if seedable[i].n.RefA() != seedable[j].n.RefA() {
			return seedable[i].n.RefA() < seedable[j].n.RefA()
		}
		return seedable[i].n.RefB() < seedable[j].n.RefB()
	})
	seed := make([]*depgraph.Node, len(seedable))
	for i, p := range seedable {
		seed[i] = p.n
	}

	resolveStart := time.Now()
	spResolve := tr.BeginTID("collective", "resolve", lane)

	// fwd tracks enrichment folds so hop-0 pairs remain readable after
	// they fold away (merging (r1,r2) folds (r2,r3) into (r1,r3); when q
	// itself merges, (q,c) can fold into a stored-stored pair).
	fwd := make(map[*depgraph.Node]*depgraph.Node)
	var interrupt func() error
	if !deadline.IsZero() {
		interrupt = func() error {
			if time.Now().After(deadline) {
				return errBudget
			}
			return nil
		}
	}
	// The host's scorer and thresholds under this call's budgets. Collective
	// resolution is propagation plus enrichment whatever mode the offline
	// run ablated to.
	opts := h.EngineOptions()
	opts.Propagate, opts.Enrich = true, true
	opts.MaxSteps = cfg.MaxSteps
	opts.Interrupt = interrupt
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

	scores := make(map[reference.ID]float64, len(hop0))
	for c, n := range hop0 {
		for {
			m, folded := fwd[n]
			if !folded {
				break
			}
			n = m
		}
		scores[c] = n.Sim()
	}
	return Result{Scores: scores, Stats: *st}
}

// pairKey packs an unordered id pair into a map key.
func pairKey(a, b reference.ID) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// sharedElem names the merged value node standing for a shared
// association target, matching the offline builder's convention.
func sharedElem(t reference.ID) string {
	return "r:" + strconv.Itoa(int(t))
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

func findAssoc(entries []assocEntry, attr string) (assocEntry, bool) {
	for _, e := range entries {
		if e.attr == attr {
			return e, true
		}
	}
	return assocEntry{}, false
}
