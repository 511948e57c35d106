// Package audit implements a structural invariant auditor for the
// reconciliation engine. The perf work on the dependency graph (parallel
// construction, columnar storage, incremental sessions) rests on invariants
// that are easy to violate silently: node similarities must stay in [0,1]
// and grow monotonically, merged decisions must never be demoted, the
// adjacency spans must stay consistent, and the final partitioning must
// honor every non-merge constraint. The auditor re-derives each of those properties from first
// principles after any engine phase and reports every violation, so a
// regression surfaces in CI (or under `reconcile -audit`) instead of in a
// production partition.
//
// An Auditor is stateful: it remembers each node's similarity and status at
// the previous checkpoint, which is what lets it prove the *cross-phase*
// invariants (monotone scores, merged-never-demoted) that a single snapshot
// cannot see. Use one Auditor per engine/session lifetime and call its
// Check methods at phase boundaries.
package audit

import (
	"fmt"
	"math"
	"strings"

	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/shard"
)

// Violation is one invariant breach.
type Violation struct {
	// Check names the invariant, e.g. "graph/sim-range".
	Check string
	// Node is the offending node key (or reference/partition description).
	Node string
	// Detail explains the breach.
	Detail string
}

func (v Violation) String() string {
	if v.Node == "" {
		return v.Check + ": " + v.Detail
	}
	return v.Check + " [" + v.Node + "]: " + v.Detail
}

// Report collects the outcome of one audit pass.
type Report struct {
	// Phase labels the checkpoint ("build", "propagate", "closure", ...).
	Phase string
	// Checks counts the individual assertions evaluated.
	Checks int
	// Violations lists every breached assertion.
	Violations []Violation
}

// Ok reports whether the pass found no violations.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil when the pass is clean, or an error summarizing up to
// five violations.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit: phase %q: %d invariant violation(s)", r.Phase, len(r.Violations))
	for i, v := range r.Violations {
		if i == 5 {
			b.WriteString("; ...")
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

func (r *Report) check() { r.Checks++ }

func (r *Report) violate(check, node, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Check:  check,
		Node:   node,
		Detail: fmt.Sprintf(format, args...),
	})
}

// snapshot is the per-node memory that powers the cross-phase checks.
type snapshot struct {
	sim      float64
	merged   bool
	nonMerge bool
}

// Auditor checks engine invariants at phase boundaries. The zero value is
// usable; configure MergeThreshold and Constraints to enable the checks
// that depend on them.
type Auditor struct {
	// MergeThreshold returns the merge threshold per node (the same
	// function the engine ran with). When nil the merged-above-threshold
	// check is skipped.
	MergeThreshold func(*depgraph.Node) float64
	// Constraints mirrors the engine configuration: when true, CheckPartitionNodes
	// requires every non-merge pair to land in different partitions.
	Constraints bool
	// TotalChecks accumulates Report.Checks across every pass.
	TotalChecks int

	prev map[string]snapshot
}

// New returns an Auditor with the given engine configuration.
func New(mergeThreshold func(*depgraph.Node) float64, constraints bool) *Auditor {
	return &Auditor{MergeThreshold: mergeThreshold, Constraints: constraints}
}

// CheckGraph audits the dependency graph's structural invariants:
//
//   - every edge endpoint is a live node and each edge is indexed on the
//     side it was walked from;
//   - the per-side edge sums both equal the graph's edge count;
//   - every span entry's position column points back at it, and no node
//     has two out-edges with the same target, type and evidence (the
//     graph keeps no edge index besides the spans, so nothing else would
//     notice a duplicate);
//   - every similarity is non-NaN and in [0,1]; non-merge nodes sit at 0;
//   - every Merged node's similarity clears its merge threshold;
//   - against the previous checkpoint: similarities never decreased, a
//     Merged node was never demoted (it may only turn NonMerge under a
//     constraint fold), and a NonMerge node stayed NonMerge.
//
// truncated relaxes the demotion check for runs that hit the MaxSteps
// safety net, where re-seeded nodes can legitimately be left mid-flight.
// Cost is one full scan of nodes and edges.
func (a *Auditor) CheckGraph(phase string, g *depgraph.Graph, truncated bool) *Report {
	r := &Report{Phase: phase}
	next := make(map[string]snapshot, len(a.prev))
	inSum, outSum := 0, 0
	g.Nodes(func(n *depgraph.Node) {
		key := n.Key()

		r.check()
		if math.IsNaN(n.Sim()) || n.Sim() < 0 || n.Sim() > 1 {
			r.violate("graph/sim-range", key, "similarity %v outside [0,1]", n.Sim())
		}
		r.check()
		if n.Kind() == depgraph.RefPair && (n.RefA() < 0 || n.RefB() <= n.RefA()) {
			r.violate("graph/refpair-order", key, "reference pair (%d,%d) not canonical", n.RefA(), n.RefB())
		}
		r.check()
		if n.Status() == depgraph.NonMerge && n.Sim() != 0 {
			r.violate("graph/nonmerge-sim", key, "non-merge node has similarity %v", n.Sim())
		}
		if a.MergeThreshold != nil && n.Status() == depgraph.Merged {
			r.check()
			if thr := a.MergeThreshold(n); n.Sim() < thr {
				r.violate("graph/merged-below-threshold", key, "merged at similarity %v < threshold %v", n.Sim(), thr)
			}
		}

		inSum += n.InDegree()
		outSum += n.OutDegree()
		n.EachIn(func(e depgraph.Edge) {
			r.check()
			if e.To != n {
				r.violate("graph/edge-endpoint", key, "in-edge from %s targets %s", e.From.Key(), e.To.Key())
			}
			r.check()
			if !e.From.Alive() {
				r.violate("graph/edge-liveness", key, "in-edge from dead node %s", e.From.Key())
			}
		})
		n.EachOut(func(e depgraph.Edge) {
			r.check()
			if e.From != n {
				r.violate("graph/edge-endpoint", key, "out-edge to %s claims source %s", e.To.Key(), e.From.Key())
			}
			r.check()
			if !e.To.Alive() {
				r.violate("graph/edge-liveness", key, "out-edge to dead node %s", e.To.Key())
			}
		})
		r.check()
		if msg := n.CheckAdjacency(); msg != "" {
			r.violate("graph/adjacency", key, "%s", msg)
		}

		if p, ok := a.prev[key]; ok {
			r.check()
			if n.Sim() < p.sim && n.Status() != depgraph.NonMerge {
				r.violate("graph/sim-monotone", key, "similarity regressed %v -> %v", p.sim, n.Sim())
			}
			r.check()
			if p.merged && n.Status() != depgraph.Merged && n.Status() != depgraph.NonMerge && !truncated {
				r.violate("graph/merged-demoted", key, "previously merged node now %v", n.Status())
			}
			r.check()
			if p.nonMerge && n.Status() != depgraph.NonMerge {
				r.violate("graph/nonmerge-revoked", key, "previously non-merge node now %v", n.Status())
			}
		}
		next[key] = snapshot{
			sim:      n.Sim(),
			merged:   n.Status() == depgraph.Merged,
			nonMerge: n.Status() == depgraph.NonMerge,
		}
	})
	r.check()
	if inSum != g.EdgeCount() || outSum != g.EdgeCount() {
		r.violate("graph/edge-count", "", "edge sums in=%d out=%d, graph says %d", inSum, outSum, g.EdgeCount())
	}
	// Nodes folded away since the last pass simply leave the memory; their
	// merge decisions survive transitively through the absorbing node, which
	// the partition check verifies.
	a.prev = next
	a.TotalChecks += r.Checks
	return r
}

// CheckPartitionNodes audits a reconciliation result against the graph it
// came from, whose decision-bearing RefPair nodes each yields once (the
// sharded path walks its component graphs): partitions are disjoint, cover
// the store, never mix classes and agree with the assignment; with
// constraints on, every non-merge pair's references land apart; with them
// off, every merged pair's land together (the constrained closure may
// revoke the least-certain link on a violating path). Cost is one scan of
// the store, the partitions and the graph's RefPair nodes.
func (a *Auditor) CheckPartitionNodes(phase string, store *reference.Store, each func(func(*depgraph.Node)),
	partitions map[string][][]reference.ID, assignment map[reference.ID]int) *Report {
	r := &Report{Phase: phase}

	seen := make(map[reference.ID]string, store.Len())
	total := 0
	for class, parts := range partitions {
		for pi, part := range parts {
			label := fmt.Sprintf("%s[%d]", class, pi)
			r.check()
			if len(part) == 0 {
				r.violate("partition/empty", label, "empty partition")
				continue
			}
			base, baseOK := assignment[part[0]]
			for _, id := range part {
				total++
				r.check()
				if int(id) < 0 || int(id) >= store.Len() {
					r.violate("partition/unknown-ref", label, "reference %d not in store", id)
					continue
				}
				r.check()
				if prior, dup := seen[id]; dup {
					r.violate("partition/overlap", label, "reference %d already in %s", id, prior)
				}
				seen[id] = label
				r.check()
				if got := store.Get(id).Class; got != class {
					r.violate("partition/class-mix", label, "reference %d has class %s", id, got)
				}
				r.check()
				if lab, ok := assignment[id]; !ok || !baseOK || lab != base {
					r.violate("partition/assignment", label, "reference %d assignment disagrees with partition", id)
				}
			}
		}
	}
	r.check()
	if total != store.Len() {
		r.violate("partition/coverage", "", "partitions cover %d of %d references", total, store.Len())
	}

	each(func(n *depgraph.Node) {
		if n.Kind() != depgraph.RefPair {
			return
		}
		la, okA := assignment[n.RefA()]
		lb, okB := assignment[n.RefB()]
		switch n.Status() {
		case depgraph.NonMerge:
			if a.Constraints {
				r.check()
				if okA && okB && la == lb {
					r.violate("partition/constraint", n.Key(), "non-merge references %d and %d share partition %d", n.RefA(), n.RefB(), la)
				}
			}
		case depgraph.Merged:
			if !a.Constraints {
				r.check()
				if !okA || !okB || la != lb {
					r.violate("partition/merge-dropped", n.Key(), "merged references %d and %d in partitions %d and %d", n.RefA(), n.RefB(), la, lb)
				}
			}
		}
	})
	a.TotalChecks += r.Checks
	return r
}

// CheckSharding audits a shard.Split plan against the global graph it was
// cut from, immediately after the split (before any propagation mutates
// either side):
//
//   - every candidate pair of the global graph is held by exactly one
//     component, and the components hold no other pair;
//   - no global edge joins two components: its target's component holds
//     its source, as the source's own component or as a copy of a
//     constant value.
//
// Cost is one scan of the global graph's nodes and edges.
func (a *Auditor) CheckSharding(phase string, plan *shard.Plan, g *depgraph.Graph) *Report {
	r := &Report{Phase: phase}
	pairs := 0
	g.Nodes(func(n *depgraph.Node) {
		if n.Kind() != depgraph.RefPair {
			return
		}
		pairs++
		c := plan.CompOf(n)
		r.check()
		if c < 0 || plan.Comps[c].G.LookupRefPair(n.RefA(), n.RefB()) == nil {
			r.violate("shard/coverage", n.Key(), "no component holds the pair (component %d)", c)
		}
	})
	held := 0
	for _, c := range plan.Comps {
		c.G.Nodes(func(n *depgraph.Node) {
			if n.Kind() == depgraph.RefPair {
				held++
			}
		})
	}
	r.check()
	if held != pairs {
		r.violate("shard/coverage", "", "components hold %d pairs, the global graph %d", held, pairs)
	}
	g.Edges(func(e depgraph.Edge) {
		from, to := plan.CompOf(e.From), plan.CompOf(e.To)
		r.check()
		switch {
		case to < 0:
			r.violate("shard/crossing-edge", e.To.Key(), "edge from %s into a constant", e.From.Key())
		case from >= 0 && from != to:
			r.violate("shard/crossing-edge", e.To.Key(), "edge from %s joins components %d and %d", e.From.Key(), from, to)
		case from < 0 && plan.Comps[to].G.Lookup(e.From.Key()) == nil:
			r.violate("shard/crossing-edge", e.To.Key(), "component %d reads constant %s without a copy", to, e.From.Key())
		}
	})
	a.TotalChecks += r.Checks
	return r
}
