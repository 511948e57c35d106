package recon

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
)

// Explanation describes why two references were (or were not) reconciled:
// the chain of merged pair decisions connecting them through the
// transitive closure, each with the evidence that drove it. Explanations
// are available from a Session, which retains the dependency graph.
type Explanation struct {
	A, B reference.ID
	// Same reports whether the two references ended in one partition.
	Same bool
	// Path lists the merged pair decisions connecting A to B (empty when
	// Same is false). Enrichment folds nodes, so a hop may connect A
	// directly to a reference that joined via an absorbed node.
	Path []PairDecision
	// Direct is the pair node for (A, B) itself, if one exists — also set
	// for non-reconciled pairs, where it shows the insufficient or
	// constrained evidence.
	Direct *PairDecision
}

// PairDecision is one pair node's state and evidence.
type PairDecision struct {
	A, B     reference.ID
	Sim      float64
	Status   string
	Evidence []EvidenceItem
}

// EvidenceItem is one incoming dependency of a pair node.
type EvidenceItem struct {
	// Type is the evidence label ("name", "email", "nameEmail",
	// "contact", "article", ...).
	Type string
	// Dep is the dependency kind ("real-valued", "strong-boolean",
	// "weak-boolean").
	Dep string
	// Sim is the source node's similarity.
	Sim float64
	// Source describes the source node (a value pair or a reference pair).
	Source string
	// Counted reports whether the item influences the score (boolean
	// evidence counts only once its source is merged).
	Counted bool
}

// String renders a multi-line human-readable explanation.
func (e Explanation) String() string {
	var b strings.Builder
	if e.Same {
		fmt.Fprintf(&b, "references %d and %d are the same entity\n", e.A, e.B)
	} else {
		fmt.Fprintf(&b, "references %d and %d are different entities\n", e.A, e.B)
	}
	for _, d := range e.Path {
		writeDecision(&b, "  ", d)
	}
	if e.Direct != nil && len(e.Path) == 0 {
		writeDecision(&b, "  ", *e.Direct)
	}
	return b.String()
}

func writeDecision(b *strings.Builder, indent string, d PairDecision) {
	fmt.Fprintf(b, "%s(%d, %d) sim=%.3f %s\n", indent, d.A, d.B, d.Sim, d.Status)
	for _, ev := range d.Evidence {
		mark := " "
		if ev.Counted {
			mark = "*"
		}
		fmt.Fprintf(b, "%s  %s %-10s %-14s %.3f  %s\n", indent, mark, ev.Type, ev.Dep, ev.Sim, ev.Source)
	}
}

// Explain reports why references a and b were or were not reconciled in
// the session's latest result. It returns an error before the first
// Reconcile call. It answers through a snapshot, which inside a session
// re-describes only the pairs changed since the last one.
func (s *Session) Explain(a, b reference.ID) (Explanation, error) {
	if s.latest == nil || s.g == nil {
		return Explanation{}, fmt.Errorf("recon: Explain before Reconcile")
	}
	if int(a) >= s.store.Len() || int(b) >= s.store.Len() || a < 0 || b < 0 {
		return Explanation{}, fmt.Errorf("recon: reference id out of range")
	}
	snap, err := s.Snapshot()
	if err != nil {
		return Explanation{}, err
	}
	return snap.explain(a, b), nil
}

// explainPath is the one Explain walk: a breadth-first search from a to b
// over merged pair decisions, returning the connecting chain in a-to-b
// order. links lists each reference's merged pairs sorted by the other
// endpoint, so the discovered path is deterministic. The closure can unite
// a and b even when enrichment folded away the intermediate nodes; the
// path is nil then, and only Direct evidence is available.
func explainPath(a, b reference.ID, links map[reference.ID][]mergedLink) []PairDecision {
	type hop struct {
		from reference.ID
		d    *PairDecision
	}
	prev := map[reference.ID]hop{a: {from: a}}
	queue := []reference.ID{a}
	for len(queue) > 0 && queue[0] != b {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range links[cur] {
			if _, seen := prev[l.other]; !seen {
				prev[l.other] = hop{from: cur, d: l.d}
				queue = append(queue, l.other)
			}
		}
	}
	if _, ok := prev[b]; !ok {
		return nil
	}
	var path []PairDecision
	for cur := b; cur != a; cur = prev[cur].from {
		path = append(path, *prev[cur].d)
	}
	slices.Reverse(path)
	return path
}

// describeNode copies a pair node's state and evidence. Every publish runs
// it over every pair node whose inputs changed, so it allocates the
// evidence list once, at its final size, and nothing else per edge but a
// pair source's label.
func describeNode(n *depgraph.Node) PairDecision {
	d := PairDecision{A: n.RefA(), B: n.RefB(), Sim: n.Sim(), Status: n.Status().String()}
	if deg := n.InDegree(); deg > 0 {
		d.Evidence = make([]EvidenceItem, 0, deg)
	}
	n.EachIn(func(e depgraph.Edge) {
		src := e.From
		item := EvidenceItem{
			Type: e.Evidence,
			Dep:  e.Dep.String(),
			Sim:  src.Sim(),
		}
		if src.Kind() == depgraph.ValuePair {
			item.Source = src.Key()
		} else {
			item.Source = "pair(" + strconv.Itoa(int(src.RefA())) + "," + strconv.Itoa(int(src.RefB())) + ") " + src.Status().String()
		}
		switch e.Dep {
		case depgraph.RealValued:
			item.Counted = src.Status() != depgraph.NonMerge
		default:
			item.Counted = src.Status() == depgraph.Merged
		}
		d.Evidence = append(d.Evidence, item)
	})
	// Counted evidence first, then by descending similarity; ties keep
	// edge order.
	slices.SortStableFunc(d.Evidence, func(x, y EvidenceItem) int {
		switch {
		case x.Counted != y.Counted:
			if x.Counted {
				return -1
			}
			return 1
		case x.Sim > y.Sim:
			return -1
		case x.Sim < y.Sim:
			return 1
		}
		return 0
	})
	return d
}
