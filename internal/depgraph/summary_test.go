package depgraph

import "testing"

// CheckFixedPoint verifies that no live, unconstrained node's similarity
// would increase by more than eps if rescored — the termination property
// §3.2 promises. It returns the offending nodes (nil when the graph is at
// a fixed point). Cost is one scoring pass over the graph.
func (g *Graph) CheckFixedPoint(scorer Scorer, eps float64) []*Node {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	var bad []*Node
	g.Nodes(func(n *Node) {
		if n.Status() == NonMerge {
			return
		}
		s := scorer.Score(n)
		if s > 1 {
			s = 1
		}
		if s > n.Sim()+eps {
			bad = append(bad, n)
		}
	})
	return bad
}

// Summary aggregates the graph's state after a run: node populations by
// kind and status, and dependency-edge counts by type.
type Summary struct {
	RefPairs, ValuePairs                    int
	Merged, NonMerge, Inactive, ActiveNodes int
	RealEdges, StrongEdges, WeakEdges       int
	MaxInDegree, MaxOutDegree               int
}

// Summarize walks the live graph and returns its Summary.
func (g *Graph) Summarize() Summary {
	var s Summary
	g.Nodes(func(n *Node) {
		if n.Kind() == RefPair {
			s.RefPairs++
		} else {
			s.ValuePairs++
		}
		switch n.Status() {
		case Merged:
			s.Merged++
		case NonMerge:
			s.NonMerge++
		case Active:
			s.ActiveNodes++
		default:
			s.Inactive++
		}
		n.EachOut(func(e Edge) {
			switch e.Dep {
			case RealValued:
				s.RealEdges++
			case StrongBoolean:
				s.StrongEdges++
			case WeakBoolean:
				s.WeakEdges++
			}
		})
		if d := n.InDegree(); d > s.MaxInDegree {
			s.MaxInDegree = d
		}
		if d := n.OutDegree(); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
	})
	return s
}

func TestSummarize(t *testing.T) {
	g := New()
	a := g.AddRefPair(0, 1, "Person")
	b := g.AddRefPair(2, 3, "Person")
	v := g.AddValuePair("name", "x", "y", 0.5)
	g.AddEdge(v, a, RealValued, "name")
	g.AddEdge(v, b, RealValued, "name")
	g.AddEdge(a, b, WeakBoolean, "contact")
	g.AddEdge(b, a, StrongBoolean, "article")
	a.SetStatus(Merged)
	g.MarkNonMerge(b)

	s := g.Summarize()
	if s.RefPairs != 2 || s.ValuePairs != 1 {
		t.Errorf("populations: %+v", s)
	}
	if s.Merged != 1 || s.NonMerge != 1 || s.Inactive != 1 {
		t.Errorf("statuses: %+v", s)
	}
	if s.RealEdges != 2 || s.WeakEdges != 1 || s.StrongEdges != 1 {
		t.Errorf("edges: %+v", s)
	}
	if s.MaxOutDegree != 2 || s.MaxInDegree != 2 {
		t.Errorf("degrees: %+v", s)
	}
}

func TestCheckFixedPoint(t *testing.T) {
	g := New()
	a := g.AddRefPair(0, 1, "Person")
	v := g.AddValuePair("name", "x", "x", 1.0)
	v.SetStatus(Merged)
	g.AddEdge(v, a, RealValued, "name")

	scorer := ScorerFunc(func(n *Node) float64 {
		if n.Kind() == ValuePair {
			return n.Sim()
		}
		best := 0.0
		for _, e := range n.In() {
			if e.From.Sim() > best {
				best = e.From.Sim()
			}
		}
		return best
	})
	// Before the run, a would score 1.0 but holds 0: not a fixed point.
	if bad := g.CheckFixedPoint(scorer, 0); len(bad) != 1 || bad[0] != a {
		t.Fatalf("expected a as the violation, got %v", bad)
	}
	g.Run([]*Node{a}, Options{
		Scorer:         scorer,
		MergeThreshold: thresholds(0.85),
		Propagate:      true,
	})
	if bad := g.CheckFixedPoint(scorer, 0); len(bad) != 0 {
		t.Fatalf("run should reach a fixed point, violations: %v", bad)
	}
	// Non-merge nodes are exempt even if they would score high.
	b := g.AddRefPair(2, 3, "Person")
	g.AddEdge(v, b, RealValued, "name")
	g.MarkNonMerge(b)
	if bad := g.CheckFixedPoint(scorer, 0); len(bad) != 0 {
		t.Fatalf("non-merge nodes must be exempt: %v", bad)
	}
}
