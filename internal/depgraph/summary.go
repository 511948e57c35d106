package depgraph

// Summary aggregates the graph's state after a run: node populations by
// kind and status, and dependency-edge counts by type. The reconciler
// surfaces it for diagnostics; Table 6 reads the node totals.
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
		for _, e := range n.Out() {
			switch e.Dep {
			case RealValued:
				s.RealEdges++
			case StrongBoolean:
				s.StrongEdges++
			case WeakBoolean:
				s.WeakEdges++
			}
		}
		if d := n.InDegree(); d > s.MaxInDegree {
			s.MaxInDegree = d
		}
		if d := n.OutDegree(); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
	})
	return s
}

// CheckFixedPoint verifies that no live, unconstrained node's similarity
// would increase by more than eps if rescored — the termination property
// §3.2 promises. It returns the offending nodes (nil when the graph is at
// a fixed point). Intended for tests and debugging; cost is one scoring
// pass over the graph.
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
