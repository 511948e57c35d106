package depgraph

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
