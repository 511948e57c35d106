package depgraph

import (
	"testing"

	"refrecon/internal/reference"
)

// ValuePairKey builds the canonical key for a value pair under an evidence
// type. The two element keys are ordered so (x,y) and (y,x) collide.
func ValuePairKey(evidence, x, y string) string {
	if y < x {
		x, y = y, x
	}
	return evidence + "|" + x + "|" + y
}

func TestRefPairNodeDedup(t *testing.T) {
	g := New()
	n1 := g.AddRefPair(2, 1, "Person")
	n2 := g.AddRefPair(1, 2, "Person")
	if n1 != n2 {
		t.Error("pair (1,2) and (2,1) must be the same node")
	}
	if n1.RefA() != 1 || n1.RefB() != 2 {
		t.Errorf("canonical order wrong: %d,%d", n1.RefA(), n1.RefB())
	}
	if g.NodeCount() != 1 {
		t.Errorf("NodeCount = %d", g.NodeCount())
	}
	if g.LookupRefPair(2, 1) != n1 {
		t.Error("LookupRefPair failed")
	}
}

func TestSelfPairPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-pair should panic")
		}
	}()
	New().AddRefPair(3, 3, "Person")
}

func TestValuePairDedupAndMaxSim(t *testing.T) {
	g := New()
	n1 := g.AddValuePair("name", "a", "b", 0.5)
	n2 := g.AddValuePair("name", "b", "a", 0.7)
	if n1 != n2 {
		t.Error("value pair (a,b)/(b,a) must be the same node")
	}
	if n1.Sim() != 0.7 {
		t.Errorf("sim should rise to the max, got %f", n1.Sim())
	}
	g.AddValuePair("name", "a", "b", 0.2)
	if n1.Sim() != 0.7 {
		t.Errorf("sim must not decrease, got %f", n1.Sim())
	}
	// Different evidence type is a different node.
	n3 := g.AddValuePair("email", "a", "b", 0.5)
	if n3 == n1 {
		t.Error("evidence types must separate nodes")
	}
}

func TestAddEdgeDedup(t *testing.T) {
	g := New()
	a := g.AddRefPair(0, 1, "Person")
	b := g.AddRefPair(2, 3, "Person")
	if !g.AddEdge(a, b, RealValued, "x") {
		t.Fatal("first edge rejected")
	}
	if g.AddEdge(a, b, RealValued, "x") {
		t.Error("duplicate edge accepted")
	}
	if !g.AddEdge(a, b, WeakBoolean, "x") {
		t.Error("different dep type should be a distinct edge")
	}
	if g.AddEdge(a, a, RealValued, "x") {
		t.Error("self edge accepted")
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d", g.EdgeCount())
	}
	if len(a.Out()) != 2 || len(b.In()) != 2 {
		t.Errorf("adjacency wrong: out=%d in=%d", len(a.Out()), len(b.In()))
	}
}

func TestRemoveNodeCleansEdges(t *testing.T) {
	g := New()
	a := g.AddRefPair(0, 1, "Person")
	b := g.AddRefPair(2, 3, "Person")
	c := g.AddRefPair(4, 5, "Person")
	g.AddEdge(a, b, RealValued, "x")
	g.AddEdge(b, c, StrongBoolean, "y")
	g.removeNode(b)
	if g.EdgeCount() != 0 {
		t.Errorf("EdgeCount after removal = %d", g.EdgeCount())
	}
	if len(a.Out()) != 0 || len(c.In()) != 0 {
		t.Error("dangling edges left after removal")
	}
	// a can now re-add the same edge to c without dedup interference.
	if !g.AddEdge(a, c, RealValued, "x") {
		t.Error("edge re-add after cleanup rejected")
	}
}

func TestOther(t *testing.T) {
	g := New()
	n := g.AddRefPair(7, 9, "Person")
	if n.Other(7) != 9 || n.Other(9) != 7 {
		t.Error("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other with foreign ref should panic")
		}
	}()
	n.Other(1)
}

func TestNodesIteration(t *testing.T) {
	g := New()
	g.AddRefPair(0, 1, "Person")
	n := g.AddRefPair(2, 3, "Person")
	g.removeNode(n)
	count := 0
	g.Nodes(func(*Node) { count++ })
	if count != 1 {
		t.Errorf("Nodes visited %d, want 1", count)
	}
}

// Edges walks live edges in creation order and skips the ones a node
// removal killed.
func TestEdgesCreationOrder(t *testing.T) {
	g := New()
	a := g.AddRefPair(0, 1, "Person")
	b := g.AddRefPair(2, 3, "Person")
	c := g.AddRefPair(4, 5, "Person")
	g.AddEdge(c, a, WeakBoolean, "w")
	g.AddEdge(a, b, RealValued, "x")
	g.AddEdge(b, c, StrongBoolean, "y")
	g.AddEdge(a, c, RealValued, "z")
	g.removeNode(b)
	var got []string
	g.Edges(func(e Edge) { got = append(got, e.From.Key()+">"+e.To.Key()+":"+e.Evidence) })
	want := []string{"r4|r5>r0|r1:w", "r0|r1>r4|r5:z"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

// TestRefPairNodesOf pins the per-reference visitor: live pairs in the
// order they were added, removed ones skipped but still counted by the
// degree until a compaction prunes them.
func TestRefPairNodesOf(t *testing.T) {
	g := New()
	a := g.AddRefPair(0, 1, "Person")
	b := g.AddRefPair(1, 2, "Person")
	g.AddRefPair(3, 4, "Person")
	pairsOf := func(r reference.ID) (out []*Node) {
		g.EachRefPair(r, func(other reference.ID, n *Node) {
			if other != n.Other(r) {
				t.Errorf("EachRefPair(%d) reports %d as the other reference of %v", r, other, n)
			}
			out = append(out, n)
		})
		return out
	}
	if got := pairsOf(1); len(got) != 2 || got[0] != a || got[1] != b || g.RefPairDegree(1) != 2 {
		t.Fatalf("EachRefPair(1) = %v, degree %d", got, g.RefPairDegree(1))
	}
	g.removeNode(a)
	if got := pairsOf(1); len(got) != 1 || got[0] != b {
		t.Errorf("after removal EachRefPair(1) = %v", got)
	}
	if d := g.RefPairDegree(1); d != 2 {
		t.Errorf("after removal RefPairDegree(1) = %d, want 2 until compaction", d)
	}
	g.compact()
	if d := g.RefPairDegree(1); d != 1 {
		t.Errorf("after compaction RefPairDegree(1) = %d, want 1", d)
	}
}

func TestMarkNonMerge(t *testing.T) {
	g := New()
	n := g.AddRefPair(0, 1, "Person")
	n.SetSim(0.9)
	g.MarkNonMerge(n)
	if n.Status() != NonMerge || n.Sim() != 0 {
		t.Errorf("non-merge node = %v", n)
	}
}

func TestKeyCanonicalization(t *testing.T) {
	if RefPairKey(5, 2) != RefPairKey(2, 5) {
		t.Error("RefPairKey not canonical")
	}
	if ValuePairKey("name", "x", "y") != ValuePairKey("name", "y", "x") {
		t.Error("ValuePairKey not canonical")
	}
	if ValuePairKey("name", "x", "y") == ValuePairKey("email", "x", "y") {
		t.Error("ValuePairKey must separate evidence types")
	}
}

func TestStatusAndKindStrings(t *testing.T) {
	if Inactive.String() != "inactive" || Active.String() != "active" ||
		Merged.String() != "merged" || NonMerge.String() != "non-merge" {
		t.Error("Status strings wrong")
	}
	if RefPair.String() != "ref-pair" || ValuePair.String() != "value-pair" {
		t.Error("Kind strings wrong")
	}
	if RealValued.String() != "real-valued" || StrongBoolean.String() != "strong-boolean" || WeakBoolean.String() != "weak-boolean" {
		t.Error("DepType strings wrong")
	}
}

// In and Out return n's edges, materialized: test conveniences, since
// production code walks them with EachIn and EachOut.
func (n *Node) In() []Edge  { return n.g.edgeSlice(n.g.inSpan[n.id]) }
func (n *Node) Out() []Edge { return n.g.edgeSlice(n.g.outSpan[n.id]) }

// edgeSlice materializes a span into a fresh []Edge.
func (g *Graph) edgeSlice(s span) []Edge {
	if s.n == 0 {
		return nil
	}
	out := make([]Edge, s.n)
	for i, e := range g.spanIDs(s) {
		out[i] = g.edgeAt(e)
	}
	return out
}
