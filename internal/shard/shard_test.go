package shard_test

import (
	"fmt"
	"testing"

	"refrecon/internal/audit"
	"refrecon/internal/depgraph"
	"refrecon/internal/shard"
)

// buildGraph assembles a small graph of three closed components by hand:
//
//	component A: pairs (0,1), (1,2) of class P, sharing reference 1, and
//	             the class Q pair (9,10), joined by an association edge
//	             (9,10) -> (0,1);
//	component B: pairs (3,4), (5,6), joined by the aliasable value v —
//	             (3,4) -> v is the alias back edge, v feeds both pairs;
//	component C: the lone pair (7,8).
//
// The constant value c (no in-edge) feeds (0,1) and (3,4): it is copied
// into A and B, which stay apart. Edges are created out of node id order,
// so an in-span's order is not its sources' id order.
func buildGraph() (*depgraph.Graph, []*depgraph.Node) {
	g := depgraph.New()
	p01 := g.AddRefPair(0, 1, "P")
	p12 := g.AddRefPair(1, 2, "P")
	p34 := g.AddRefPair(3, 4, "P")
	p56 := g.AddRefPair(5, 6, "P")
	p78 := g.AddRefPair(7, 8, "P")
	q910 := g.AddRefPair(9, 10, "Q")
	c := g.AddValuePair("title", "x", "y", 0.4)
	v := g.AddValuePair("email", "u", "w", 0.6)
	g.AddEdge(v, p34, depgraph.RealValued, "email")
	g.AddEdge(c, p01, depgraph.RealValued, "title")
	g.AddEdge(q910, p01, depgraph.StrongBoolean, "assoc")
	g.AddEdge(c, p34, depgraph.RealValued, "title")
	g.AddEdge(p34, v, depgraph.StrongBoolean, "email")
	g.AddEdge(v, p56, depgraph.RealValued, "email")
	g.AddEdge(p12, q910, depgraph.WeakBoolean, "contact")
	return g, []*depgraph.Node{p01, p12, p34, p56, p78, q910}
}

// edgeList renders a node's in- or out-edges, in span order, by endpoint
// keys; keep filters the far endpoints (nil keeps all).
func edgeList(edges []depgraph.Edge, keep func(*depgraph.Node) bool) []string {
	var out []string
	for _, e := range edges {
		if keep == nil || keep(e.To) {
			out = append(out, fmt.Sprintf("%s>%s %v %s", e.From.Key(), e.To.Key(), e.Dep, e.Evidence))
		}
	}
	return out
}

func TestSplitStructure(t *testing.T) {
	g, seed := buildGraph()
	plan := shard.Split(g, seed, 11, 2)

	if len(plan.Comps) != 3 {
		t.Fatalf("components = %d, want 3", len(plan.Comps))
	}
	comp := func(key string) int { return plan.CompOf(g.Lookup(key)) }
	a, b := comp("r0|r1"), comp("r3|r4")
	if comp("r1|r2") != a || comp("r9|r10") != a {
		t.Error("pairs sharing a reference, or joined by an association edge, must share a component")
	}
	if comp("r5|r6") != b || comp("email|u|w") != b {
		t.Error("an aliasable value must join its peers")
	}
	if a == b || comp("r7|r8") == a || comp("r7|r8") == b {
		t.Error("components joined only by a constant must stay apart")
	}
	if comp("title|x|y") != -1 || plan.ValueReplicas != 1 {
		t.Errorf("constant: component %d, %d extra copies; want -1 and 1", comp("title|x|y"), plan.ValueReplicas)
	}

	aud := audit.New(func(*depgraph.Node) float64 { return 0.85 }, true)
	if rep := aud.CheckSharding("test", plan, g); !rep.Ok() {
		t.Fatalf("CheckSharding violations: %v", rep.Violations)
	}

	// Every copy keeps its global node's in- and out-edges in order; a
	// constant's copy keeps the out-edges into its component.
	copies := 0
	g.Nodes(func(n *depgraph.Node) {
		for cid, c := range plan.Comps {
			cp := c.G.Lookup(n.Key())
			if cp == nil {
				continue
			}
			copies++
			var keep func(*depgraph.Node) bool
			if plan.CompOf(n) < 0 {
				keep = func(to *depgraph.Node) bool { return plan.CompOf(to) == cid }
			}
			if got, want := fmt.Sprint(edgeList(inEdges(cp), nil)), fmt.Sprint(edgeList(inEdges(n), nil)); got != want {
				t.Errorf("%s in component %d: in-edges %s, want %s", n.Key(), cid, got, want)
			}
			if got, want := fmt.Sprint(edgeList(outEdges(cp), nil)), fmt.Sprint(edgeList(outEdges(n), keep)); got != want {
				t.Errorf("%s in component %d: out-edges %s, want %s", n.Key(), cid, got, want)
			}
		}
	})
	if copies != g.NodeCount()+1 {
		t.Errorf("copies = %d, want %d (every node once, the constant twice)", copies, g.NodeCount()+1)
	}

	// A graph enrichment has folded in is no longer a fresh build: merging
	// (0,1) folds (1,2) into a new (0,2).
	g.AddRefPair(0, 2, "P")
	g.Run([]*depgraph.Node{g.Lookup("r0|r1")}, depgraph.Options{
		Scorer:         depgraph.ScorerFunc(func(*depgraph.Node) float64 { return 1 }),
		MergeThreshold: func(*depgraph.Node) float64 { return 0.85 },
		Enrich:         true,
	})
	defer func() {
		if recover() == nil {
			t.Error("Split of a graph with removed nodes should panic")
		}
	}()
	shard.Split(g, nil, 11, 2)
}

// planFingerprint renders the scheduling-relevant plan shape.
func planFingerprint(p *shard.Plan) string {
	out := fmt.Sprintf("comps=%d reps=%d groups=%v shardOf=%v weights=[",
		len(p.Comps), p.ValueReplicas, p.Groups, p.ShardOf)
	for _, c := range p.Comps {
		out += fmt.Sprintf("%d ", c.Weight)
	}
	return out + "]"
}

func TestSplitDeterministic(t *testing.T) {
	g1, seed1 := buildGraph()
	g2, seed2 := buildGraph()
	a := shard.Split(g1, seed1, 11, 2)
	b := shard.Split(g2, seed2, 11, 2)
	if planFingerprint(a) != planFingerprint(b) {
		t.Fatalf("same input, different plans:\n  %s\n  %s", planFingerprint(a), planFingerprint(b))
	}
}

func TestGroupingClampsAndCovers(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 16} {
		g, seed := buildGraph()
		plan := shard.Split(g, seed, 11, shards)
		want := shards
		if want > len(plan.Comps) {
			want = len(plan.Comps)
		}
		if len(plan.Groups) != want {
			t.Errorf("shards=%d: groups = %d, want %d", shards, len(plan.Groups), want)
		}
		// Every component appears in exactly one group, consistent with
		// ShardOf.
		seen := make(map[int]bool)
		for s, grp := range plan.Groups {
			for _, cid := range grp {
				if seen[cid] {
					t.Errorf("shards=%d: component %d grouped twice", shards, cid)
				}
				seen[cid] = true
				if plan.ShardOf[cid] != s {
					t.Errorf("shards=%d: ShardOf[%d] = %d, want %d", shards, cid, plan.ShardOf[cid], s)
				}
			}
		}
		if len(seen) != len(plan.Comps) {
			t.Errorf("shards=%d: grouped %d of %d components", shards, len(seen), len(plan.Comps))
		}
	}
}

func TestLargestComponent(t *testing.T) {
	g, seed := buildGraph()
	plan := shard.Split(g, seed, 11, 2)
	max := 0
	for _, c := range plan.Comps {
		if c.Weight > max {
			max = c.Weight
		}
	}
	if got := plan.LargestComponent(); got != max || got == 0 {
		t.Fatalf("LargestComponent = %d, want %d (nonzero)", got, max)
	}
}

// inEdges and outEdges materialize n's edges.
func inEdges(n *depgraph.Node) []depgraph.Edge {
	var out []depgraph.Edge
	n.EachIn(func(e depgraph.Edge) { out = append(out, e) })
	return out
}

func outEdges(n *depgraph.Node) []depgraph.Edge {
	var out []depgraph.Edge
	n.EachOut(func(e depgraph.Edge) { out = append(out, e) })
	return out
}
