package audit_test

import (
	"testing"

	"refrecon/internal/depgraph"
)

// Mutation edge-case tests for the columnar storage layer: each scenario
// drives the graph through a structurally awkward mutation sequence —
// enrichment folds, span relocation, fold rewiring — and then asserts
// the full invariant battery via the auditor's CheckGraph, so a storage
// bug surfaces as a named invariant violation rather than a wrong score.

func enrichOptions() depgraph.Options {
	o := testOptions()
	o.Enrich = true
	return o
}

// TestMutationFoldedPairReAdded removes a node through an enrichment fold,
// then re-adds the same reference pair with fresh evidence in a later
// session batch — exercising the eager reclamation of the packed-pair
// index entry (a stale entry would alias the dead node) across the re-add
// + re-fold cycle.
func TestMutationFoldedPairReAdded(t *testing.T) {
	g := depgraph.New()
	n01 := g.AddRefPair(0, 1, "Person")
	n12 := g.AddRefPair(1, 2, "Person")
	n02 := g.AddRefPair(0, 2, "Person")
	strong := g.AddValuePair("name", "n:a", "n:a2", 0.95)
	weak1 := g.AddValuePair("name", "n:b", "n:b2", 0.3)
	weak2 := g.AddValuePair("name", "n:c", "n:c2", 0.3)
	g.AddEdge(strong, n01, depgraph.RealValued, "name")
	g.AddEdge(weak1, n12, depgraph.RealValued, "name")
	g.AddEdge(weak2, n02, depgraph.RealValued, "name")

	aud := auditorFor()
	g.Run([]*depgraph.Node{n01, n12, n02}, enrichOptions())
	if rep := aud.CheckGraph("run1", g, false); !rep.Ok() {
		t.Fatalf("after first run: %v", rep.Err())
	}
	if n01.Status() != depgraph.Merged {
		t.Fatalf("(0,1) should merge at sim %.2f", n01.Sim())
	}
	if n12.Alive() {
		t.Fatal("(1,2) should have been folded into (0,2)")
	}
	if g.LookupRefPair(1, 2) != nil {
		t.Fatal("dead pair (1,2) must leave the packed-pair index")
	}

	// Later session batch: the same pair arrives again with new evidence.
	// The re-added node must be a fresh live node, and the second run's
	// re-enrichment folds it away again, transferring the new evidence.
	n12b := g.AddRefPair(1, 2, "Person")
	if n12b == n12 || !n12b.Alive() {
		t.Fatal("re-added pair must be a fresh live node")
	}
	fresh := g.AddValuePair("name", "n:d", "n:d2", 0.4)
	g.AddEdge(fresh, n12b, depgraph.RealValued, "name")
	before := n02.InDegree()

	g.Run([]*depgraph.Node{n12b}, enrichOptions())
	if rep := aud.CheckGraph("run2", g, false); !rep.Ok() {
		t.Fatalf("after re-add run: %v", rep.Err())
	}
	if n12b.Alive() {
		t.Fatal("re-added (1,2) should fold into (0,2) again")
	}
	if n02.InDegree() != before+1 {
		t.Fatalf("(0,2) should inherit the new evidence edge: in-degree %d, want %d",
			n02.InDegree(), before+1)
	}
}

// TestMutationEdgeDedupAcrossRelocation grows one node's in-adjacency past
// the inline span capacity so it relocates into the arena's overflow tail,
// then re-adds every earlier edge: each must still be recognized as a
// duplicate (the dedup scan reads the span wherever it now lives, and the
// position columns are span-relative), and new edges must keep inserting
// cleanly.
func TestMutationEdgeDedupAcrossRelocation(t *testing.T) {
	g := depgraph.New()
	m := g.AddRefPair(0, 1, "Person")
	var evs []*depgraph.Node
	for i := 0; i < 7; i++ {
		n := g.AddValuePair("name", "n:x", "n:y"+string(rune('a'+i)), 0.6)
		if !g.AddEdge(n, m, depgraph.RealValued, "name") {
			t.Fatalf("edge %d should be new", i)
		}
		evs = append(evs, n)
	}
	seed := []*depgraph.Node{m}
	aud := auditorFor()
	g.Run(seed, testOptions())
	if rep := aud.CheckGraph("run", g, false); !rep.Ok() {
		t.Fatalf("after run: %v", rep.Err())
	}

	for i, n := range evs {
		if g.AddEdge(n, m, depgraph.RealValued, "name") {
			t.Fatalf("edge %d re-add should be a duplicate after relocation", i)
		}
	}
	if m.InDegree() != 7 {
		t.Fatalf("in-degree %d, want 7", m.InDegree())
	}
	extra := g.AddValuePair("name", "n:x", "n:z", 0.6)
	if !g.AddEdge(extra, m, depgraph.RealValued, "name") {
		t.Fatal("new edge after relocation should insert")
	}
	if rep := aud.CheckGraph("post-mutate", g, false); !rep.Ok() {
		t.Fatalf("after mutations: %v", rep.Err())
	}
}

// TestMutationAggregateAfterFoldEdgeLoss drives a fold that removes a node
// holding an out-edge into a value node: the value node loses an in-edge
// source and gains the rewired one, no dead source may survive in its
// in-span, and CheckGraph's adjacency battery must pass. A follow-up status
// flip on the absorbing node must leave the graph as sound.
func TestMutationAggregateAfterFoldEdgeLoss(t *testing.T) {
	g := depgraph.New()
	n01 := g.AddRefPair(0, 1, "Person")
	n12 := g.AddRefPair(1, 2, "Person")
	n02 := g.AddRefPair(0, 2, "Person")
	strong := g.AddValuePair("name", "n:a", "n:a2", 0.95)
	shared := g.AddValuePair("name", "n:s", "n:s2", 0.3)
	g.AddEdge(strong, n01, depgraph.RealValued, "name")
	// Both directions, like the builder's alias learning: the fold must
	// rewire l's out-edge into shared, costing shared its in-edge from l.
	g.AddEdge(shared, n12, depgraph.RealValued, "name")
	g.AddEdge(n12, shared, depgraph.StrongBoolean, "name")
	g.AddEdge(shared, n02, depgraph.RealValued, "name")

	aud := auditorFor()
	g.Run([]*depgraph.Node{n01, n12, n02}, enrichOptions())
	if rep := aud.CheckGraph("run", g, false); !rep.Ok() {
		t.Fatalf("after run: %v", rep.Err())
	}
	if n12.Alive() {
		t.Fatal("(1,2) should have folded into (0,2)")
	}
	foundRewired := false
	for _, e := range inEdges(shared) {
		if !e.From.Alive() {
			t.Fatalf("dead in-edge source %s survived the fold", e.From.Key())
		}
		if e.From == n02 && e.Dep == depgraph.StrongBoolean {
			foundRewired = true
		}
	}
	if !foundRewired {
		t.Fatal("fold should rewire (1,2)->shared onto (0,2)->shared")
	}

	// Status flip on the absorbing node: shared's evidence is re-read from
	// its in-edges on its next score, so there is nothing to patch.
	g.MarkNonMerge(n02)
	if rep := aud.CheckGraph("post-nonmerge", g, false); !rep.Ok() {
		t.Fatalf("after MarkNonMerge: %v", rep.Err())
	}
}

// inEdges materializes n's incoming edges.
func inEdges(n *depgraph.Node) []depgraph.Edge {
	var out []depgraph.Edge
	n.EachIn(func(e depgraph.Edge) { out = append(out, e) })
	return out
}
