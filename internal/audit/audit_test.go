package audit_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"refrecon/internal/audit"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
)

// maxInScore is a minimal scorer over a fresh scan of the in-edges: a ref
// pair scores the max of its live real-valued evidence, a value pair keeps
// its construction score until a strong-boolean source merges.
func maxInScore(n *depgraph.Node) float64 {
	best, strong := 0.0, false
	n.EachIn(func(e depgraph.Edge) {
		switch {
		case e.Dep == depgraph.StrongBoolean && e.From.Status() == depgraph.Merged:
			strong = true
		case e.Dep == depgraph.RealValued && e.From.Status() != depgraph.NonMerge && e.From.Sim() > best:
			best = e.From.Sim()
		}
	})
	if n.Kind() == depgraph.ValuePair {
		if strong {
			return 1
		}
		return n.Sim()
	}
	return best
}

func testOptions() depgraph.Options {
	return depgraph.Options{
		Scorer: depgraph.ScorerFunc(maxInScore),
		MergeThreshold: func(n *depgraph.Node) float64 {
			if n.Kind() == depgraph.ValuePair {
				return 1
			}
			return 0.7
		},
		Epsilon:   1e-9,
		Propagate: true,
		Enrich:    false,
		MaxSteps:  1_000_000,
	}
}

func auditorFor() *audit.Auditor {
	return audit.New(testOptions().MergeThreshold, false)
}

// buildGraph wires three person pairs: (0,1) with strong name evidence
// (merges), (2,3) with weak evidence (stays below threshold), and (4,5)
// marked non-merge.
func buildGraph(t *testing.T) (*depgraph.Graph, []*depgraph.Node) {
	t.Helper()
	g := depgraph.New()
	n01 := g.AddRefPair(0, 1, "Person")
	v1 := g.AddValuePair("name", "ann", "anne", 0.95)
	g.AddEdge(v1, n01, depgraph.RealValued, "name")

	n23 := g.AddRefPair(2, 3, "Person")
	v2 := g.AddValuePair("name", "bob", "rob", 0.4)
	g.AddEdge(v2, n23, depgraph.RealValued, "name")

	n45 := g.AddRefPair(4, 5, "Person")
	v3 := g.AddValuePair("name", "eve", "eva", 0.8)
	g.AddEdge(v3, n45, depgraph.RealValued, "name")
	g.MarkNonMerge(n45)

	g.Run([]*depgraph.Node{n01, n23, n45}, testOptions())
	if n01.Status() != depgraph.Merged {
		t.Fatalf("setup: expected (0,1) merged, got %v", n01.Status())
	}
	return g, []*depgraph.Node{n01, n23, n45}
}

func wantViolation(t *testing.T, r *audit.Report, check string) {
	t.Helper()
	for _, v := range r.Violations {
		if v.Check == check {
			return
		}
	}
	t.Fatalf("expected a %q violation, got %v", check, r.Violations)
}

func TestCleanGraphPasses(t *testing.T) {
	g, _ := buildGraph(t)
	a := auditorFor()
	for _, phase := range []string{"build", "propagate"} {
		r := a.CheckGraph(phase, g, false)
		if err := r.Err(); err != nil {
			t.Fatalf("phase %s: %v", phase, err)
		}
		if r.Checks == 0 {
			t.Fatalf("phase %s: no checks evaluated", phase)
		}
	}
	if a.TotalChecks == 0 {
		t.Fatal("TotalChecks not accumulated")
	}
}

func TestSimRangeViolations(t *testing.T) {
	for name, bad := range map[string]float64{"nan": math.NaN(), "above-one": 1.5, "negative": -0.25} {
		t.Run(name, func(t *testing.T) {
			g, nodes := buildGraph(t)
			nodes[1].SetSim(bad)
			r := auditorFor().CheckGraph("corrupt", g, false)
			wantViolation(t, r, "graph/sim-range")
		})
	}
}

func TestMergedBelowThreshold(t *testing.T) {
	g, nodes := buildGraph(t)
	g.MarkMerged(nodes[1]) // sim 0.4 < 0.7 threshold
	r := auditorFor().CheckGraph("corrupt", g, false)
	wantViolation(t, r, "graph/merged-below-threshold")
}

func TestNonMergeSimViolation(t *testing.T) {
	g, nodes := buildGraph(t)
	nodes[2].SetSim(0.3) // non-merge nodes are frozen at 0
	r := auditorFor().CheckGraph("corrupt", g, false)
	wantViolation(t, r, "graph/nonmerge-sim")
}

func TestCrossPhaseMonotonicity(t *testing.T) {
	g, nodes := buildGraph(t)
	a := auditorFor()
	if err := a.CheckGraph("propagate", g, false).Err(); err != nil {
		t.Fatal(err)
	}
	nodes[0].SetSim(0.8) // regression from 0.95
	r := a.CheckGraph("next", g, false)
	wantViolation(t, r, "graph/sim-monotone")
}

func TestMergedNeverDemoted(t *testing.T) {
	g, nodes := buildGraph(t)
	a := auditorFor()
	if err := a.CheckGraph("propagate", g, false).Err(); err != nil {
		t.Fatal(err)
	}
	nodes[0].SetStatus(depgraph.Active)
	r := a.CheckGraph("next", g, false)
	wantViolation(t, r, "graph/merged-demoted")

	// The truncated escape hatch must suppress exactly this check.
	g2, nodes2 := buildGraph(t)
	a2 := auditorFor()
	a2.CheckGraph("propagate", g2, false)
	nodes2[0].SetStatus(depgraph.Active)
	if r := a2.CheckGraph("next", g2, true); !r.Ok() {
		for _, v := range r.Violations {
			if v.Check == "graph/merged-demoted" {
				t.Fatalf("truncated run still flagged demotion: %v", v)
			}
		}
	}
}

func TestNonMergeRevoked(t *testing.T) {
	g, nodes := buildGraph(t)
	a := auditorFor()
	if err := a.CheckGraph("propagate", g, false).Err(); err != nil {
		t.Fatal(err)
	}
	nodes[2].SetStatus(depgraph.Inactive)
	r := a.CheckGraph("next", g, false)
	wantViolation(t, r, "graph/nonmerge-revoked")
}

func partitionFixture(t *testing.T) (*reference.Store, *depgraph.Graph, map[string][][]reference.ID, map[reference.ID]int) {
	t.Helper()
	store := reference.NewStore()
	for i := 0; i < 6; i++ {
		store.Add(reference.New("Person").AddAtomic("name", "p"))
	}
	g, _ := buildGraph(t)
	partitions := map[string][][]reference.ID{
		"Person": {{0, 1}, {2}, {3}, {4}, {5}},
	}
	assignment := map[reference.ID]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
	return store, g, partitions, assignment
}

func TestCleanPartitionPasses(t *testing.T) {
	store, g, parts, assign := partitionFixture(t)
	a := auditorFor()
	if err := a.CheckPartitionNodes("closure", store, g.Nodes, parts, assign).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionViolations(t *testing.T) {
	t.Run("coverage", func(t *testing.T) {
		store, g, parts, assign := partitionFixture(t)
		parts["Person"] = parts["Person"][:4] // drop reference 5
		delete(assign, 5)
		r := auditorFor().CheckPartitionNodes("closure", store, g.Nodes, parts, assign)
		wantViolation(t, r, "partition/coverage")
	})
	t.Run("overlap", func(t *testing.T) {
		store, g, parts, assign := partitionFixture(t)
		parts["Person"] = append(parts["Person"], []reference.ID{1})
		r := auditorFor().CheckPartitionNodes("closure", store, g.Nodes, parts, assign)
		wantViolation(t, r, "partition/overlap")
	})
	t.Run("class-mix", func(t *testing.T) {
		store, g, parts, assign := partitionFixture(t)
		parts["Article"] = [][]reference.ID{{5}}
		parts["Person"] = parts["Person"][:4]
		r := auditorFor().CheckPartitionNodes("closure", store, g.Nodes, parts, assign)
		wantViolation(t, r, "partition/class-mix")
	})
	t.Run("assignment-disagrees", func(t *testing.T) {
		store, g, parts, assign := partitionFixture(t)
		assign[1] = 7
		r := auditorFor().CheckPartitionNodes("closure", store, g.Nodes, parts, assign)
		wantViolation(t, r, "partition/assignment")
	})
	t.Run("merge-dropped", func(t *testing.T) {
		store, g, parts, assign := partitionFixture(t)
		parts["Person"] = [][]reference.ID{{0}, {1}, {2}, {3}, {4}, {5}}
		assign[0], assign[1] = 0, 5
		r := auditorFor().CheckPartitionNodes("closure", store, g.Nodes, parts, assign)
		wantViolation(t, r, "partition/merge-dropped")
	})
	t.Run("constraint-violated", func(t *testing.T) {
		store, g, parts, assign := partitionFixture(t)
		parts["Person"] = [][]reference.ID{{0, 1}, {2}, {3}, {4, 5}}
		assign[5] = assign[4]
		a := audit.New(testOptions().MergeThreshold, true)
		r := a.CheckPartitionNodes("closure", store, g.Nodes, parts, assign)
		wantViolation(t, r, "partition/constraint")
	})
}

func TestCheckSuperset(t *testing.T) {
	base := map[reference.ID]int{0: 0, 1: 0, 2: 1, 3: 2}
	refined := map[reference.ID]int{0: 9, 1: 9, 2: 9, 3: 4}
	if err := checkSuperset("diff", base, refined).Err(); err != nil {
		t.Fatalf("merge-preserving refinement flagged: %v", err)
	}
	split := map[reference.ID]int{0: 1, 1: 2, 2: 3, 3: 4}
	r := checkSuperset("diff", base, split)
	wantViolation(t, r, "refine/split")
	missing := map[reference.ID]int{0: 1}
	wantViolation(t, checkSuperset("diff", base, missing), "refine/missing-ref")
}

func TestReportErr(t *testing.T) {
	g, nodes := buildGraph(t)
	nodes[0].SetSim(math.NaN())
	err := auditorFor().CheckGraph("corrupt", g, false).Err()
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "graph/sim-range") || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error lacks context: %v", err)
	}
}

// checkSuperset reports the references the base run placed together that
// the refined run separates or lacks: the refined merges must be a
// superset of the base merges. Each base partition must map to a single
// refined label.
func checkSuperset(phase string, base, refined map[reference.ID]int) *audit.Report {
	r := &audit.Report{Phase: phase}
	first := make(map[int]reference.ID) // base label -> first member the refined run has
	for id, g := range base {
		r.Checks++
		lab, ok := refined[id]
		if !ok {
			r.Violations = append(r.Violations, audit.Violation{Check: "refine/missing-ref",
				Detail: fmt.Sprintf("reference %d absent from refined assignment", id)})
			continue
		}
		f, seen := first[g]
		if !seen {
			first[g] = id
		} else if refined[f] != lab {
			r.Violations = append(r.Violations, audit.Violation{Check: "refine/split",
				Detail: fmt.Sprintf("references %d and %d merged in base but split in refined run", f, id)})
		}
	}
	return r
}
