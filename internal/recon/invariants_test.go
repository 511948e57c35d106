package recon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"refrecon/internal/datagen/pim"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
)

// TestPartitionInvariants checks the structural laws of any reconciliation
// result on a generated dataset: partitions are disjoint, cover every
// reference, and never mix classes; SameEntity agrees with Partitions.
func TestPartitionInvariants(t *testing.T) {
	g, err := pim.Generate(pim.DatasetB(0.05))
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(schema.PIM(), DefaultConfig()).Reconcile(g.Store)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[reference.ID]bool)
	total := 0
	for class, parts := range res.Partitions {
		for _, part := range parts {
			if len(part) == 0 {
				t.Fatal("empty partition")
			}
			for _, id := range part {
				if seen[id] {
					t.Fatalf("reference %d in two partitions", id)
				}
				seen[id] = true
				total++
				if got := g.Store.Get(id).Class; got != class {
					t.Fatalf("reference %d of class %s filed under %s", id, got, class)
				}
			}
			for _, id := range part {
				if !res.SameEntity(part[0], id) {
					t.Fatal("SameEntity disagrees with Partitions")
				}
			}
		}
	}
	if total != g.Store.Len() {
		t.Fatalf("partitions cover %d of %d references", total, g.Store.Len())
	}
}

// TestPermutationInsensitivity reconciles the same logical references
// inserted in different orders: the pairwise decisions must not depend on
// insertion order.
func TestPermutationInsensitivity(t *testing.T) {
	type spec struct {
		name, email string
	}
	specs := []spec{
		{"Jennifer Widom", "widom@stanford.edu"},
		{"Widom, J.", ""},
		{"", "widom@stanford.edu"},
		{"Hector Garcia-Molina", "hector@stanford.edu"},
		{"Garcia-Molina, H.", "hector@stanford.edu"},
		{"Serge Abiteboul", "serge@inria.fr"},
		{"Abiteboul, S.", "serge@inria.fr"},
		{"Victor Vianu", "vianu@ucsd.edu"},
		{"Moshe Vardi", "vardi@rice.edu"},
		{"Vardi, M.", ""},
	}
	decide := func(perm []int) map[[2]int]bool {
		s := reference.NewStore()
		pos := make([]reference.ID, len(specs))
		for _, idx := range perm {
			r := reference.New(schema.ClassPerson)
			r.AddAtomic(schema.AttrName, specs[idx].name)
			r.AddAtomic(schema.AttrEmail, specs[idx].email)
			pos[idx] = s.Add(r)
		}
		res, err := New(schema.PIM(), DefaultConfig()).Reconcile(s)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[[2]int]bool)
		for i := range specs {
			for j := i + 1; j < len(specs); j++ {
				out[[2]int{i, j}] = res.SameEntity(pos[i], pos[j])
			}
		}
		return out
	}
	identity := make([]int, len(specs))
	for i := range identity {
		identity[i] = i
	}
	base := decide(identity)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		perm := rng.Perm(len(specs))
		got := decide(perm)
		for k, v := range base {
			if got[k] != v {
				t.Fatalf("trial %d: decision for pair %v changed with insertion order", trial, k)
			}
		}
	}
}

// TestReconcileSurvivesGarbage feeds adversarial attribute values — empty
// strings, control characters, enormous tokens, lone punctuation — and
// requires reconciliation to complete without panicking.
func TestReconcileSurvivesGarbage(t *testing.T) {
	f := func(names [8]string, emails [8]string) bool {
		s := reference.NewStore()
		for i := range names {
			r := reference.New(schema.ClassPerson)
			r.AddAtomic(schema.AttrName, names[i])
			r.AddAtomic(schema.AttrEmail, emails[i])
			s.Add(r)
		}
		// A reference with no attributes at all.
		s.Add(reference.New(schema.ClassPerson))
		res, err := New(schema.PIM(), DefaultConfig()).Reconcile(s)
		if err != nil {
			return false
		}
		n := 0
		for _, parts := range res.Partitions {
			for _, p := range parts {
				n += len(p)
			}
		}
		return n == s.Len()
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestEmptyStore reconciles nothing.
func TestEmptyStore(t *testing.T) {
	res, err := New(schema.PIM(), DefaultConfig()).Reconcile(reference.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 0 {
		t.Errorf("assignment = %v", res.Assignment)
	}
}

// TestSingleReference yields one singleton partition.
func TestSingleReference(t *testing.T) {
	s := reference.NewStore()
	r := reference.New(schema.ClassPerson)
	r.AddAtomic(schema.AttrName, "Only One")
	s.Add(r)
	res, err := New(schema.PIM(), DefaultConfig()).Reconcile(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PartitionCount(schema.ClassPerson); got != 1 {
		t.Errorf("partitions = %d", got)
	}
}

// TestFullModeReachesFixedPoint verifies the §3.2 convergence promise end
// to end: after a Full-mode run, rescoring any node must not raise its
// similarity (beyond the re-activation epsilon).
func TestFullModeReachesFixedPoint(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.04))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	b := newBuilder(g.Store, schema.PIM(), cfg)
	graph, seed := b.g, b.incorporate(g.Store.All())
	scorer := &simfn.Scorer{Rows: b.scores}
	graph.Run(seed, depgraph.Options{
		Scorer:         scorer,
		MergeThreshold: mergeThreshold,
		Propagate:      true,
		Enrich:         true,
	})
	if bad := checkFixedPoint(graph, scorer, 1e-6); len(bad) != 0 {
		for i, n := range bad {
			if i == 5 {
				break
			}
			t.Logf("violation: %v would rescore to %f", n, scorer.Score(n))
		}
		t.Fatalf("%d nodes not at fixed point", len(bad))
	}
}

// TestEvidenceLevelGating checks that lower evidence levels really omit
// their evidence: Attr-wise builds no cross name/email value nodes, and
// both attribute-only levels (Attr-wise, Name&Email) wire no association
// edge of any class — the baseline's cell compares attribute values and
// nothing else — while Article adds the article associations and Contact
// the contact edges.
func TestEvidenceLevelGating(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.03))
	if err != nil {
		t.Fatal(err)
	}
	// count returns the cross name/email value nodes and the edges per
	// evidence label.
	count := func(ev EvidenceLevel) (cross int, edges map[string]int) {
		cfg := DefaultConfig()
		cfg.Evidence = ev
		b := newBuilder(g.Store, schema.PIM(), cfg)
		b.incorporate(g.Store.All())
		edges = make(map[string]int)
		b.g.Nodes(func(n *depgraph.Node) {
			if n.Kind() == depgraph.ValuePair && n.Class() == simfn.EvNameEmail {
				cross++
			}
			for _, e := range outEdges(n) {
				edges[e.Evidence]++
			}
		})
		return cross, edges
	}
	assoc := []string{simfn.EvAuthors, simfn.EvVenue, simfn.EvArticle, simfn.EvContact}
	for _, ev := range []EvidenceLevel{EvidenceAttrWise, EvidenceNameEmail, EvidenceArticle, EvidenceContact} {
		cross, edges := count(ev)
		if (cross > 0) != (ev >= EvidenceNameEmail) {
			t.Errorf("%s: %d cross name/email value nodes", ev, cross)
		}
		for _, label := range assoc {
			want := ev >= EvidenceArticle && (label != simfn.EvContact || ev >= EvidenceContact)
			if (edges[label] > 0) != want {
				t.Errorf("%s: %d %q edges, want them present: %v", ev, edges[label], label, want)
			}
		}
	}
}

// TestModesAllTerminate runs every mode/evidence combination on a small
// dataset and requires clean termination without step-cap truncation.
func TestModesAllTerminate(t *testing.T) {
	g, err := pim.Generate(pim.DatasetC(0.03))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeFull, ModeTraditional, ModePropagation, ModeMerge} {
		for _, ev := range []EvidenceLevel{EvidenceAttrWise, EvidenceNameEmail, EvidenceArticle, EvidenceContact} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Evidence = ev
			res, err := New(schema.PIM(), cfg).Reconcile(g.Store)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, ev, err)
			}
			if res.Stats.Engine.Truncated {
				t.Errorf("%s/%s hit the step cap", mode, ev)
			}
		}
	}
}

// checkFixedPoint returns the live, unconstrained nodes whose similarity
// would rise by more than eps if rescored: none at §3.2's fixed point.
func checkFixedPoint(g *depgraph.Graph, scorer depgraph.Scorer, eps float64) []*depgraph.Node {
	var bad []*depgraph.Node
	g.Nodes(func(n *depgraph.Node) {
		if n.Status() != depgraph.NonMerge && min(scorer.Score(n), 1) > n.Sim()+eps {
			bad = append(bad, n)
		}
	})
	return bad
}
