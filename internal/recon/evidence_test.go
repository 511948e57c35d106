package recon

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"refrecon/internal/datagen/catalog"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
)

// attrEvidence renders the attribute evidence hanging under one RefPair
// node — every adjacent value-pair node (evidence label, element keys,
// similarity, merged or not) with the edges that join the two — sorted,
// one line each. Shared-target nodes are association evidence and left
// out.
func attrEvidence(n *depgraph.Node) []string {
	var out []string
	line := func(v *depgraph.Node, dir string, e depgraph.Edge) {
		if v.Kind() != depgraph.ValuePair || v.Class() == "shared" {
			return
		}
		x, y := v.ValueElems()
		out = append(out, fmt.Sprintf("%s|%s|%s sim=%v merged=%v %s %s/%s",
			v.Class(), x, y, v.Sim(), v.Status() == depgraph.Merged, dir, e.Dep, e.Evidence))
	}
	for _, e := range inEdges(n) {
		line(e.From, "in", e)
	}
	for _, e := range outEdges(n) {
		line(e.To, "out", e)
	}
	sort.Strings(out)
	return out
}

// modelFixture builds, over one store, the construction-time graph (right
// after incorporate, before any propagation) and a query host over a
// Matcher fed from the same references in the same order, so both sides
// read identical corpus statistics.
func modelFixture(t *testing.T, sch *schema.Schema, store *reference.Store) (*builder, []*depgraph.Node, *queryHost) {
	t.Helper()
	cfg := DefaultConfig()
	b := newBuilder(store, sch, cfg)
	seed := b.incorporate(store.All())
	sess := New(sch, cfg).NewSession(store)
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(sch, cfg, snap)
	qr := reference.New(sch.Classes()[0].Name)
	return b, seed, newQueryHost(m, qr, m.valueRow(qr))
}

// wireAtQueryTime wires the stored pair (a, b) on an empty graph through
// the collective host, as collective.Resolve does.
func wireAtQueryTime(h *queryHost, a, b reference.ID) (*depgraph.Node, bool) {
	g := depgraph.New()
	n := g.AddRefPair(a, b, h.ClassOf(a))
	return n, h.WireAttrEvidence(g, n, a, b)
}

// assocEdges collects the association edges of a construction-time graph
// as "parentClass <- childClass dep/evidence" (a shared link target counts
// as child class "shared"), and expectedAssocEdges derives from
// queryHost.AssocEvidence alone the edges that graph must and may have.
func assocEdges(g *depgraph.Graph) map[string]bool {
	out := make(map[string]bool)
	g.Nodes(func(n *depgraph.Node) {
		if n.Kind() != depgraph.RefPair {
			return
		}
		for _, e := range inEdges(n) {
			switch {
			case e.From.Kind() == depgraph.RefPair:
				out[fmt.Sprintf("%s <- %s %s/%s", n.Class(), e.From.Class(), e.Dep, e.Evidence)] = true
			case e.From.Class() == "shared":
				out[fmt.Sprintf("%s <- shared %s/%s", n.Class(), e.Dep, e.Evidence)] = true
			}
		}
	})
	return out
}

func expectedAssocEdges(h *queryHost, sch *schema.Schema) (required, allowed map[string]bool) {
	required, allowed = make(map[string]bool), make(map[string]bool)
	for _, c := range sch.Classes() {
		targets := map[string]string{}
		for _, a := range c.AssocAttrs() {
			targets[a.Name] = a.Target
		}
		if c.Name == schema.ClassPerson {
			targets[contactsAttr] = schema.ClassPerson
		}
		for attr, target := range targets {
			ev, dep, back, ok := h.AssocEvidence(c.Name, attr)
			if !ok {
				continue
			}
			required[fmt.Sprintf("%s <- %s %s/%s", c.Name, target, dep, ev)] = true
			// Two pairs need not share a link target anywhere in a corpus.
			allowed[fmt.Sprintf("%s <- shared %s/%s", c.Name, dep, ev)] = true
			if back != "" {
				required[fmt.Sprintf("%s <- %s %s/%s", target, c.Name, depgraph.StrongBoolean, back)] = true
			}
		}
	}
	for k := range required {
		allowed[k] = true
	}
	return required, allowed
}

// TestQueryWiringIsConstructionWiring pins the evidence model rather than
// a copy of it: for every pair the builder kept on PIM-A and on a product
// catalog, wiring the same stored pair at query time yields the same
// value-pair nodes and edges, and the association edges the builder
// created are exactly the ones AssocEvidence describes. The four places
// where query time deliberately differs are asserted as differences:
//
//  1. the evidence floor is not relaxed — construction relaxes it for venue
//     pairs induced by an article pair, so those have nodes to act on; at
//     query time no pair is induced (TestInducedVenueRelaxation);
//  2. no constraint marks a pair non-merge — stored pairs get theirs from
//     the frozen decision, and a partial query is not a description a
//     constraint can be held against;
//  3. no popularity cap drops hyper-popular contacts — the cap is a
//     statistic of the whole population, the expansion has its own budgets;
//  4. a pair without evidence stays — construction prunes it, the
//     expansion may still find association evidence for it.
func TestQueryWiringIsConstructionWiring(t *testing.T) {
	pimA, err := pim.Generate(pim.DatasetA(0.04))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Generate(catalog.Default(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sch   *schema.Schema
		store *reference.Store
	}{
		{"pimA", schema.PIM(), pimA.Store},
		{"catalog", schema.Catalog(), cat.Store},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, seed, h := modelFixture(t, tc.sch, tc.store)
			compared, constrained := 0, 0
			for _, n := range seed {
				if len(inEdges(n))+len(outEdges(n)) == 0 && n.Status() == depgraph.NonMerge {
					continue // a bare co-author constraint node, never compared
				}
				want := attrEvidence(n)
				qn, wired := wireAtQueryTime(h, n.RefA(), n.RefB())
				got := attrEvidence(qn)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pair %s (%s): construction wired\n%v\nquery time wired\n%v", n.Key(), n.Class(), want, got)
				}
				if wired != (len(got) > 0) {
					t.Fatalf("pair %s: WireAttrEvidence = %v with %d value edges", n.Key(), wired, len(got))
				}
				compared++
				if n.Status() == depgraph.NonMerge {
					constrained++
					if qn.Status() == depgraph.NonMerge {
						t.Errorf("pair %s: query-time wiring marked a constraint (difference 2)", n.Key())
					}
				}
			}
			if compared == 0 {
				t.Fatal("no pair compared")
			}
			t.Logf("%d pairs wired identically, %d of them constrained at construction", compared, constrained)

			required, allowed := expectedAssocEdges(h, tc.sch)
			got := assocEdges(b.g)
			if missing, foreign := subtract(keys(required), keys(got)), subtract(keys(got), keys(allowed)); len(missing)+len(foreign) > 0 {
				t.Errorf("association edges: builder has %v; AssocEvidence requires %v (missing) and does not describe %v", keys(got), missing, foreign)
			}

			// Difference 4: a pair construction pruned for lack of evidence
			// wires nothing at query time either, but its node stays.
			if len(b.removed) == 0 {
				t.Fatal("construction pruned no pair; the fixture cannot show difference 4")
			}
			for key := range b.removed {
				a, c := reference.ID(key>>32), reference.ID(uint32(key))
				if qn, wired := wireAtQueryTime(h, a, c); wired || !qn.Alive() {
					t.Fatalf("pruned pair (%d,%d): wired=%v alive=%v at query time", a, c, wired, qn.Alive())
				}
			}

			if tc.name != "pimA" {
				return
			}
			if constrained == 0 {
				t.Error("construction constrained no pair; the fixture cannot show difference 2")
			}
			differencePopularityCap(t, b, h)
		})
	}
}

// TestInducedVenueRelaxation is difference 1 of
// TestQueryWiringIsConstructionWiring. Construction treats a venue pair
// reached through an article pair more leniently than a blocked one: the
// evidence floor drops to 0.05 and the pair survives even with nothing to
// compare. Venue comparisons have no floor today
// (the simfn rows' Floor is 0 for all three), so only the second half
// shows. Query time has one behaviour for every pair: the plain floor.
func TestInducedVenueRelaxation(t *testing.T) {
	if relaxed, plain := evidenceFloor(simfn.ByTitle, true), evidenceFloor(simfn.ByTitle, false); relaxed != 0.05 || plain != simfn.ByTitle.Floor {
		t.Errorf("evidenceFloor(title) = %v relaxed, %v plain", relaxed, plain)
	}
	s := reference.NewStore()
	v1 := reference.New(schema.ClassVenue)
	v1.AddAtomic(schema.AttrName, "VLDB")
	s.Add(v1)
	v2 := reference.New(schema.ClassVenue)
	v2.AddAtomic(schema.AttrYear, "1995")
	s.Add(v2)
	cfg := DefaultConfig()
	b := newBuilder(s, schema.PIM(), cfg)
	vals := b.appendVals(nil, v1, v2)
	if n := b.wireScored(v1, v2, false, vals, b.scoreVals(vals)); n != nil {
		t.Errorf("blocked venue pair with nothing to compare should be pruned, got %s", n.Key())
	}
	if n := newBuilder(s, schema.PIM(), cfg).ensureRefPair(v1, v2); n == nil || !n.Alive() {
		t.Error("induced venue pair with nothing to compare should be kept")
	}
	m, qr := NewMatcher(schema.PIM(), cfg, snapshotOf(t, s, cfg)), reference.New(schema.ClassVenue)
	h := newQueryHost(m, qr, m.valueRow(qr))
	if qn, wired := wireAtQueryTime(h, v1.ID, v2.ID); wired || !qn.Alive() {
		t.Errorf("query time: wired=%v alive=%v, want nothing wired and the node kept", wired, qn.Alive())
	}
}

// differencePopularityCap asserts difference 3 on PIM-A: some contact is
// listed by more persons than construction's popularity cap allows, so no
// person pair has its shared node as contact evidence in the builder's
// graph, while EachAssoc still hands it to the expansion.
func differencePopularityCap(t *testing.T, b *builder, h *queryHost) {
	t.Helper()
	persons := b.store.ByClass(schema.ClassPerson)
	listers := make(map[reference.ID][]reference.ID)
	for _, id := range persons {
		for _, c := range contactsOf(b.store.Get(id)) {
			listers[c] = append(listers[c], id)
		}
	}
	var popular reference.ID = -1
	for c, ls := range listers {
		if popular < 0 || len(ls) > len(listers[popular]) || (len(ls) == len(listers[popular]) && c < popular) {
			popular = c
		}
	}
	if popCap := len(persons) / 50; popular < 0 || len(listers[popular]) <= popCap || len(listers[popular]) <= 12 {
		t.Fatal("no contact exceeds construction's popularity cap; the fixture cannot show difference 3")
	}
	if n := b.g.Lookup("shared|r:" + fmt.Sprint(popular) + "|r:" + fmt.Sprint(popular)); n != nil {
		for _, e := range outEdges(n) {
			if e.Evidence == simfn.EvContact {
				t.Errorf("construction wired capped contact %d as contact evidence for %s", popular, e.To.Key())
			}
		}
	}
	found := false
	h.EachAssoc(listers[popular][0], func(attr string, targets []reference.ID) {
		for _, c := range targets {
			found = found || (attr == contactsAttr && c == popular)
		}
	})
	if !found {
		t.Errorf("EachAssoc(%d) dropped contact %d; query time applies no popularity cap", listers[popular][0], popular)
	}
}

func subtract(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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
