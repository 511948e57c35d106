package recon

import (
	"fmt"
	"slices"
	"testing"

	"refrecon/internal/datagen/cora"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// nestedPooled is wirePooled's two contact passes as nested probe loops
// over the full products: the definition the join in rowHits must
// reproduce edge for edge, in creation order.
func nestedPooled(b *builder) func(string, *assocRule, []*depgraph.Node, *contactIndex) {
	return func(class string, rule *assocRule, fresh []*depgraph.Node, ci *contactIndex) {
		listers, popCap := ci.listers, ci.popCap
		for _, n := range fresh {
			if n.Class() != class || !n.Alive() {
				continue
			}
			if len(listers[n.RefA()]) > popCap || len(listers[n.RefB()]) > popCap {
				continue
			}
			for _, r1 := range listers[n.RefA()] {
				for _, r2 := range listers[n.RefB()] {
					if r1 == r2 || r1 == n.RefA() || r1 == n.RefB() || r2 == n.RefA() || r2 == n.RefB() {
						continue
					}
					if m := b.g.LookupRefPair(r1, r2); m != nil && m != n {
						b.g.AddEdge(n, m, rule.dep, rule.evidence)
					}
				}
			}
		}
		for _, m := range fresh {
			if m.Class() != class || !m.Alive() {
				continue
			}
			c1s := rule.targets(b.store.Get(m.RefA()))
			c2s := rule.targets(b.store.Get(m.RefB()))
			for _, c1 := range c1s {
				if len(listers[c1]) > popCap {
					continue
				}
				for _, c2 := range c2s {
					if len(listers[c2]) > popCap {
						continue
					}
					if c1 == c2 {
						b.g.AddEdge(b.g.SharedTarget(c1), m, rule.dep, rule.evidence)
						continue
					}
					if c1 == m.RefA() || c1 == m.RefB() || c2 == m.RefA() || c2 == m.RefB() {
						continue
					}
					if n := b.g.LookupRefPair(c1, c2); n != nil && n != m {
						b.g.AddEdge(n, m, rule.dep, rule.evidence)
					}
				}
			}
		}
	}
}

// edgeSeq lists a graph's edges in creation order.
func edgeSeq(g *depgraph.Graph) []string {
	var out []string
	g.Edges(func(e depgraph.Edge) {
		out = append(out, fmt.Sprintf("%s>%s %v %s", e.From.Key(), e.To.Key(), e.Dep, e.Evidence))
	})
	return out
}

// sameEdges fails the test at the first edge where two creation-order
// sequences part.
func sameEdges(t *testing.T, label string, join, nested []string) {
	t.Helper()
	for i := range min(len(join), len(nested)) {
		if join[i] != nested[i] {
			t.Fatalf("%s: edge %d is %s under the join, %s under the nested loop", label, i, join[i], nested[i])
		}
	}
	if len(join) != len(nested) {
		t.Fatalf("%s: %d edges under the join, %d under the nested loop", label, len(join), len(nested))
	}
}

// TestContactJoinMatchesNestedLoop builds the graph of generated corpora
// twice, with the contact join and with the nested loops, and requires the
// identical creation-order edge sequence, which is what fixes the engine's
// adjacency and activation order.
func TestContactJoinMatchesNestedLoop(t *testing.T) {
	gp, err := pim.Generate(pim.DatasetA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	gc, err := cora.Generate(cora.Default(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		store *reference.Store
	}{{"PIM-A", gp.Store}, {"Cora", gc.Store}} {
		join := newBuilder(c.store, schema.PIM(), DefaultConfig())
		join.incorporate(c.store.All())
		nested := newBuilder(c.store, schema.PIM(), DefaultConfig())
		nested.pooled = nestedPooled(nested)
		nested.incorporate(c.store.All())
		sameEdges(t, c.name, edgeSeq(join.g), edgeSeq(nested.g))
		if join.probes == 0 {
			t.Errorf("%s: the contact join probed nothing", c.name)
		}
	}
}

// contactStore is a hand store of persons named by letter whose contacts
// are given as letter strings (coAuthor, then emailContact).
type contactStore struct {
	s  *reference.Store
	id map[string]reference.ID
}

func newContactStore(names ...string) *contactStore {
	cs := &contactStore{s: reference.NewStore(), id: map[string]reference.ID{}}
	for _, n := range names {
		cs.id[n] = personRef(cs.s, "Person "+n, "").ID
	}
	return cs
}

func (cs *contactStore) ids(names ...string) []reference.ID {
	out := make([]reference.ID, len(names))
	for i, n := range names {
		out[i] = cs.id[n]
	}
	return out
}

func (cs *contactStore) contacts(name, attr string, targets ...string) {
	for _, id := range cs.ids(targets...) {
		cs.s.Get(cs.id[name]).AddAssoc(attr, id)
	}
}

// wire builds a builder holding the given pair nodes, in order, and runs
// the pooled contact rule over the fresh ones as one batch.
func (cs *contactStore) wire(existing, fresh [][2]string, nested bool) *builder {
	b := newBuilder(cs.s, schema.PIM(), DefaultConfig())
	if nested {
		b.pooled = nestedPooled(b)
	}
	for _, p := range existing {
		b.g.AddRefPair(cs.id[p[0]], cs.id[p[1]], schema.ClassPerson)
	}
	var nodes []*depgraph.Node
	for _, p := range fresh {
		nodes = append(nodes, b.g.AddRefPair(cs.id[p[0]], cs.id[p[1]], schema.ClassPerson))
	}
	rules := b.row(schema.ClassPerson).assoc
	i := slices.IndexFunc(rules, func(r assocRule) bool { return r.pool != nil })
	b.wirePooled(schema.ClassPerson, &rules[i], nodes)
	return b
}

// TestContactJoinCases runs the join and the nested loops over a hand
// store that reaches every case of the forward pass for the fresh pair
// (A, B): A's admitted contacts S, B, W, Q against B's Y1, S, Y2, Y3, B.
//   - S is a shared contact, and a walked row (pair degree 2 < 5) whose
//     pairs were added out of position order;
//   - B is one of the pair's own references: its row holds only the shared
//     contact edge, which B listing itself makes fire;
//   - H is listed by fourteen persons, over the cap of twelve: no edge;
//   - W is walked too, and its pair (W, B) ends at a reference of the pair;
//   - Q has pair degree 5 = len(c2s), so it keeps the probe loop.
//
// The fresh (S, Y3) takes the inverse pass: A and B list S and Y3.
func TestContactJoinCases(t *testing.T) {
	names := []string{"A", "B", "C", "D", "S", "W", "Q", "H", "Y1", "Y2", "Y3", "Z1", "Z2", "Z3"}
	var fillers []string
	for i := range 12 {
		fillers = append(fillers, fmt.Sprintf("F%d", i))
	}
	cs := newContactStore(append(names, fillers...)...)
	cs.contacts("A", schema.AttrCoAuthor, "S", "B", "W", "Q", "H")
	cs.contacts("B", schema.AttrCoAuthor, "Y1", "S", "Y2", "Y3", "H")
	cs.contacts("B", schema.AttrEmailContact, "B")
	cs.contacts("C", schema.AttrCoAuthor, "S", "Q")
	cs.contacts("D", schema.AttrCoAuthor, "Y1", "S")
	for _, f := range fillers {
		cs.contacts(f, schema.AttrCoAuthor, "H")
	}
	existing := [][2]string{
		{"S", "Y1"}, {"W", "Y2"}, {"W", "B"},
		{"Q", "Y3"}, {"Q", "Y1"}, {"Q", "Z1"}, {"Q", "Z2"}, {"Q", "Z3"},
	}
	fresh := [][2]string{{"A", "B"}, {"C", "D"}, {"S", "Y3"}}
	join, nested := cs.wire(existing, fresh, false), cs.wire(existing, fresh, true)
	sameEdges(t, "hand store", edgeSeq(join.g), edgeSeq(nested.g))

	// The cases are reached: the edges into (A, B) in creation order.
	key := func(x, y string) string { return join.g.LookupRefPair(cs.id[x], cs.id[y]).Key() }
	shared := func(x string) string { return fmt.Sprintf("shared|r:%d|r:%d", cs.id[x], cs.id[x]) }
	var into []string
	for _, e := range inEdges(join.g.LookupRefPair(cs.id["A"], cs.id["B"])) {
		into = append(into, e.From.Key())
	}
	want := []string{
		key("S", "Y3"),              // the inverse pass of the fresh (S, Y3)
		key("S", "Y1"), shared("S"), // row S, walked and sorted; (S, Y3) dedupes
		shared("B"),                    // row B: a reference of the pair, shared contact only
		key("W", "Y2"),                 // row W, walked; (W, B) ends at B
		key("Q", "Y1"), key("Q", "Y3"), // row Q, probed
	}
	if !slices.Equal(into, want) {
		t.Errorf("edges into (A, B) = %v, want %v", into, want)
	}
}

// TestContactJoinProbes: the join's work for a fresh pair is bounded by
// its contacts' pair degrees, not by the product of the two contact
// lists. A and B list twenty contacts each; only two of the 400 contact
// pairs exist.
func TestContactJoinProbes(t *testing.T) {
	var names []string
	for i := range 20 {
		names = append(names, fmt.Sprintf("X%d", i), fmt.Sprintf("Y%d", i))
	}
	cs := newContactStore(append(names, "A", "B")...)
	for i := range 20 {
		cs.contacts("A", schema.AttrCoAuthor, fmt.Sprintf("X%d", i))
		cs.contacts("B", schema.AttrCoAuthor, fmt.Sprintf("Y%d", i))
	}
	b := cs.wire([][2]string{{"X3", "Y7"}, {"X3", "Y2"}}, [][2]string{{"A", "B"}}, false)
	bound := 0
	for _, c1 := range b.store.Get(cs.id["A"]).Assoc(schema.AttrCoAuthor) {
		bound += min(b.g.RefPairDegree(c1), 20)
	}
	if b.probes > bound || bound >= 20*20 {
		t.Errorf("%d probes, want at most %d (the contacts' pair degrees; the product is %d)", b.probes, bound, 20*20)
	}
	if n := len(inEdges(b.g.LookupRefPair(cs.id["A"], cs.id["B"]))); n != 2 {
		t.Errorf("(A, B) has %d contact edges, want 2", n)
	}
}
