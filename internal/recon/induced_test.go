package recon

import (
	"context"
	"testing"

	"refrecon/internal/datagen/biblio"
	"refrecon/internal/datagen/cora"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// inducedStores are the corpora the induced-path tests build: PIM A
// (person/article association-heavy) and Cora (citation-shaped), small.
func inducedStores(t *testing.T) map[string]*reference.Store {
	t.Helper()
	a, err := pim.Generate(pim.DatasetA(0.03))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cora.Generate(cora.Default(0.05))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*reference.Store{"pimA": a.Store, "cora": c.Store}
}

// TestBuildLeavesNoDeadRows: construction decides a pair before it builds
// it, so a pruned pair never takes a node row and every row a build leaves
// is live.
func TestBuildLeavesNoDeadRows(t *testing.T) {
	for name, store := range inducedStores(t) {
		p, err := New(schema.PIM(), DefaultConfig()).BuildRetained(store)
		if err != nil {
			t.Fatal(err)
		}
		g := p.s.g
		if g.NodeIDBound() != g.NodeCount() {
			t.Errorf("%s: %d node rows for %d live nodes", name, g.NodeIDBound(), g.NodeCount())
		}
		if in := p.s.b.induced; in.memoHits == 0 || in.evaluated == 0 {
			t.Errorf("%s: induced requests %+v; the memo was never exercised", name, in)
		}
	}
}

// bareFromScratch restates the verdict an induced request for (r1, r2)
// must reach, without the builder's memo or buffers: the pair is bare when
// its row does not keep induced pairs, no constraint holds, and no value
// comparison reaches its comparator's floor.
func bareFromScratch(b *builder, r1, r2 *reference.Reference) bool {
	row := b.row(r1.Class)
	if row.keepInduced || b.cfg.Constraints && row.constrained != nil && row.constrained(b, r1, r2) {
		return false
	}
	for _, v := range b.appendVals(nil, r1, r2) {
		if b.compare(v) >= b.cmps[v.row].by.Floor {
			return false
		}
	}
	return true
}

// checkUnbuiltTargetsBare is the oracle for the bare memo: every
// association target pair of a batch's nodes that has no node after the
// build, and that the wire stage did not tombstone, is bare when decided
// from scratch under the same library statistics. It returns how many
// such pairs it checked.
func checkUnbuiltTargetsBare(t *testing.T, b *builder, seed []*depgraph.Node) int {
	t.Helper()
	checked := 0
	for _, m := range seed {
		r1, r2 := b.store.Get(m.RefA()), b.store.Get(m.RefB())
		for _, rule := range b.row(m.Class()).assoc {
			if rule.pool != nil {
				continue
			}
			for _, a1 := range r1.Assoc(rule.attr) {
				for _, a2 := range r2.Assoc(rule.attr) {
					if a1 == a2 || b.g.LookupRefPair(a1, a2) != nil {
						continue
					}
					if _, tombstoned := b.removed[pairIndex(a1, a2)]; tombstoned {
						continue
					}
					checked++
					if t1, t2 := b.store.Get(a1), b.store.Get(a2); !bareFromScratch(b, t1, t2) {
						t.Fatalf("target pair (%d, %d) of %s has no node but is not bare: %v / %v", a1, a2, m.Key(), t1, t2)
					}
				}
			}
		}
	}
	return checked
}

// TestUnbuiltInducedPairsAreBare runs the oracle after a one-shot build of
// each corpus and after the build of every commit of a three-batch biblio
// session, where the memo is cleared between batches. Each session build
// also holds only its own batch's tombstones: every one involves a
// reference of the batch.
func TestUnbuiltInducedPairsAreBare(t *testing.T) {
	for name, store := range inducedStores(t) {
		p, err := New(schema.PIM(), DefaultConfig()).BuildRetained(store)
		if err != nil {
			t.Fatal(err)
		}
		if checkUnbuiltTargetsBare(t, p.s.b, p.seed) == 0 {
			t.Errorf("%s: no unbuilt target pair to check", name)
		}
	}

	gen, err := biblio.Generate(biblio.Default(600, 3))
	if err != nil {
		t.Fatal(err)
	}
	src := gen.Store
	cuts := validCuts(src)
	var chosen []int
	for _, c := range cuts {
		if len(chosen) < 2 && c >= (len(chosen)+1)*src.Len()/3 {
			chosen = append(chosen, c)
		}
	}
	if len(chosen) != 2 {
		t.Fatalf("no two self-contained cuts in %d refs", src.Len())
	}
	chosen = append(chosen, src.Len())
	store := reference.NewStore()
	sess := New(schema.PIM(), DefaultConfig()).NewSession(store)
	next := 0
	for _, cut := range chosen {
		start := next
		for ; next < cut; next++ {
			store.Add(cloneRef(src.Get(reference.ID(next))))
		}
		seed, _, err := sess.build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if checkUnbuiltTargetsBare(t, sess.b, seed) == 0 {
			t.Errorf("batch ending at %d: no unbuilt target pair to check", cut)
		}
		if len(sess.b.removed) == 0 {
			t.Errorf("batch ending at %d: no tombstone to check", cut)
		}
		for key := range sess.b.removed {
			if b := int(uint32(key)); b < start {
				t.Errorf("batch [%d, %d) holds tombstone (%d, %d) of an earlier batch", start, cut, key>>32, b)
			}
		}
		if _, err := sess.finish(context.Background(), seed, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// inducedPersons adds persons with the given names, no email, and returns
// them.
func inducedPersons(s *reference.Store, names ...string) []*reference.Reference {
	var out []*reference.Reference
	for _, n := range names {
		out = append(out, personRef(s, n, ""))
	}
	return out
}

// TestBareMemoKeyIsOrdered: a verdict is memoised under the ordered
// signature pair, because enumeration, and so a comparator without
// symmetry, reads the two references in request order. The reverse order is
// decided afresh; a second pair with the same values in the same order is a
// memo hit.
func TestBareMemoKeyIsOrdered(t *testing.T) {
	s := reference.NewStore()
	p := inducedPersons(s, "Alice Johnson", "Zoltan Brachnik", "Alice Johnson", "Zoltan Brachnik")
	b := newBuilder(s, schema.PIM(), DefaultConfig())
	for _, req := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
		if n := b.ensureRefPair(p[req[0]], p[req[1]]); n != nil {
			t.Fatalf("request %v: dissimilar pair built", req)
		}
	}
	if in := b.induced; in.evaluated != 2 || in.memoHits != 2 || in.kept != 0 {
		t.Errorf("induced requests %+v, want 2 evaluated (one per order) and 2 memo hits", in)
	}
	if b.g.NodeIDBound() != 0 {
		t.Errorf("bare pairs took %d node rows", b.g.NodeIDBound())
	}
}

// TestBareMemoLivesOneBatch: the memo is cleared at every incorporate,
// because the library statistics a verdict read grow between batches. A
// batch that induces a bare signature pair of an earlier batch decides it
// again.
func TestBareMemoLivesOneBatch(t *testing.T) {
	s := reference.NewStore()
	article := func(author *reference.Reference) {
		r := reference.New(schema.ClassArticle)
		r.AddAtomic(schema.AttrTitle, "Query processing in main memory databases")
		r.AddAssoc(schema.AttrAuthoredBy, author.ID)
		s.Add(r)
	}
	p := inducedPersons(s, "Alice Johnson", "Zoltan Brachnik")
	article(p[0])
	article(p[1])
	b := newBuilder(s, schema.PIM(), DefaultConfig())
	b.incorporate(s.All())
	if in := b.induced; in.evaluated != 1 || in.kept != 0 {
		t.Fatalf("batch 1 induced %+v; want the one author pair, bare", in)
	}

	// The new article pairs with the first one and induces the same
	// (Alice, Zoltan) request; with the second it shares its author.
	first := s.Len()
	article(p[1])
	b.incorporate(s.All()[first:])
	if in := b.induced; in.memoHits != 0 || in.evaluated != 1 || in.kept != 0 {
		t.Errorf("batch 2 induced %+v; want the author pair decided afresh", in)
	}
}

// TestValueSignature: two references share a signature exactly when they
// have the same class and the same values under every atomic attribute.
func TestValueSignature(t *testing.T) {
	s := reference.NewStore()
	mk := func(class string, attrs ...string) *reference.Reference {
		r := reference.New(class)
		for i := 0; i+1 < len(attrs); i += 2 {
			r.AddAtomic(attrs[i], attrs[i+1])
		}
		s.Add(r)
		return r
	}
	base := []string{"name", "Jane Doe", "email", "jane@x.edu", "phone", "555"}
	ref := mk(schema.ClassPerson, base...)
	twin := mk(schema.ClassPerson, base...)
	var differ []*reference.Reference
	for i := 1; i < len(base); i += 2 {
		v := append([]string(nil), base...)
		v[i] += "!"
		differ = append(differ, mk(schema.ClassPerson, v...))
		differ = append(differ, mk(schema.ClassPerson, append(v[:i-1:i-1], v[i+1:]...)...))
	}
	differ = append(differ,
		mk(schema.ClassVenue, base...),
		mk(schema.ClassPerson, append(base, "email", "jd@x.edu")...),
		mk(schema.ClassPerson, "name", "Jane Doe", "email", "jane@x.edu", "phone", "55", "phone", "5"),
	)
	b := newBuilder(s, schema.PIM(), DefaultConfig())
	if b.sigOf(ref) != b.sigOf(twin) {
		t.Error("equal values, different signatures")
	}
	seen := map[uint32]*reference.Reference{b.sigOf(ref): ref}
	for _, r := range differ {
		if prev, dup := seen[b.sigOf(r)]; dup {
			t.Errorf("%v and %v share signature %d", r, prev, b.sigOf(r))
		}
		seen[b.sigOf(r)] = r
	}
}
