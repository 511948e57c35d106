package recon

import (
	"testing"

	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
)

// contactsOf returns the union of a person's co-author and email-contact
// links, deduplicated, in stable order.
func contactsOf(r *reference.Reference) []reference.ID {
	return contactRule.targets(r)
}

func personRef(s *reference.Store, name, email string) *reference.Reference {
	r := reference.New(schema.ClassPerson)
	r.AddAtomic(schema.AttrName, name)
	r.AddAtomic(schema.AttrEmail, email)
	s.Add(r)
	return r
}

func collectKeys(r *reference.Reference) map[string]bool {
	out := make(map[string]bool)
	blockingKeys(r, func(k string) { out[k] = true })
	return out
}

func TestPersonBlockingKeys(t *testing.T) {
	s := reference.NewStore()
	r := personRef(s, "Michael Stonebraker", "stonebraker@csail.mit.edu")
	keys := collectKeys(r)
	for _, want := range []string{
		"pe:stonebraker@csail.mit.edu", // exact account
		"pl:stonebraker",               // account token AND surname cross key
		"pn:stonebraker",               // surname
		"pl:mstonebraker",              // initial+surname fusion
		"pfn:michael",                  // formal given name
	} {
		if !keys[want] {
			t.Errorf("missing key %q in %v", want, keys)
		}
	}
}

func TestPersonBlockingKeysNickname(t *testing.T) {
	s := reference.NewStore()
	r := personRef(s, "mike", "mike@x.edu")
	keys := collectKeys(r)
	if !keys["pl:michael"] {
		t.Errorf("nickname should expand to formal key: %v", keys)
	}
}

func TestBlockingBridgesNameAndEmailRefs(t *testing.T) {
	// A name-only reference and an email-only reference of the same person
	// must share a candidate key, or Name&Email evidence can never fire.
	s := reference.NewStore()
	nameOnly := personRef(s, "Stonebraker, M.", "")
	emailOnly := personRef(s, "", "stonebraker@csail.mit.edu")
	k1 := collectKeys(nameOnly)
	k2 := collectKeys(emailOnly)
	shared := false
	for k := range k1 {
		if k2[k] {
			shared = true
		}
	}
	if !shared {
		t.Errorf("no shared blocking key between %v and %v", k1, k2)
	}
}

func TestVenueBlockingAcronymBridge(t *testing.T) {
	s := reference.NewStore()
	v1 := reference.New(schema.ClassVenue)
	v1.AddAtomic(schema.AttrName, "VLDB")
	s.Add(v1)
	v2 := reference.New(schema.ClassVenue)
	v2.AddAtomic(schema.AttrName, "Very Large Data Bases")
	s.Add(v2)
	k1 := collectKeys(v1)
	k2 := collectKeys(v2)
	if !k1["va:vldb"] || !k2["va:vldb"] {
		t.Errorf("acronym keys missing: %v / %v", k1, k2)
	}
}

func TestEnsureRefPairPrunesNoEvidence(t *testing.T) {
	s := reference.NewStore()
	r1 := personRef(s, "Alice Johnson", "")
	r2 := personRef(s, "Zoltan Brachnik", "")
	b := newBuilder(s, schema.PIM(), DefaultConfig())
	if n := b.ensureRefPair(r1, r2); n != nil {
		t.Errorf("dissimilar pair should be pruned, got %v", n)
	}
	// A pruned pair is decided before it is built: it never takes a row.
	if n := b.ensureRefPair(r1, r2); n != nil {
		t.Error("pruned pair resurrected")
	}
	if b.g.NodeIDBound() != 0 {
		t.Errorf("graph should be empty, has %d node rows", b.g.NodeIDBound())
	}
}

func TestEnsureRefPairRejectsMixedClasses(t *testing.T) {
	s := reference.NewStore()
	p := personRef(s, "Alice Johnson", "")
	v := reference.New(schema.ClassVenue)
	v.AddAtomic(schema.AttrName, "SIGMOD")
	s.Add(v)
	b := newBuilder(s, schema.PIM(), DefaultConfig())
	if n := b.ensureRefPair(p, v); n != nil {
		t.Error("cross-class pair created")
	}
	if n := b.ensureRefPair(p, p); n != nil {
		t.Error("self pair created")
	}
}

func TestPersonConstraintSameServer(t *testing.T) {
	s := reference.NewStore()
	r1 := personRef(s, "Jane Doe", "jane@cs.example.edu")
	r2 := personRef(s, "Jane Doe", "jdoe@cs.example.edu")
	b := newBuilder(s, schema.PIM(), DefaultConfig())
	n := b.ensureRefPair(r1, r2)
	if n == nil {
		t.Fatal("pair should exist (same names)")
	}
	if n.Status() != depgraph.NonMerge {
		t.Errorf("constraint 3 (one account per server) should mark non-merge, got %v", n.Status())
	}
}

func TestPersonConstraintSharedEmailOverrides(t *testing.T) {
	// Sharing an exact address beats constraint 2's name incompatibility.
	s := reference.NewStore()
	r1 := personRef(s, "Jane Smith", "j@x.edu")
	r2 := personRef(s, "Jane Rodriguez", "j@x.edu") // married-name style
	b := newBuilder(s, schema.PIM(), DefaultConfig())
	n := b.ensureRefPair(r1, r2)
	if n == nil {
		t.Fatal("pair should exist")
	}
	if n.Status() == depgraph.NonMerge {
		t.Error("shared email key must override the name constraint")
	}
}

func TestPersonConstraintIncompatibleNames(t *testing.T) {
	s := reference.NewStore()
	r1 := personRef(s, "Matt Stonebraker", "")
	r2 := personRef(s, "Michael Stonebraker", "")
	b := newBuilder(s, schema.PIM(), DefaultConfig())
	n := b.ensureRefPair(r1, r2)
	if n == nil {
		t.Fatal("pair should exist (same surname)")
	}
	if n.Status() != depgraph.NonMerge {
		t.Errorf("constraint 2 should mark non-merge, got %v", n.Status())
	}
}

func TestVenueConstraintIncompatibleYears(t *testing.T) {
	s := reference.NewStore()
	v1 := reference.New(schema.ClassVenue)
	v1.AddAtomic(schema.AttrName, "SIGMOD")
	v1.AddAtomic(schema.AttrYear, "1993")
	s.Add(v1)
	v2 := reference.New(schema.ClassVenue)
	v2.AddAtomic(schema.AttrName, "SIGMOD")
	v2.AddAtomic(schema.AttrYear, "2001")
	s.Add(v2)
	v3 := reference.New(schema.ClassVenue)
	v3.AddAtomic(schema.AttrName, "SIGMOD")
	v3.AddAtomic(schema.AttrYear, "1994")
	s.Add(v3)

	b := newBuilder(s, schema.PIM(), DefaultConfig())
	far := b.ensureRefPair(v1, v2)
	if far == nil || far.Status() != depgraph.NonMerge {
		t.Errorf("editions 8 years apart must be non-merge: %v", far)
	}
	near := b.ensureRefPair(v1, v3)
	if near == nil || near.Status() == depgraph.NonMerge {
		t.Errorf("adjacent years tolerate citation noise: %v", near)
	}
}

func TestConstraintsDisabled(t *testing.T) {
	// With constraints off, the Matt/Michael pair has no comparable
	// evidence (the name comparator scores contradictions near zero), so
	// it is simply pruned — "a non-merge node is different from a
	// non-existing node" (§3.4): absence still allows transitive merging,
	// whereas the constraint node actively blocks it.
	s := reference.NewStore()
	r1 := personRef(s, "Matt Stonebraker", "")
	r2 := personRef(s, "Michael Stonebraker", "")
	cfg := DefaultConfig()
	cfg.Constraints = false
	b := newBuilder(s, schema.PIM(), cfg)
	if n := b.ensureRefPair(r1, r2); n != nil {
		t.Errorf("pair without evidence should be pruned when unconstrained: %v", n)
	}
}

func TestCoAuthorConstraintAddsNodes(t *testing.T) {
	s := reference.NewStore()
	p1 := personRef(s, "Li, W.", "")
	p2 := personRef(s, "Li, W.", "") // same presentation, distinct authors
	a := reference.New(schema.ClassArticle)
	a.AddAtomic(schema.AttrTitle, "Some title")
	a.AddAssoc(schema.AttrAuthoredBy, p1.ID)
	a.AddAssoc(schema.AttrAuthoredBy, p2.ID)
	s.Add(a)

	b := newBuilder(s, schema.PIM(), DefaultConfig())
	b.incorporate(s.All())
	n := b.g.LookupRefPair(p1.ID, p2.ID)
	if n == nil {
		t.Fatal("co-author pair node should exist (constraints add nodes)")
	}
	if n.Status() != depgraph.NonMerge {
		t.Errorf("authors of one paper are distinct: %v", n.Status())
	}
}

func TestSeedOrderClassRank(t *testing.T) {
	// Person/venue pairs must precede article pairs in the seed, per
	// §3.2's computation-order heuristic.
	s := reference.NewStore()
	p1 := personRef(s, "Eugene Wong", "")
	p2 := personRef(s, "Wong, E.", "")
	mk := func(title string, author reference.ID) {
		a := reference.New(schema.ClassArticle)
		a.AddAtomic(schema.AttrTitle, title)
		a.AddAssoc(schema.AttrAuthoredBy, author)
		s.Add(a)
	}
	mk("Decomposition strategies for query processing", p1.ID)
	mk("Decomposition strategies for query processing", p2.ID)

	b := newBuilder(s, schema.PIM(), DefaultConfig())
	seed := b.incorporate(s.All())
	sawArticle := false
	for _, n := range seed {
		if n.Class() == schema.ClassArticle {
			sawArticle = true
		}
		if sawArticle && n.Class() != schema.ClassArticle {
			t.Fatal("article pair seeded before a lower-rank pair")
		}
	}
	if !sawArticle {
		t.Fatal("no article pair in seed")
	}
}

func TestContactsOfUnion(t *testing.T) {
	s := reference.NewStore()
	r := reference.New(schema.ClassPerson)
	r.AddAssoc(schema.AttrCoAuthor, 5)
	r.AddAssoc(schema.AttrCoAuthor, 6)
	r.AddAssoc(schema.AttrEmailContact, 6)
	r.AddAssoc(schema.AttrEmailContact, 7)
	s.Add(r)
	got := contactsOf(r)
	if len(got) != 3 {
		t.Errorf("contactsOf = %v, want union of size 3", got)
	}
}

func TestGenericComparisons(t *testing.T) {
	c := &schema.Class{Name: "Widget", Attrs: []schema.Attribute{
		{Name: "label", Kind: schema.Atomic},
		{Name: "sku", Kind: schema.Atomic},
		{Name: "rel", Kind: schema.Association, Target: "Widget"},
	}}
	cmps := genericComparisons(c)
	if len(cmps) != 2 {
		t.Fatalf("comparisons = %v", cmps)
	}
	for _, cmp := range cmps {
		if cmp.attrA != cmp.attrB || cmp.swap {
			t.Errorf("generic comparison malformed: %+v", cmp)
		}
	}
}

func TestBuilderLibraryStats(t *testing.T) {
	s := reference.NewStore()
	personRef(s, "Ming Yuan", "")
	personRef(s, "Ling Yuan", "")
	personRef(s, "Michael Stonebraker", "")
	b := newBuilder(s, schema.PIM(), DefaultConfig())
	b.incorporate(s.All()) // library statistics are collected during incorporation
	if r := b.lib.NameRarity("", "yuan"); r >= 1 {
		t.Errorf("shared surname should not be fully identifying: %f", r)
	}
	if r := b.lib.NameRarity("", "stonebraker"); r != 1 {
		t.Errorf("unique surname rarity = %f", r)
	}
	_ = simfn.EvName // keep import for clarity of intent
}
