package recon

import (
	"testing"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// buildExample1 constructs the references of Figure 1(b). The returned ids
// follow the paper's numbering: index 0..1 are articles a1,a2; 2..10 are
// persons p1..p9; 11..12 are venues c1,c2.
func buildExample1() (*reference.Store, map[string]reference.ID) {
	s := reference.NewStore()
	ids := make(map[string]reference.ID)

	person := func(label, name, email string) *reference.Reference {
		r := reference.New(schema.ClassPerson)
		r.AddAtomic(schema.AttrName, name)
		r.AddAtomic(schema.AttrEmail, email)
		ids[label] = s.Add(r)
		return r
	}
	p1 := person("p1", "Robert S. Epstein", "")
	p2 := person("p2", "Michael Stonebraker", "")
	p3 := person("p3", "Eugene Wong", "")
	p4 := person("p4", "Epstein, R.S.", "")
	p5 := person("p5", "Stonebraker, M.", "")
	p6 := person("p6", "Wong, E.", "")
	p7 := person("p7", "Eugene Wong", "eugene@berkeley.edu")
	p8 := person("p8", "", "stonebraker@csail.mit.edu")
	person("p9", "mike", "stonebraker@csail.mit.edu")

	coauthors := func(rs ...*reference.Reference) {
		for _, a := range rs {
			for _, b := range rs {
				if a != b {
					a.AddAssoc(schema.AttrCoAuthor, b.ID)
				}
			}
		}
	}
	coauthors(p1, p2, p3)
	coauthors(p4, p5, p6)
	p7.AddAssoc(schema.AttrEmailContact, p8.ID)
	p8.AddAssoc(schema.AttrEmailContact, p7.ID)

	venue := func(label, name, year, location string) *reference.Reference {
		r := reference.New(schema.ClassVenue)
		r.AddAtomic(schema.AttrName, name)
		r.AddAtomic(schema.AttrYear, year)
		r.AddAtomic(schema.AttrLocation, location)
		ids[label] = s.Add(r)
		return r
	}
	c1 := venue("c1", "ACM Conference on Management of Data", "1978", "Austin, Texas")
	c2 := venue("c2", "ACM SIGMOD", "1978", "")

	article := func(label, title, pages string, authors []*reference.Reference, v *reference.Reference) {
		r := reference.New(schema.ClassArticle)
		r.AddAtomic(schema.AttrTitle, title)
		r.AddAtomic(schema.AttrPages, pages)
		for _, a := range authors {
			r.AddAssoc(schema.AttrAuthoredBy, a.ID)
		}
		r.AddAssoc(schema.AttrPublishedIn, v.ID)
		ids[label] = s.Add(r)
	}
	const title = "Distributed query processing in a relational data base system"
	article("a1", title, "169-180", []*reference.Reference{p1, p2, p3}, c1)
	article("a2", title, "169-180", []*reference.Reference{p4, p5, p6}, c2)

	return s, ids
}

// TestExample1FullReconciliation checks the headline example of the paper:
// the full DepGraph algorithm must produce exactly the partitions of
// Figure 1(c).
func TestExample1FullReconciliation(t *testing.T) {
	store, ids := buildExample1()
	rc := New(schema.PIM(), DefaultConfig())
	res, err := rc.Reconcile(store)
	if err != nil {
		t.Fatal(err)
	}

	wantTogether := [][]string{
		{"a1", "a2"},
		{"p1", "p4"},
		{"p2", "p5", "p8", "p9"},
		{"p3", "p6", "p7"},
		{"c1", "c2"},
	}
	for _, group := range wantTogether {
		for i := 1; i < len(group); i++ {
			if !res.SameEntity(ids[group[0]], ids[group[i]]) {
				t.Errorf("%s and %s should be reconciled", group[0], group[i])
			}
		}
	}
	// Cross-group pairs must stay apart.
	for gi, g1 := range wantTogether {
		for gj, g2 := range wantTogether {
			if gi >= gj {
				continue
			}
			if res.SameEntity(ids[g1[0]], ids[g2[0]]) {
				t.Errorf("%s and %s must not be reconciled", g1[0], g2[0])
			}
		}
	}
	if got := res.PartitionCount(schema.ClassPerson); got != 3 {
		t.Errorf("person partitions = %d, want 3", got)
	}
	if got := res.PartitionCount(schema.ClassArticle); got != 1 {
		t.Errorf("article partitions = %d, want 1", got)
	}
	if got := res.PartitionCount(schema.ClassVenue); got != 1 {
		t.Errorf("venue partitions = %d, want 1", got)
	}
}

// TestExample1TraditionalMisses: without propagation and enrichment the
// hard cases (p5~p8 via a contact merge; c1~c2 via the article merge) must
// fail, which is exactly why the paper's mechanisms exist.
func TestExample1TraditionalMisses(t *testing.T) {
	store, ids := buildExample1()
	cfg := DefaultConfig()
	cfg.Mode = ModeTraditional
	res, err := New(schema.PIM(), cfg).Reconcile(store)
	if err != nil {
		t.Fatal(err)
	}
	if res.SameEntity(ids["c1"], ids["c2"]) {
		t.Error("traditional mode should not reconcile the venues")
	}
	// The easy attribute-wise merges still happen.
	if !res.SameEntity(ids["p8"], ids["p9"]) {
		t.Error("email key merge must work in any mode")
	}
	if !res.SameEntity(ids["p1"], ids["p4"]) {
		t.Error("name abbreviation merge must work in any mode")
	}
}

// TestExample1ConstraintScenario is the §3.4 example: with p9 named "Matt"
// the constraint machinery must keep p9 out of the Stonebraker cluster
// even though it shares p8's email address... p8 and p9 still merge (email
// key), but the merged pair must not join p2/p5 because "Matt" contradicts
// "Michael".
func TestExample1ConstraintScenario(t *testing.T) {
	store, ids := buildExample1()
	// Rename p9 to Matt.
	p9 := store.Get(ids["p9"])
	*p9 = *renamed(p9, "Matt")

	cfg := DefaultConfig()
	res, err := New(schema.PIM(), cfg).Reconcile(store)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SameEntity(ids["p8"], ids["p9"]) {
		t.Error("p8 and p9 share an email key and must merge")
	}
	if res.SameEntity(ids["p2"], ids["p9"]) {
		t.Error("constraints must keep Matt out of the Michael Stonebraker cluster")
	}
}

// renamed clones a person reference with a different name, keeping other
// attributes and associations.
func renamed(r *reference.Reference, name string) *reference.Reference {
	clone := reference.New(r.Class)
	clone.ID = r.ID
	clone.Source = r.Source
	clone.Entity = r.Entity
	clone.AddAtomic(schema.AttrName, name)
	for _, attr := range r.AtomicAttrs() {
		if attr == schema.AttrName {
			continue
		}
		for _, v := range r.Atomic(attr) {
			clone.AddAtomic(attr, v)
		}
	}
	for _, attr := range r.AssocAttrs() {
		for _, id := range r.Assoc(attr) {
			clone.AddAssoc(attr, id)
		}
	}
	return clone
}

func TestReconcileRejectsInvalidStore(t *testing.T) {
	s := reference.NewStore()
	s.Add(reference.New("Martian"))
	if _, err := New(schema.PIM(), DefaultConfig()).Reconcile(s); err == nil {
		t.Error("invalid store should be rejected")
	}
}

func TestModeAndEvidenceStrings(t *testing.T) {
	if ModeFull.String() != "Full" || ModeTraditional.String() != "Traditional" ||
		ModePropagation.String() != "Propagation" || ModeMerge.String() != "Merge" {
		t.Error("mode strings wrong")
	}
	if EvidenceAttrWise.String() != "Attr-wise" || EvidenceNameEmail.String() != "Name&Email" ||
		EvidenceArticle.String() != "Article" || EvidenceContact.String() != "Contact" {
		t.Error("evidence strings wrong")
	}
	for e := EvidenceAttrWise; e <= EvidenceContact; e++ {
		if got, err := ParseEvidenceLevel(e.String()); err != nil || got != e {
			t.Errorf("ParseEvidenceLevel(%q) = %v, %v", e.String(), got, err)
		}
	}
	for flag, want := range map[string]EvidenceLevel{"attr": EvidenceAttrWise, "NameEmail": EvidenceNameEmail, "article": EvidenceArticle, "contact": EvidenceContact} {
		if got, err := ParseEvidenceLevel(flag); err != nil || got != want {
			t.Errorf("ParseEvidenceLevel(%q) = %v, %v", flag, got, err)
		}
	}
	if _, err := ParseEvidenceLevel("everything"); err == nil {
		t.Error("unknown evidence level should error")
	}
}
