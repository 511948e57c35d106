package indepdec

import (
	"testing"

	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func person(s *reference.Store, name, email string) reference.ID {
	r := reference.New(schema.ClassPerson)
	r.AddAtomic(schema.AttrName, name)
	r.AddAtomic(schema.AttrEmail, email)
	return s.Add(r)
}

func reconcile(t *testing.T, s *reference.Store, cfg recon.Config) *recon.Result {
	t.Helper()
	res, err := recon.New(schema.PIM(), cfg).Reconcile(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAttrWiseMerges(t *testing.T) {
	s := reference.NewStore()
	a := person(s, "Michael Stonebraker", "")
	b := person(s, "Stonebraker, M.", "")
	c := person(s, "Jennifer Widom", "")
	d := person(s, "", "widom@stanford.edu")
	e := person(s, "", "widom@stanford.edu")

	full1 := person(s, "Jeffrey Naughton", "")
	full2 := person(s, "Jeffrey Naughton", "")

	res := reconcile(t, s, Config())
	if !res.SameEntity(full1, full2) {
		t.Error("identical full names should merge attribute-wise")
	}
	// A surname plus a bare initial is ambiguous and sits just below the
	// merge threshold: this is exactly the recall gap that DepGraph's
	// association evidence closes (Table 3's PArticle subset).
	if res.SameEntity(a, b) {
		t.Error("abbreviated name alone should NOT merge attribute-wise")
	}
	if !res.SameEntity(d, e) {
		t.Error("identical email key should merge")
	}
	if res.SameEntity(a, c) {
		t.Error("unrelated names must not merge")
	}
	// The baseline cannot exploit cross-attribute evidence: a name-only
	// reference and an email-only reference share nothing comparable.
	if res.SameEntity(c, d) {
		t.Error("IndepDec must not merge name-only with email-only references")
	}
	if res.Stats.CandidatePairs == 0 {
		t.Error("expected candidate pairs")
	}
}

func TestNoAssociationEvidence(t *testing.T) {
	// Two venue references with dissimilar names must not merge even when
	// linked from identical articles — IndepDec ignores associations.
	s := reference.NewStore()
	v1 := reference.New(schema.ClassVenue)
	v1.AddAtomic(schema.AttrName, "ACM SIGMOD")
	id1 := s.Add(v1)
	v2 := reference.New(schema.ClassVenue)
	v2.AddAtomic(schema.AttrName, "International Conference on Data Engineering")
	id2 := s.Add(v2)
	for i := 0; i < 2; i++ {
		a := reference.New(schema.ClassArticle)
		a.AddAtomic(schema.AttrTitle, "The exact same title appearing twice")
		a.AddAssoc(schema.AttrPublishedIn, reference.ID(i))
		s.Add(a)
	}
	res := reconcile(t, s, Config())
	if res.SameEntity(id1, id2) {
		t.Error("venues must not merge without name similarity")
	}
	if got := res.PartitionCount(schema.ClassArticle); got != 1 {
		t.Errorf("identical titles should merge: %d partitions", got)
	}
}

func TestTransitiveClosure(t *testing.T) {
	s := reference.NewStore()
	a := person(s, "", "x@y.edu")
	person(s, "Alice Cooper", "x@y.edu")
	c := person(s, "Alice Cooper", "")
	res := reconcile(t, s, Config())
	// a~b via email key, b~c via name: closure joins a and c.
	if !res.SameEntity(a, c) {
		t.Error("transitive closure should join a and c")
	}
	if res.PartitionCount(schema.ClassPerson) != 1 {
		t.Errorf("partitions = %d, want 1", res.PartitionCount(schema.ClassPerson))
	}
}

// TestWorkerCountInvariance: the parallel pair scoring must yield
// identical partitions regardless of worker count.
func TestWorkerCountInvariance(t *testing.T) {
	s := reference.NewStore()
	seedNames := []string{
		"Jennifer Widom", "Widom, J.", "Hector Garcia-Molina",
		"Garcia-Molina, H.", "Rakesh Agrawal", "Agrawal, R.",
		"Jeff Ullman", "Jeffrey Ullman", "Moshe Vardi", "Serge Abiteboul",
	}
	for i, n := range seedNames {
		r := reference.New(schema.ClassPerson)
		r.AddAtomic(schema.AttrName, n)
		if i%2 == 0 {
			r.AddAtomic(schema.AttrEmail, "u"+string(rune('a'+i))+"@x.edu")
		}
		s.Add(r)
	}
	canonical := func(workers int) string {
		cfg := Config()
		cfg.Workers = workers
		res := reconcile(t, s, cfg)
		out := ""
		for i := 0; i < s.Len(); i++ {
			for j := i + 1; j < s.Len(); j++ {
				if res.SameEntity(reference.ID(i), reference.ID(j)) {
					out += "1"
				} else {
					out += "0"
				}
			}
		}
		return out
	}
	base := canonical(1)
	for _, w := range []int{2, 4, 8, 0} {
		if got := canonical(w); got != base {
			t.Fatalf("workers=%d changed the result", w)
		}
	}
}

func TestInvalidStoreRejected(t *testing.T) {
	s := reference.NewStore()
	s.Add(reference.New("Nope"))
	if _, err := recon.New(schema.PIM(), Config()).Reconcile(s); err == nil {
		t.Error("invalid store should be rejected")
	}
}
