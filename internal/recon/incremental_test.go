package recon

import (
	"testing"

	"refrecon/internal/obs"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// TestSessionIncrementalExample1 replays Example 1 in two increments: the
// bibliography first, then the email-extracted references. The final
// partitions must match Figure 1(c), just as the batch run does.
func TestSessionIncrementalExample1(t *testing.T) {
	store := reference.NewStore()
	ids := make(map[string]reference.ID)

	person := func(label, name, email string) *reference.Reference {
		r := reference.New(schema.ClassPerson)
		r.AddAtomic(schema.AttrName, name)
		r.AddAtomic(schema.AttrEmail, email)
		ids[label] = store.Add(r)
		return r
	}
	coauthors := func(rs ...*reference.Reference) {
		for _, a := range rs {
			for _, b := range rs {
				if a != b {
					a.AddAssoc(schema.AttrCoAuthor, b.ID)
				}
			}
		}
	}

	// Round 1: the two citations.
	p1 := person("p1", "Robert S. Epstein", "")
	p2 := person("p2", "Michael Stonebraker", "")
	p3 := person("p3", "Eugene Wong", "")
	p4 := person("p4", "Epstein, R.S.", "")
	p5 := person("p5", "Stonebraker, M.", "")
	p6 := person("p6", "Wong, E.", "")
	coauthors(p1, p2, p3)
	coauthors(p4, p5, p6)
	venue := func(label, name, year, location string) *reference.Reference {
		r := reference.New(schema.ClassVenue)
		r.AddAtomic(schema.AttrName, name)
		r.AddAtomic(schema.AttrYear, year)
		r.AddAtomic(schema.AttrLocation, location)
		ids[label] = store.Add(r)
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
		ids[label] = store.Add(r)
	}
	const title = "Distributed query processing in a relational data base system"
	article("a1", title, "169-180", []*reference.Reference{p1, p2, p3}, c1)
	article("a2", title, "169-180", []*reference.Reference{p4, p5, p6}, c2)

	sess := New(schema.PIM(), DefaultConfig()).NewSession(store)
	res1, err := sess.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !res1.SameEntity(ids["a1"], ids["a2"]) || !res1.SameEntity(ids["c1"], ids["c2"]) {
		t.Fatal("round 1 should reconcile the two citations and their venues")
	}
	if !res1.SameEntity(ids["p2"], ids["p5"]) {
		t.Fatal("round 1 should reconcile the Stonebraker author mentions")
	}

	// Round 2: the email world arrives.
	p7 := person("p7", "Eugene Wong", "eugene@berkeley.edu")
	p8 := person("p8", "", "stonebraker@csail.mit.edu")
	person("p9", "mike", "stonebraker@csail.mit.edu")
	p7.AddAssoc(schema.AttrEmailContact, p8.ID)
	p8.AddAssoc(schema.AttrEmailContact, p7.ID)

	res2, err := sess.Reconcile()
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
			if !res2.SameEntity(ids[group[0]], ids[group[i]]) {
				t.Errorf("incremental: %s and %s should be reconciled", group[0], group[i])
			}
		}
	}
	for gi, g1 := range wantTogether {
		for gj, g2 := range wantTogether {
			if gi < gj && res2.SameEntity(ids[g1[0]], ids[g2[0]]) {
				t.Errorf("incremental: %s and %s must not be reconciled", g1[0], g2[0])
			}
		}
	}
	if sess.latest != res2 {
		t.Error("Latest should return the newest result")
	}
}

// TestSessionMatchesBatch compares an incremental two-round run against a
// batch run on identical data: the pairwise decisions should agree almost
// everywhere (enrichment ordering may differ on the margin).
func TestSessionMatchesBatch(t *testing.T) {
	build := func() (*reference.Store, []reference.ID) {
		s := reference.NewStore()
		var ids []reference.ID
		add := func(name, email string) {
			r := reference.New(schema.ClassPerson)
			r.AddAtomic(schema.AttrName, name)
			r.AddAtomic(schema.AttrEmail, email)
			ids = append(ids, s.Add(r))
		}
		add("Jennifer Widom", "widom@stanford.edu")
		add("Widom, J.", "")
		add("Jennifer Widom", "")
		add("Hector Garcia-Molina", "hector@stanford.edu")
		add("Garcia-Molina, H.", "hector@stanford.edu")
		add("Rakesh Agrawal", "ragrawal@almaden.ibm.com")
		add("Agrawal, R.", "ragrawal@almaden.ibm.com")
		add("Jeff Ullman", "ullman@stanford.edu")
		add("Jeffrey Ullman", "ullman@stanford.edu")
		add("Moshe Vardi", "vardi@rice.edu")
		return s, ids
	}

	batchStore, ids := build()
	batch, err := New(schema.PIM(), DefaultConfig()).Reconcile(batchStore)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the same data on a fresh store, reconciling midway through.
	incStore := reference.NewStore()
	src, _ := build()
	sess := New(schema.PIM(), DefaultConfig()).NewSession(incStore)
	for i, r := range src.All() {
		clone := reference.New(r.Class)
		clone.AddAtomic(schema.AttrName, r.FirstAtomic(schema.AttrName))
		clone.AddAtomic(schema.AttrEmail, r.FirstAtomic(schema.AttrEmail))
		incStore.Add(clone)
		if i == 4 {
			if _, err := sess.Reconcile(); err != nil {
				t.Fatal(err)
			}
		}
	}
	inc, err := sess.Reconcile()
	if err != nil {
		t.Fatal(err)
	}

	agree, total := 0, 0
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			total++
			if batch.SameEntity(ids[i], ids[j]) == inc.SameEntity(ids[i], ids[j]) {
				agree++
			}
		}
	}
	if agree != total {
		t.Errorf("incremental agrees with batch on %d/%d pairs", agree, total)
	}
}

// TestSessionSkippedBucketsMatchBatch pins the skipped-bucket count of a
// session to the one-shot run's: six identical references under a cap of
// two, fed in three batches, overflow the same buckets once, however many
// commits see them over the cap. The observer counter follows the stats.
func TestSessionSkippedBucketsMatchBatch(t *testing.T) {
	add := func(s *reference.Store) {
		s.Add(reference.New(schema.ClassPerson).
			AddAtomic(schema.AttrName, "Jennifer Widom").
			AddAtomic(schema.AttrEmail, "widom@stanford.edu"))
	}
	cfg := DefaultConfig()
	cfg.BucketCap = 2
	oneShot := reference.NewStore()
	for range 6 {
		add(oneShot)
	}
	want, err := New(schema.PIM(), cfg).Reconcile(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.SkippedBuckets == 0 {
		t.Fatal("the one-shot run skips no bucket; the test would prove nothing")
	}

	cfg.Obs = &obs.Observer{Counters: obs.NewCounters()}
	store := reference.NewStore()
	sess := New(schema.PIM(), cfg).NewSession(store)
	var got *Result
	for range 3 {
		add(store)
		add(store)
		if got, err = sess.Reconcile(); err != nil {
			t.Fatal(err)
		}
	}
	if got.Stats.SkippedBuckets != want.Stats.SkippedBuckets {
		t.Errorf("session SkippedBuckets = %d, one-shot run's = %d", got.Stats.SkippedBuckets, want.Stats.SkippedBuckets)
	}
	if c := cfg.Obs.Counters.SkippedBuckets.Load(); c != int64(want.Stats.SkippedBuckets) {
		t.Errorf("skippedBuckets counter = %d, want %d", c, want.Stats.SkippedBuckets)
	}
}
