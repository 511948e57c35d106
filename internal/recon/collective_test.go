package recon

import (
	"fmt"
	"testing"

	"refrecon/internal/collective"
	"refrecon/internal/datagen/cora"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// snapshotOf reconciles a store and exports its snapshot.
func snapshotOf(t *testing.T, store *reference.Store, cfg Config) *Snapshot {
	t.Helper()
	sess := New(schema.PIM(), cfg).NewSession(store)
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// queryFor builds the exact-copy query of one stored reference: its own
// atomic values, plus (when withAssoc) its own association targets.
func queryFor(r *reference.Reference, withAssoc bool, limit int) Query {
	sr := r.Record()
	q := Query{Class: sr.Class, Limit: limit}
	if len(sr.Atomic) > 0 {
		q.Atomic = make(map[string][]string, len(sr.Atomic))
		for a, vs := range sr.Atomic {
			q.Atomic[a] = vs
		}
	}
	if withAssoc && len(sr.Assoc) > 0 {
		q.Assoc = make(map[string][]reference.ID, len(sr.Assoc))
		for a, ts := range sr.Assoc {
			q.Assoc[a] = ts
		}
	}
	return q
}

// candidateFingerprint renders a candidate list for bit-exact comparison.
func candidateFingerprint(cands []Candidate) string {
	out := ""
	for _, c := range cands {
		out += fmt.Sprintf("%d:%x:%v;", c.Entity.Canonical, c.Score, c.Match)
	}
	return out
}

// sampleRefs picks every strideth reference with any content.
func sampleRefs(snap *Snapshot, stride int) []*reference.Reference {
	var out []*reference.Reference
	for _, sr := range snap.forms {
		if int(sr.ID)%stride == 0 && len(sr.AtomicAttrs()) > 0 {
			out = append(out, sr)
		}
	}
	return out
}

// TestCollectiveBudgetFallbackBitIdentical pins the degradation contract:
// a query that blows the node budget returns the attribute-only Matcher's
// candidate list bit for bit — same entities, same float scores, same
// match flags — and never errors.
func TestCollectiveBudgetFallbackBitIdentical(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.03))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	snap := snapshotOf(t, g.Store, cfg)
	m := NewMatcher(schema.PIM(), cfg, snap)
	cm := NewCollectiveMatcher(m, collective.Config{})

	exhausted := collective.Config{MaxNodes: 1}
	checked, degraded := 0, 0
	for _, sr := range sampleRefs(snap, 7) {
		q := queryFor(sr, true, 10)
		attrOnly := q
		attrOnly.Assoc = nil
		base, _, err := m.Match(attrOnly)
		if err != nil {
			t.Fatalf("ref %d: attribute match: %v", sr.ID, err)
		}
		got, st, err := cm.MatchConfig(q, exhausted)
		if err != nil {
			t.Fatalf("ref %d: budget exhaustion must not error: %v", sr.ID, err)
		}
		if st.Expansion.PairNodes > exhausted.MaxNodes {
			t.Fatalf("ref %d: node budget exceeded: %d > %d",
				sr.ID, st.Expansion.PairNodes, exhausted.MaxNodes)
		}
		if st.Expansion.Degraded {
			degraded++
			if fp, bfp := candidateFingerprint(got), candidateFingerprint(base); fp != bfp {
				t.Fatalf("ref %d: degraded result differs from attribute-only matcher:\n%s\nvs\n%s",
					sr.ID, fp, bfp)
			}
		}
		checked++
	}
	if checked == 0 || degraded == 0 {
		t.Fatalf("test exercised nothing: %d checked, %d degraded", checked, degraded)
	}
}

// goldTopHits counts queries whose top candidate entity contains a
// reference with the query reference's gold entity label.
func goldTopHits(t *testing.T, snap *Snapshot, refs []*reference.Reference, match func(Query) ([]Candidate, error)) int {
	t.Helper()
	hits := 0
	for _, sr := range refs {
		cands, err := match(queryFor(sr, true, 5))
		if err != nil {
			t.Fatalf("ref %d: %v", sr.ID, err)
		}
		if len(cands) == 0 {
			continue
		}
		for _, member := range cands[0].Entity.Members {
			mr, ok := snap.Ref(member)
			if ok && mr.Entity == sr.Entity {
				hits++
				break
			}
		}
	}
	return hits
}

// TestCollectiveGoldTopHitsNoWorse replays every sampled reference of the
// PIM and Cora gold datasets as a query and requires the collective
// matcher's gold top-hit count to be at least the attribute-only
// matcher's.
func TestCollectiveGoldTopHitsNoWorse(t *testing.T) {
	datasets := []struct {
		name  string
		store func() (*reference.Store, error)
	}{
		{"PIM-A", func() (*reference.Store, error) {
			g, err := pim.Generate(pim.DatasetA(0.03))
			if err != nil {
				return nil, err
			}
			return g.Store, nil
		}},
		{"Cora", func() (*reference.Store, error) {
			g, err := cora.Generate(cora.Default(0.05))
			if err != nil {
				return nil, err
			}
			return g.Store, nil
		}},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			store, err := ds.store()
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			snap := snapshotOf(t, store, cfg)
			m := NewMatcher(schema.PIM(), cfg, snap)
			cm := NewCollectiveMatcher(m, collective.Config{})
			refs := sampleRefs(snap, 5)
			if len(refs) == 0 {
				t.Fatal("no sample references")
			}
			attrHits := goldTopHits(t, snap, refs, func(q Query) ([]Candidate, error) {
				q.Assoc = nil
				cands, _, err := m.Match(q)
				return cands, err
			})
			collHits := goldTopHits(t, snap, refs, func(q Query) ([]Candidate, error) {
				cands, _, err := cm.Match(q)
				return cands, err
			})
			t.Logf("%s: %d queries, attribute top-hits %d, collective top-hits %d",
				ds.name, len(refs), attrHits, collHits)
			if collHits < attrHits {
				t.Fatalf("collective top-hits regressed: %d < %d", collHits, attrHits)
			}
		})
	}
}

// TestCollectiveDeterministicAcrossWorkers pins the determinism contract:
// identical query + identical snapshot contents ⇒ bit-identical candidate
// lists, whatever worker count produced the snapshot and however often the
// query repeats.
func TestCollectiveDeterministicAcrossWorkers(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.03))
	if err != nil {
		t.Fatal(err)
	}
	var matchers []*CollectiveMatcher
	for _, workers := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		snap := snapshotOf(t, g.Store, cfg)
		matchers = append(matchers, NewCollectiveMatcher(NewMatcher(schema.PIM(), cfg, snap), collective.Config{}))
	}
	snap := matchers[0].Matcher().Snapshot()
	refs := sampleRefs(snap, 11)
	if len(refs) == 0 {
		t.Fatal("no sample references")
	}
	for _, sr := range refs {
		q := queryFor(sr, true, 10)
		first, fstats, err := matchers[0].Match(q)
		if err != nil {
			t.Fatalf("ref %d: %v", sr.ID, err)
		}
		for run, cm := range matchers {
			for rep := 0; rep < 2; rep++ {
				got, gstats, err := cm.Match(q)
				if err != nil {
					t.Fatalf("ref %d (matcher %d): %v", sr.ID, run, err)
				}
				if fp, ffp := candidateFingerprint(got), candidateFingerprint(first); fp != ffp {
					t.Fatalf("ref %d: matcher %d rep %d diverged:\n%s\nvs\n%s",
						sr.ID, run, rep, fp, ffp)
				}
				if gstats.Expansion.PairNodes != fstats.Expansion.PairNodes ||
					gstats.Expansion.Steps != fstats.Expansion.Steps ||
					gstats.Expansion.Degraded != fstats.Expansion.Degraded {
					t.Fatalf("ref %d: matcher %d expansion stats diverged: %+v vs %+v",
						sr.ID, run, gstats.Expansion, fstats.Expansion)
				}
			}
		}
	}
}

// TestCollectiveAssociationDisambiguates builds the motivating scenario:
// two stored persons whose names are equally compatible with the query,
// where only the query's declared co-author separates them. The
// attribute-only matcher ties; the collective matcher must rank the
// person sharing the co-author first, strictly above its attribute score.
func TestCollectiveAssociationDisambiguates(t *testing.T) {
	store := reference.NewStore()
	jane := store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Jane Smith"))
	john := store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "John Smith"))
	alice := store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Alice Wu"))
	bob := store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Bob Lee"))
	store.Get(jane).AddAssoc(schema.AttrCoAuthor, alice)
	store.Get(john).AddAssoc(schema.AttrCoAuthor, bob)

	cfg := DefaultConfig()
	snap := snapshotOf(t, store, cfg)
	if snap.SameEntity(jane, john) {
		t.Fatal("fixture broken: the two Smiths must stay distinct entities")
	}
	m := NewMatcher(schema.PIM(), cfg, snap)
	cm := NewCollectiveMatcher(m, collective.Config{})

	q := Query{
		Class:  schema.ClassPerson,
		Atomic: map[string][]string{schema.AttrName: {"J. Smith"}},
		Assoc:  map[string][]reference.ID{schema.AttrCoAuthor: {alice}},
	}
	scoreOf := func(cands []Candidate, id reference.ID) (float64, bool) {
		for _, c := range cands {
			for _, mem := range c.Entity.Members {
				if mem == id {
					return c.Score, true
				}
			}
		}
		return 0, false
	}

	attrQ := q
	attrQ.Assoc = nil
	base, _, err := m.Match(attrQ)
	if err != nil {
		t.Fatal(err)
	}
	baseJane, okJ := scoreOf(base, jane)
	baseJohn, okN := scoreOf(base, john)
	if !okJ || !okN {
		t.Fatalf("fixture broken: both Smiths must be attribute candidates, got %v", base)
	}
	if baseJane != baseJohn {
		t.Fatalf("fixture broken: attribute scores must tie, got %v vs %v", baseJane, baseJohn)
	}

	cands, st, err := cm.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Expansion.Degraded {
		t.Fatalf("unexpected degradation: %q", st.Expansion.Reason)
	}
	collJane, okJ := scoreOf(cands, jane)
	collJohn, okN := scoreOf(cands, john)
	if !okJ || !okN {
		t.Fatalf("both Smiths must remain candidates, got %v", cands)
	}
	if collJane <= baseJane {
		t.Fatalf("shared co-author must raise Jane's score: %v (attribute %v)", collJane, baseJane)
	}
	if collJane <= collJohn {
		t.Fatalf("collective pass must break the tie toward Jane: %v vs %v", collJane, collJohn)
	}
	if collJohn < baseJohn {
		t.Fatalf("collective scores must never drop below attribute-only: %v < %v", collJohn, baseJohn)
	}
	if len(cands) == 0 || cands[0].Entity.Canonical != jane {
		t.Fatalf("Jane must rank first, got %v", cands)
	}
}

// TestCollectiveAssocValidation pins the query-surface errors: unknown
// association attributes and out-of-range or wrongly-classed target ids
// are rejected before any expansion runs.
func TestCollectiveAssocValidation(t *testing.T) {
	store := reference.NewStore()
	store.Add(reference.New(schema.ClassPerson).AddAtomic(schema.AttrName, "Jane Smith"))
	cfg := DefaultConfig()
	snap := snapshotOf(t, store, cfg)
	cm := NewCollectiveMatcher(NewMatcher(schema.PIM(), cfg, snap), collective.Config{})

	bad := []Query{
		{Class: schema.ClassPerson,
			Atomic: map[string][]string{schema.AttrName: {"j smith"}},
			Assoc:  map[string][]reference.ID{"nope": {0}}},
		{Class: schema.ClassPerson,
			Atomic: map[string][]string{schema.AttrName: {"j smith"}},
			Assoc:  map[string][]reference.ID{schema.AttrName: {0}}},
		{Class: schema.ClassPerson,
			Atomic: map[string][]string{schema.AttrName: {"j smith"}},
			Assoc:  map[string][]reference.ID{schema.AttrCoAuthor: {99}}},
	}
	for i, q := range bad {
		if _, _, err := cm.Match(q); err == nil {
			t.Errorf("query %d: want validation error, got none", i)
		}
	}
}
