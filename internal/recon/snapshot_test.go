package recon

import (
	"fmt"
	"testing"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// snapshotFingerprint renders everything a snapshot exposes into one
// comparable string: references, entities (the partitions, with their
// classes and members), a sample pair decision, and an explain path.
func snapshotFingerprint(t *testing.T, s *Snapshot) string {
	t.Helper()
	out := fmt.Sprintf("version=%d refs=%d\n", s.Version, s.RefCount())
	for _, r := range s.forms {
		rec := r.Record()
		out += fmt.Sprintf("ref %d %s %v %v\n", r.ID, r.Class, rec.Atomic, rec.Assoc)
	}
	for _, e := range s.Entities() {
		out += fmt.Sprintf("entity %d (%s) members=%v atomic=%v name=%q\n",
			e.Canonical, e.Class, e.Members, e.Atomic, e.Name())
	}
	if d := s.Pair(0, 1); d != nil {
		out += fmt.Sprintf("pair(0,1) sim=%.6f status=%s evidence=%d\n", d.Sim, d.Status, len(d.Evidence))
	}
	if exp, err := s.Explain(0, 1); err == nil {
		out += exp.String()
	}
	return out
}

// twoAccountStore builds three person references where the first two share
// an email account (a hard merge) and the third is unrelated.
func twoAccountStore() *reference.Store {
	store := reference.NewStore()
	store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Alice Smith").
		AddAtomic(schema.AttrEmail, "asmith@cs.example.edu"))
	store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "A. Smith").
		AddAtomic(schema.AttrEmail, "asmith@cs.example.edu"))
	store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Bob Jones").
		AddAtomic(schema.AttrEmail, "bjones@ee.example.edu"))
	return store
}

// TestSnapshotIsolation pins the snapshot contract: mutating the live
// session after export — adding references, reconciling further batches —
// must not change anything an exported snapshot exposes.
func TestSnapshotIsolation(t *testing.T) {
	store := twoAccountStore()
	sess := New(schema.PIM(), DefaultConfig()).NewSession(store)
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.SameEntity(0, 1) {
		t.Fatalf("expected references 0 and 1 merged in snapshot")
	}
	if snap.SameEntity(0, 2) {
		t.Fatalf("unexpected merge of references 0 and 2")
	}
	before := snapshotFingerprint(t, snap)

	// Mutate the live session: a new reference that merges with Bob and a
	// fresh batch.
	store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Robert Jones").
		AddAtomic(schema.AttrEmail, "bjones@ee.example.edu"))
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}

	if got := snapshotFingerprint(t, snap); got != before {
		t.Errorf("snapshot changed after session mutation:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if snap.RefCount() != 3 {
		t.Errorf("snapshot RefCount = %d, want 3 (pre-mutation)", snap.RefCount())
	}
	if _, ok := snap.Ref(3); ok {
		t.Errorf("snapshot exposes reference added after export")
	}

	// The new snapshot covers the new state and is distinct.
	snap2, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.RefCount() != 4 {
		t.Errorf("new snapshot RefCount = %d, want 4", snap2.RefCount())
	}
	if snap2.Version <= snap.Version {
		t.Errorf("new snapshot version %d not greater than %d", snap2.Version, snap.Version)
	}
	if !snap2.SameEntity(2, 3) {
		t.Errorf("expected references 2 and 3 merged in second snapshot")
	}
}

// TestSnapshotExplainMatchesSession checks the snapshot's copied explain
// data agrees with the live session's.
func TestSnapshotExplainMatchesSession(t *testing.T) {
	store := twoAccountStore()
	sess := New(schema.PIM(), DefaultConfig()).NewSession(store)
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]reference.ID{{0, 1}, {0, 2}, {1, 2}} {
		want, err := sess.Explain(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Explain(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("Explain(%d,%d) mismatch:\nsession:\n%s\nsnapshot:\n%s",
				pair[0], pair[1], want.String(), got.String())
		}
	}
}

// TestSnapshotBeforeReconcile pins the error contract.
func TestSnapshotBeforeReconcile(t *testing.T) {
	sess := New(schema.PIM(), DefaultConfig()).NewSession(reference.NewStore())
	if _, err := sess.Snapshot(); err == nil {
		t.Fatal("Snapshot before Reconcile should error")
	}
}

// TestMatcherQuery exercises the query path end to end at the recon level:
// blocking-based candidate lookup, entity grouping, and scoring.
func TestMatcherQuery(t *testing.T) {
	store := twoAccountStore()
	sess := New(schema.PIM(), DefaultConfig()).NewSession(store)
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(schema.PIM(), DefaultConfig(), snap)

	cands, stats, err := m.Match(Query{
		Class: schema.ClassPerson,
		Atomic: map[string][]string{
			schema.AttrName:  {"Alice Smith"},
			schema.AttrEmail: {"asmith@cs.example.edu"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates for an exact-copy query")
	}
	if cands[0].Entity.Canonical != 0 {
		t.Errorf("top candidate canonical = %d, want 0", cands[0].Entity.Canonical)
	}
	if !cands[0].Match {
		t.Errorf("exact-copy query should be a confident match (score %.3f)", cands[0].Score)
	}
	if cands[0].Score < 0.99 {
		t.Errorf("identical email account should score ~1, got %.3f", cands[0].Score)
	}
	if stats.CandidateRefs == 0 || stats.CandidateRefs >= store.Len() {
		t.Errorf("CandidateRefs = %d, want blocking-restricted in (0, %d)", stats.CandidateRefs, store.Len())
	}

	// Unknown class and unknown attribute error.
	if _, _, err := m.Match(Query{Class: "Nope"}); err == nil {
		t.Error("unknown class should error")
	}
	if _, _, err := m.Match(Query{Class: schema.ClassPerson, Atomic: map[string][]string{"zip": {"x"}}}); err == nil {
		t.Error("unknown attribute should error")
	}

	// An empty query returns nothing rather than scanning the store.
	cands, stats, err = m.Match(Query{Class: schema.ClassPerson})
	if err != nil || len(cands) != 0 || stats.CandidateRefs != 0 {
		t.Errorf("empty query: cands=%v stats=%+v err=%v, want empty", cands, stats, err)
	}
}
