package recon

import (
	"testing"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// TestSnapshotPersistRoundTrip pins the serialization contract: a decoded
// snapshot must answer every query — refs, partitions, entities, pair
// decisions, explain paths, matcher queries — identically to the original.
func TestSnapshotPersistRoundTrip(t *testing.T) {
	store := twoAccountStore()
	// An association makes the wire form exercise Assoc slices too.
	store.Add(reference.New(schema.ClassArticle).
		AddAtomic(schema.AttrTitle, "Reference Reconciliation in Complex Information Spaces").
		AddAssoc(schema.AttrAuthoredBy, 0))
	sess := New(schema.PIM(), DefaultConfig()).NewSession(store)
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	blob, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}

	if want := snapshotFingerprint(t, snap); snapshotFingerprint(t, got) != want {
		t.Errorf("decoded snapshot fingerprint differs:\nwant:\n%s\ngot:\n%s",
			want, snapshotFingerprint(t, got))
	}
	if got.Version != snap.Version || got.RefCount() != snap.RefCount() {
		t.Errorf("version/refs = %d/%d, want %d/%d",
			got.Version, got.RefCount(), snap.Version, snap.RefCount())
	}
	for _, pair := range [][2]reference.ID{{0, 1}, {0, 2}, {1, 2}, {0, 3}} {
		w, errW := snap.Explain(pair[0], pair[1])
		g, errG := got.Explain(pair[0], pair[1])
		if (errW == nil) != (errG == nil) {
			t.Fatalf("Explain(%d,%d) error mismatch: %v vs %v", pair[0], pair[1], errW, errG)
		}
		if errW == nil && w.String() != g.String() {
			t.Errorf("Explain(%d,%d) mismatch:\nwant:\n%s\ngot:\n%s",
				pair[0], pair[1], w.String(), g.String())
		}
	}

	// The decoded snapshot backs a matcher exactly like the original.
	q := Query{
		Class:  schema.ClassPerson,
		Atomic: map[string][]string{schema.AttrEmail: {"asmith@cs.example.edu"}},
	}
	wc, _, err := NewMatcher(schema.PIM(), DefaultConfig(), snap).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	gc, _, err := NewMatcher(schema.PIM(), DefaultConfig(), got).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(wc) != len(gc) {
		t.Fatalf("matcher candidates = %d, want %d", len(gc), len(wc))
	}
	for i := range wc {
		if wc[i].Entity.Canonical != gc[i].Entity.Canonical || wc[i].Score != gc[i].Score {
			t.Errorf("candidate %d: (%d, %.6f) vs (%d, %.6f)", i,
				gc[i].Entity.Canonical, gc[i].Score, wc[i].Entity.Canonical, wc[i].Score)
		}
	}

	// A second round trip through the decoded snapshot is stable.
	blob2, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	again, err := DecodeSnapshot(blob2)
	if err != nil {
		t.Fatal(err)
	}
	if want := snapshotFingerprint(t, snap); snapshotFingerprint(t, again) != want {
		t.Error("second round trip changed the snapshot fingerprint")
	}
}

// TestSnapshotPersistRejectsGarbage pins the error contract on corrupt
// input.
func TestSnapshotPersistRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("not a gob stream")); err == nil {
		t.Error("decoding garbage should error")
	}
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Error("decoding empty input should error")
	}
}
