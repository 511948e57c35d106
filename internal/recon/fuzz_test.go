package recon

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// encodeWire gob-encodes a hand-built wire form, the way a checkpoint
// file that passed its CRC could carry anything.
func encodeWire(t testing.TB, w snapshotWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// incoherentWires are well-formed gob streams whose partitions and
// assignment disagree with the references they carry. The first two used
// to panic in buildEntities with an index out of range.
func incoherentWires(t testing.TB) map[string][]byte {
	person := SnapRef{Class: schema.ClassPerson, Atomic: map[string][]string{schema.AttrName: {"Alice"}}}
	return map[string][]byte{
		"partition-id-outside-refs": encodeWire(t, snapshotWire{
			Refs:       []SnapRef{person},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{0, 7}}},
			Assignment: map[reference.ID]int{0: 0},
		}),
		"empty-partition": encodeWire(t, snapshotWire{
			Refs:       []SnapRef{person},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{0}, {}}},
			Assignment: map[reference.ID]int{0: 0},
		}),
		"negative-partition-id": encodeWire(t, snapshotWire{
			Refs:       []SnapRef{person},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{-1}}},
		}),
		"member-assigned-elsewhere": encodeWire(t, snapshotWire{
			Refs:       []SnapRef{person, person},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{0, 1}}},
			Assignment: map[reference.ID]int{0: 0, 1: 1},
		}),
		"assignment-id-outside-refs": encodeWire(t, snapshotWire{
			Refs:       []SnapRef{person},
			Assignment: map[reference.ID]int{3: 0},
		}),
	}
}

// validBlob is a real session snapshot (merges, a non-merge, an
// association), with a fixed export time so the corpus file is stable.
func validBlob(t testing.TB) []byte {
	store := twoAccountStore()
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
	snap.Taken = time.Unix(0, 0).UTC()
	snap.Stats = Stats{}
	blob, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDecodeSnapshotRejectsIncoherent pins the error contract serve's
// recovery relies on ("a checkpoint whose snapshot fails to decode falls
// back to full replay"): an incoherent blob is an error, not a panic.
func TestDecodeSnapshotRejectsIncoherent(t *testing.T) {
	for name, blob := range incoherentWires(t) {
		if snap, err := DecodeSnapshot(blob); err == nil {
			t.Errorf("%s: decoded without error (%d refs)", name, snap.RefCount())
		}
	}
}

// exerciseSnapshot calls every accessor a decoded snapshot offers, with
// ids inside and just outside its range, and builds the matcher serve
// builds over every snapshot it publishes.
func exerciseSnapshot(t *testing.T, s *Snapshot) {
	n := reference.ID(s.RefCount())
	for _, parts := range s.Partitions() {
		for _, part := range parts {
			if s.EntityOf(part[0]) == nil {
				t.Fatalf("partition %v has no entity", part)
			}
		}
	}
	for _, e := range s.Entities() {
		e.Name()
	}
	for id := reference.ID(-1); id <= n; id++ {
		s.Ref(id)
		s.EntityOf(id)
		for other := reference.ID(-1); other <= min(n, 16); other++ {
			s.SameEntity(id, other)
			s.Pair(id, other)
			s.Explain(id, other)
		}
	}
	m := NewMatcher(schema.PIM(), DefaultConfig(), s)
	for _, q := range []Query{
		{Class: schema.ClassPerson, Atomic: map[string][]string{schema.AttrName: {"Alice Smith"}}},
		{Class: schema.ClassArticle, Atomic: map[string][]string{schema.AttrTitle: {"Reference Reconciliation"}}},
	} {
		if _, _, err := m.Match(q); err != nil {
			t.Fatalf("match on decoded snapshot: %v", err)
		}
	}
	blob, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	again, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("a decoded snapshot's own encoding does not decode: %v", err)
	}
	if want := snapshotFingerprint(t, s); snapshotFingerprint(t, again) != want {
		t.Fatal("re-encoding a decoded snapshot changed its fingerprint")
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the checkpoint decoder: any
// input is either an error or a snapshot whose every accessor is safe to
// call. The committed corpus (testdata/fuzz/FuzzDecodeSnapshot) holds a
// real snapshot, a truncation of it, and the incoherent wires above.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := validBlob(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	for _, blob := range incoherentWires(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if snap.RefCount() > 1<<12 {
			t.Skip("too large to walk")
		}
		exerciseSnapshot(t, snap)
	})
}
