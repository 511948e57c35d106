package recon

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"refrecon/internal/datagen/pim"
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

// incoherentWires are well-formed gob streams whose partitions do not
// partition the references they carry. The first two used to panic in
// buildEntities with an index out of range.
func incoherentWires(t testing.TB) map[string][]byte {
	person := reference.Record{Class: schema.ClassPerson, Atomic: map[string][]string{schema.AttrName: {"Alice"}}}
	article := reference.Record{Class: schema.ClassArticle, Atomic: map[string][]string{schema.AttrTitle: {"Reconciliation"}}}
	return map[string][]byte{
		"partition-id-outside-refs": encodeWire(t, snapshotWire{
			Refs:       []reference.Record{person},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{0, 7}}},
		}),
		"empty-partition": encodeWire(t, snapshotWire{
			Refs:       []reference.Record{person},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{0}, {}}},
		}),
		"negative-partition-id": encodeWire(t, snapshotWire{
			Refs:       []reference.Record{person},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{-1}}},
		}),
		"id-in-two-partitions": encodeWire(t, snapshotWire{
			Refs:       []reference.Record{person, person},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{0, 1}, {1}}},
		}),
		"member-of-another-class": encodeWire(t, snapshotWire{
			Refs:       []reference.Record{person, article},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{0, 1}}},
		}),
		"members-out-of-order": encodeWire(t, snapshotWire{
			Refs:       []reference.Record{person, person},
			Partitions: map[string][][]reference.ID{schema.ClassPerson: {{1, 0}}},
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
	for i, e := range s.Entities() {
		for _, id := range e.Members {
			if s.EntityOf(id) != e || e.Label != i {
				t.Fatalf("entity %d (label %d) member %d indexes to another entity", i, e.Label, id)
			}
		}
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
// call. The committed corpus (testdata/fuzz/FuzzDecodeSnapshot) holds
// blobs of the earlier wire form, which also carried an Assignment map: a
// real snapshot, a truncation of it, and incoherent wires.
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

// labelledWire is the snapshot wire form as it was while it also carried
// each reference's partition label (Assignment), redundant with
// Partitions. Gob matches fields by name, so this stands in for it.
type labelledWire struct {
	Version    int
	Taken      time.Time
	Stats      Stats
	Refs       []reference.Record
	NameAttrs  map[string]string
	Partitions map[string][][]reference.ID
	Assignment map[reference.ID]int
	Pairs      []PairDecision
}

// TestDecodeLabelledWire pins checkpoint compatibility: a blob written in
// the earlier wire form, Assignment included, decodes to the snapshot the
// current form round-trips to.
func TestDecodeLabelledWire(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.03))
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, g.Store, DefaultConfig())
	blob, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	var w snapshotWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	old := labelledWire{
		Version: w.Version, Taken: w.Taken, Stats: w.Stats, Refs: w.Refs, NameAttrs: w.NameAttrs,
		Partitions: w.Partitions, Assignment: make(map[reference.ID]int), Pairs: w.Pairs,
	}
	for _, e := range snap.Entities() {
		for _, id := range e.Members {
			old.Assignment[id] = e.Label
		}
	}
	if len(old.Assignment) == 0 || len(old.Pairs) == 0 {
		t.Fatal("the labelled blob carries no assignment or pairs; the test would prove nothing")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("a labelled blob does not decode: %v", err)
	}
	if want := snapshotFingerprint(t, snap); snapshotFingerprint(t, got) != want {
		t.Fatalf("a labelled blob decodes to another snapshot:\n%s\nwant:\n%s", snapshotFingerprint(t, got), want)
	}
}
