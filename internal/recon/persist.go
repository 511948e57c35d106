package recon

// Snapshot persistence: a gob wire form carrying only the snapshot's base
// data (references as records, partitions, pair decisions). Derived
// structures — canonical entities, the reference-to-entity index, the
// merged-pair adjacency used by Explain — are rebuilt on decode by the
// same code that builds them at export, so a decoded snapshot answers
// every query identically to the original. The serving layer's checkpoint
// files embed this encoding.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"refrecon/internal/reference"
)

// snapshotWire is the persisted form of a Snapshot. All fields are
// exported for gob; pair decisions are flattened into a slice sorted by
// pair key so their decoded in-memory order is deterministic. Partitions
// list each class's parts in canonical-id order, members ascending. Blobs
// written while the form also carried the partition labels by reference
// id (an Assignment map) still decode: gob skips a field the receiver
// lacks.
type snapshotWire struct {
	Version    int
	Taken      time.Time
	Stats      Stats
	Refs       []reference.Record
	NameAttrs  map[string]string
	Partitions map[string][][]reference.ID
	Pairs      []PairDecision
}

// EncodeSnapshot serializes a snapshot into a self-contained byte blob.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	w := snapshotWire{
		Version:    s.Version,
		Taken:      s.Taken,
		Stats:      s.Stats,
		Refs:       make([]reference.Record, len(s.forms)),
		NameAttrs:  s.nameAttrs,
		Partitions: make(map[string][][]reference.ID),
	}
	for i, r := range s.forms {
		w.Refs[i] = r.Record()
	}
	for _, e := range s.entities {
		w.Partitions[e.Class] = append(w.Partitions[e.Class], e.Members)
	}
	keys := make([]uint64, 0, len(s.pairs))
	for k := range s.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Pairs = make([]PairDecision, 0, len(keys))
	for _, k := range keys {
		w.Pairs = append(w.Pairs, *s.pairs[k])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("recon: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot reconstructs a snapshot from EncodeSnapshot's output,
// rebuilding the derived entity and explain indexes. The blob is outside
// input (a checkpoint file): one that gob accepts but whose partitions do
// not partition a subset of the references it carries is an error, never
// a snapshot that panics later.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var w snapshotWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("recon: decode snapshot: %w", err)
	}
	snap := &Snapshot{
		Version:   w.Version,
		Taken:     w.Taken,
		Stats:     w.Stats,
		forms:     make([]*reference.Reference, len(w.Refs)),
		nameAttrs: w.NameAttrs,
		pairs:     make(map[uint64]*PairDecision, len(w.Pairs)),
		keys:      make([][]string, len(w.Refs)),
	}
	for i, rec := range w.Refs {
		// Ids are dense: a record's own id field is informational.
		snap.forms[i] = rec.Reference()
		snap.forms[i].ID = reference.ID(i)
	}
	if err := snap.buildEntities(w.Partitions); err != nil {
		return nil, fmt.Errorf("recon: decode snapshot: %w", err)
	}
	for i := range w.Pairs {
		d := &w.Pairs[i]
		snap.pairs[pairIndex(d.A, d.B)] = d
	}
	snap.linkMerged()
	return snap, nil
}
