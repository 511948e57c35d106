package recon

// Snapshot persistence: a gob wire form carrying only the snapshot's base
// data (references, partitions, assignment, pair decisions). Derived
// structures — canonical entities, the label index, the merged-pair
// adjacency used by Explain — are rebuilt on decode by the same code that
// builds them at export, so a decoded snapshot answers every query
// identically to the original. The serving layer's checkpoint files embed
// this encoding.

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
// pair key so their decoded in-memory order is deterministic.
type snapshotWire struct {
	Version    int
	Taken      time.Time
	Stats      Stats
	Refs       []SnapRef
	NameAttrs  map[string]string
	Partitions map[string][][]reference.ID
	Assignment map[reference.ID]int
	Pairs      []PairDecision
}

// EncodeSnapshot serializes a snapshot into a self-contained byte blob.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	w := snapshotWire{
		Version:    s.Version,
		Taken:      s.Taken,
		Stats:      s.Stats,
		Refs:       s.refs,
		NameAttrs:  s.nameAttrs,
		Partitions: s.partitions,
		Assignment: s.assignment,
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
// input (a checkpoint file): one that gob accepts but that names references
// it does not carry is an error, never a snapshot that panics later.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var w snapshotWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("recon: decode snapshot: %w", err)
	}
	snap := &Snapshot{
		Version:    w.Version,
		Taken:      w.Taken,
		Stats:      w.Stats,
		refs:       w.Refs,
		nameAttrs:  w.NameAttrs,
		partitions: w.Partitions,
		assignment: w.Assignment,
		byLabel:    make(map[int]*Entity),
		pairs:      make(map[uint64]*PairDecision, len(w.Pairs)),
		keys:       make([][]string, len(w.Refs)),
	}
	// Gob omits empty maps; normalize so decoded snapshots behave like
	// freshly exported ones (whose maps are always non-nil).
	if snap.partitions == nil {
		snap.partitions = make(map[string][][]reference.ID)
	}
	if snap.assignment == nil {
		snap.assignment = make(map[reference.ID]int)
	}
	for id := range snap.assignment {
		if int(id) >= len(snap.refs) || id < 0 {
			return nil, fmt.Errorf("recon: decode snapshot: assignment id %d outside %d refs", id, len(snap.refs))
		}
	}
	for class, parts := range snap.partitions {
		for _, part := range parts {
			if len(part) == 0 {
				return nil, fmt.Errorf("recon: decode snapshot: empty %s partition", class)
			}
			for _, id := range part {
				// An assigned id is in range (checked above), so this covers
				// the partition ids too.
				if label, ok := snap.assignment[id]; !ok || label != snap.assignment[part[0]] {
					return nil, fmt.Errorf("recon: decode snapshot: %s partition member %d is not assigned to it", class, id)
				}
			}
		}
	}
	for _, rec := range snap.refs {
		snap.forms = append(snap.forms, rec.Reference())
		snap.forms[len(snap.forms)-1].ID = rec.ID
	}
	snap.buildEntities()
	for i := range w.Pairs {
		d := &w.Pairs[i]
		snap.pairs[pairIndex(d.A, d.B)] = d
	}
	snap.linkMerged()
	return snap, nil
}
