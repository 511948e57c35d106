package recon

// Snapshot export: a deep, read-only view of a reconciliation state that a
// serving layer can publish to concurrent readers while the live session
// keeps ingesting batches. A snapshot owns copies of everything it exposes
// — reference attribute values, partitions, canonical enriched entities,
// and per-pair explain data — so mutating the session (adding references,
// running further Reconcile batches) never changes an already-exported
// snapshot. See internal/serve for the copy-on-write publication scheme
// built on top.

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/simfn"
)

// SnapRef is one stored reference inside a Snapshot: the snapshot's own
// deep copy, in record form. Read-only.
type SnapRef = reference.Record

// Entity is one canonical enriched entity of a snapshot: a partition with
// the union of its members' attribute values (the §3.3 enrichment view,
// materialized). The member with the lowest id is the canonical
// representative; its id doubles as the entity's external identifier.
type Entity struct {
	// Label is the snapshot-local partition label (not stable across
	// snapshots; Canonical is the stable handle).
	Label int
	Class string
	// Canonical is the lowest member reference id.
	Canonical reference.ID
	// Members lists the partition's reference ids in ascending order.
	Members []reference.ID
	// Atomic is the union of the members' atomic values, deduplicated,
	// in member-then-value order. Read-only.
	Atomic map[string][]string
	// union is Atomic as a reference, the shape the evidence model scores.
	union *reference.Reference
	// nameAttr is the class's name-like attribute (schema.Class.NameAttr).
	nameAttr string
	pos      int // position in Snapshot.Entities
}

// Name returns a display value for the entity: its first value of the
// class's name-like attribute; for an entity without one, the first value
// of its alphabetically first attribute, then the canonical id.
func (e *Entity) Name() string {
	if vs := e.Atomic[e.nameAttr]; len(vs) > 0 {
		return vs[0]
	}
	attrs := make([]string, 0, len(e.Atomic))
	for a := range e.Atomic {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		if vs := e.Atomic[a]; len(vs) > 0 {
			return vs[0]
		}
	}
	return fmt.Sprintf("entity %d", e.Canonical)
}

// mergedLink is one merged pair decision seen from one endpoint.
type mergedLink struct {
	other reference.ID
	d     *PairDecision
}

// Snapshot is a deep, read-only view of one reconciliation state. All
// methods are safe for concurrent use; nothing in a snapshot aliases the
// live session's mutable state.
type Snapshot struct {
	// Version is the session batch ordinal the snapshot was taken after.
	Version int
	// Taken is the export wall-clock time (informational).
	Taken time.Time
	// Stats are the accumulated run statistics at export time.
	Stats Stats

	refs []SnapRef
	// forms are refs as References, ids set: the evidence model's shape.
	forms []*reference.Reference
	// nameAttrs maps each schema class to its name-like attribute, so that
	// entity labels follow the schema without the snapshot holding one.
	nameAttrs  map[string]string
	partitions map[string][][]reference.ID
	assignment map[reference.ID]int
	entities   []*Entity
	byLabel    map[int]*Entity
	// pairs holds one copied decision per RefPair node; merged holds the
	// merged-pair adjacency for explain path search, each list sorted by
	// the other endpoint.
	pairs  map[uint64]*PairDecision
	merged map[reference.ID][]mergedLink
	// keys holds each reference's blocking keys as the session's builder
	// derived them; all nil in a decoded snapshot, whose matcher derives them.
	keys [][]string
	// rows holds each reference's value row as the session's builder made
	// it, laid out by attrs, its ids issued by vals, the builder's library;
	// all nil in a decoded snapshot, whose matcher interns its values.
	rows  []valueRow
	vals  *simfn.Library
	attrs []string
}

// pairIndex packs an unordered reference-id pair into one map key.
func pairIndex(a, b reference.ID) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(uint32(b))
}

// RefCount returns the number of references in the snapshot.
func (s *Snapshot) RefCount() int { return len(s.refs) }

// Ref returns the snapshot's view of one reference.
func (s *Snapshot) Ref(id reference.ID) (*SnapRef, bool) {
	if id < 0 || int(id) >= len(s.refs) {
		return nil, false
	}
	return &s.refs[id], true
}

// Partitions returns the class partition map. Read-only.
func (s *Snapshot) Partitions() map[string][][]reference.ID { return s.partitions }

// SameEntity reports whether two references share a partition.
func (s *Snapshot) SameEntity(a, b reference.ID) bool {
	pa, okA := s.assignment[a]
	pb, okB := s.assignment[b]
	return okA && okB && pa == pb
}

// Entities returns the canonical enriched entities, sorted by canonical
// reference id. Read-only.
func (s *Snapshot) Entities() []*Entity { return s.entities }

// EntityOf returns the entity a reference belongs to (nil when the id is
// out of range).
func (s *Snapshot) EntityOf(id reference.ID) *Entity {
	label, ok := s.assignment[id]
	if !ok {
		return nil
	}
	return s.byLabel[label]
}

// Pair returns the copied decision for the (a, b) pair node, or nil when
// the graph had no such node.
func (s *Snapshot) Pair(a, b reference.ID) *PairDecision {
	return s.pairs[pairIndex(a, b)]
}

// Explain reports whether a and b share a partition and, when they do,
// the chain of merged pair decisions connecting them.
func (s *Snapshot) Explain(a, b reference.ID) (Explanation, error) {
	if int(a) >= len(s.refs) || int(b) >= len(s.refs) || a < 0 || b < 0 {
		return Explanation{}, fmt.Errorf("recon: reference id out of range")
	}
	return s.explain(a, b), nil
}

// explain is Explain without the range check: an id the snapshot does not
// cover is in no partition and no pair.
func (s *Snapshot) explain(a, b reference.ID) Explanation {
	out := Explanation{A: a, B: b, Same: s.SameEntity(a, b)}
	if d := s.Pair(a, b); d != nil {
		cp := *d
		out.Direct = &cp
	}
	if out.Same {
		out.Path = explainPath(a, b, s.merged)
	}
	return out
}

// Snapshot exports a deep, read-only view of the session's latest state:
// references, partitions, canonical enriched entities, and per-pair
// explain data. It errors before the first Reconcile. The result shares no
// mutable state with the session, so later batches never disturb it: what
// it shares with earlier exports is never written again.
func (s *Session) Snapshot() (*Snapshot, error) {
	if s.latest == nil || s.g == nil {
		return nil, fmt.Errorf("recon: Snapshot before Reconcile")
	}
	sp := s.rc.cfg.Obs.Tracer().Begin("publish", "snapshot")
	res := s.latest
	snap := &Snapshot{
		Version:    s.b.batch,
		Taken:      time.Now(),
		Stats:      res.Stats,
		nameAttrs:  make(map[string]string),
		partitions: make(map[string][][]reference.ID, len(res.Partitions)),
		assignment: make(map[reference.ID]int, len(res.Assignment)),
		byLabel:    make(map[int]*Entity),
	}

	for _, c := range s.rc.sch.Classes() {
		snap.nameAttrs[c.Name] = c.NameAttr()
	}

	// Snapshots cover the store prefix the result was computed over:
	// references added to the store after the result's Reconcile (but
	// before export) have no partition assignment yet and are excluded,
	// keeping refs and partitions mutually consistent. Records are copied
	// once, and snapshots share the prefix, as they share blocking keys.
	covered := s.store.Len()
	for covered > 0 {
		if _, ok := res.Assignment[reference.ID(covered-1)]; ok {
			break
		}
		covered--
	}
	p := &s.pub
	for i := len(p.refs); i < covered; i++ {
		p.refs = append(p.refs, s.store.Get(reference.ID(i)).Record())
		p.forms = append(p.forms, p.refs[i].Reference())
		p.forms[i].ID = p.refs[i].ID
	}
	snap.refs, snap.forms = p.refs[:covered:covered], p.forms[:covered:covered]
	snap.keys = s.b.keys[:covered:covered]
	snap.rows, snap.vals, snap.attrs = s.b.rows[:covered:covered], s.b.lib, s.b.attrs

	for class, parts := range res.Partitions {
		cp := make([][]reference.ID, len(parts))
		for i, part := range parts {
			cp[i] = append([]reference.ID(nil), part...)
			sort.Slice(cp[i], func(x, y int) bool { return cp[i][x] < cp[i][y] })
		}
		snap.partitions[class] = cp
	}
	for id, label := range res.Assignment {
		snap.assignment[id] = label
	}

	snap.buildEntities()
	described := p.describe(s.g)
	snap.pairs = p.pairs
	snap.linkMerged()
	sp.EndArgs(map[string]any{"pairs": len(snap.pairs), "described": described})
	return snap, nil
}

// publication is what a session's last export leaves for the next: the
// record copies in both forms, the decision map, and per pair-node id the
// decision exported with the inputs it was described from. It resets with
// the graph.
type publication struct {
	refs    []SnapRef
	forms   []*reference.Reference
	pairs   map[uint64]*PairDecision
	memo    []pairMemo
	scratch []uint64
}

type pairMemo struct {
	d  *PairDecision
	in []uint64 // depgraph.Node.AppendInputs when d was described
}

// describe brings a clone of the last decision map up to date with g and
// returns how many pairs it described. A PairDecision is a pure function
// of the inputs AppendInputs lists, so a node whose inputs equal its memo
// keeps its decision. Live nodes arrive in id order and a removed pair can
// only come back as a newer node, so dropping a removed node's entry when
// the walk passes its id never hides a successor's.
func (p *publication) describe(g *depgraph.Graph) (described int) {
	p.memo = append(p.memo, make([]pairMemo, g.NodeIDBound()-len(p.memo))...)
	pairs, next := maps.Clone(p.pairs), 0
	if pairs == nil {
		pairs = make(map[uint64]*PairDecision)
	}
	drop := func(end int) {
		for ; next < end; next++ {
			if d := p.memo[next].d; d != nil {
				delete(pairs, pairIndex(d.A, d.B))
				p.memo[next] = pairMemo{}
			}
		}
	}
	g.Nodes(func(n *depgraph.Node) {
		id := int(n.ID())
		drop(id)
		next = id + 1
		if n.Kind() != depgraph.RefPair {
			return
		}
		m := &p.memo[id]
		if p.scratch = n.AppendInputs(p.scratch[:0]); m.d != nil && slices.Equal(m.in, p.scratch) {
			return
		}
		d := describeNode(n)
		m.d, m.in = &d, append(m.in[:0], p.scratch...)
		pairs[pairIndex(d.A, d.B)] = &d
		described++
	})
	drop(len(p.memo))
	p.pairs = pairs
	return described
}

// linkMerged derives the merged-pair adjacency Explain searches from the
// pair decisions.
func (snap *Snapshot) linkMerged() {
	snap.merged = make(map[reference.ID][]mergedLink)
	mergedStatus := depgraph.Merged.String()
	for _, d := range snap.pairs {
		if d.Status == mergedStatus {
			snap.merged[d.A] = append(snap.merged[d.A], mergedLink{d.B, d})
			snap.merged[d.B] = append(snap.merged[d.B], mergedLink{d.A, d})
		}
	}
	for _, links := range snap.merged {
		sort.Slice(links, func(i, j int) bool { return links[i].other < links[j].other })
	}
}

// buildEntities derives the canonical enriched entities from the
// snapshot's refs, partitions, and assignment: one entity per partition,
// attribute values unioned over the members (the MAX-rule view enrichment
// builds implicitly). It is called once at export and again when a
// snapshot is decoded from its persisted form, which carries only the base
// data.
func (snap *Snapshot) buildEntities() {
	classes := make([]string, 0, len(snap.partitions))
	for c := range snap.partitions {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		for _, part := range snap.partitions[class] {
			ent := &Entity{
				Label:     snap.assignment[part[0]],
				Class:     class,
				Canonical: part[0],
				Members:   part,
				Atomic:    make(map[string][]string),
				nameAttr:  snap.nameAttrs[class],
			}
			for _, id := range part {
				// Attribute order is immaterial: each attribute's values
				// are unioned on their own, in member order.
				for a, vs := range snap.refs[id].Atomic {
					for _, v := range vs {
						if !slices.Contains(ent.Atomic[a], v) {
							ent.Atomic[a] = append(ent.Atomic[a], v)
						}
					}
				}
			}
			ent.union = reference.Record{Class: class, Atomic: ent.Atomic}.Reference()
			snap.entities = append(snap.entities, ent)
			snap.byLabel[ent.Label] = ent
		}
	}
	sort.Slice(snap.entities, func(i, j int) bool {
		return snap.entities[i].Canonical < snap.entities[j].Canonical
	})
	for i, ent := range snap.entities {
		ent.pos = i
	}
}
