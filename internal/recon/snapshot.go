package recon

// Snapshot export: a read-only view of a reconciliation state that a
// serving layer can publish to concurrent readers while the live session
// keeps ingesting batches. A snapshot holds each fact once — every
// reference as one Reference, the partition as canonical enriched entities
// with one dense reference-to-entity index, and per-pair explain data —
// and nothing it holds is written again, so mutating the session (adding
// references, running further Reconcile batches) never changes an
// already-exported snapshot. See internal/serve for the copy-on-write
// publication scheme built on top.

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/simfn"
)

// Entity is one canonical enriched entity of a snapshot: a partition with
// the union of its members' attribute values (the §3.3 enrichment view,
// materialized). The member with the lowest id is the canonical
// representative; its id doubles as the entity's external identifier.
type Entity struct {
	// Label is the entity's index in Snapshot.Entities: snapshot-local,
	// not stable across snapshots (Canonical is the stable handle).
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

	// forms are the stored references by id, ids set. Read-only.
	forms []*reference.Reference
	// nameAttrs maps each schema class to its name-like attribute, so that
	// entity labels follow the schema without the snapshot holding one.
	nameAttrs map[string]string
	// entities are the partitions in canonical-id order; entityOf maps a
	// reference id to its entity's index there, -1 for one in no partition.
	entities []*Entity
	entityOf []int32
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
func (s *Snapshot) RefCount() int { return len(s.forms) }

// Ref returns the snapshot's view of one reference. Read-only.
func (s *Snapshot) Ref(id reference.ID) (*reference.Reference, bool) {
	if id < 0 || int(id) >= len(s.forms) {
		return nil, false
	}
	return s.forms[id], true
}

// SameEntity reports whether two references share a partition.
func (s *Snapshot) SameEntity(a, b reference.ID) bool {
	e := s.EntityOf(a)
	return e != nil && e == s.EntityOf(b)
}

// Entities returns the canonical enriched entities, sorted by canonical
// reference id. Read-only.
func (s *Snapshot) Entities() []*Entity { return s.entities }

// EntityOf returns the entity a reference belongs to (nil when the id is
// out of range).
func (s *Snapshot) EntityOf(id reference.ID) *Entity {
	if id < 0 || int(id) >= len(s.entityOf) || s.entityOf[id] < 0 {
		return nil
	}
	return s.entities[s.entityOf[id]]
}

// Pair returns the copied decision for the (a, b) pair node, or nil when
// the graph had no such node.
func (s *Snapshot) Pair(a, b reference.ID) *PairDecision {
	return s.pairs[pairIndex(a, b)]
}

// Explain reports whether a and b share a partition and, when they do,
// the chain of merged pair decisions connecting them.
func (s *Snapshot) Explain(a, b reference.ID) (Explanation, error) {
	if int(a) >= len(s.forms) || int(b) >= len(s.forms) || a < 0 || b < 0 {
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

// Snapshot exports a read-only view of the session's latest state:
// references, canonical enriched entities, and per-pair explain data. It
// errors before the first Reconcile. The result shares no mutable state
// with the session, so later batches never disturb it: what it shares with
// earlier exports, and the result's partitions its entities list as
// members, is never written again.
func (s *Session) Snapshot() (*Snapshot, error) {
	if s.latest == nil || s.g == nil {
		return nil, fmt.Errorf("recon: Snapshot before Reconcile")
	}
	sp := s.rc.cfg.Obs.Tracer().Begin("publish", "snapshot")
	res := s.latest
	snap := &Snapshot{
		Version:   s.b.batch,
		Taken:     time.Now(),
		Stats:     res.Stats,
		nameAttrs: make(map[string]string),
	}

	for _, c := range s.rc.sch.Classes() {
		snap.nameAttrs[c.Name] = c.NameAttr()
	}

	// Snapshots cover the store prefix the result was computed over:
	// references added to the store after the result's Reconcile (but
	// before export) have no partition assignment yet and are excluded,
	// keeping refs and partitions mutually consistent. References are
	// copied once, and snapshots share the prefix, as they share blocking
	// keys.
	covered := s.store.Len()
	for covered > 0 {
		if _, ok := res.Assignment[reference.ID(covered-1)]; ok {
			break
		}
		covered--
	}
	p := &s.pub
	for i := len(p.forms); i < covered; i++ {
		r := s.store.Get(reference.ID(i))
		cp := r.Record().Reference()
		cp.ID = r.ID
		p.forms = append(p.forms, cp)
	}
	snap.forms = p.forms[:covered:covered]
	snap.keys = s.b.keys[:covered:covered]
	snap.rows, snap.vals, snap.attrs = s.b.rows[:covered:covered], s.b.lib, s.b.attrs

	if err := snap.buildEntities(res.Partitions); err != nil {
		sp.End()
		return nil, err
	}
	described := p.describe(s.g)
	snap.pairs = p.pairs
	snap.linkMerged()
	sp.EndArgs(map[string]any{"pairs": len(snap.pairs), "described": described})
	return snap, nil
}

// publication is what a session's last export leaves for the next: the
// reference copies, the decision map, and per pair-node id the decision
// exported with the inputs it was described from. It resets with the
// graph.
type publication struct {
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
// snapshot's references and a partition map whose parts list member ids in
// ascending order: one entity per part, in canonical-id order, attribute
// values unioned over the members (the MAX-rule view enrichment builds
// implicitly), and the reference-to-entity index. It runs once at export
// and again when a snapshot is decoded from its persisted form, which
// carries only the base data; for the latter it is the coherence check, so
// a part that is empty, names a reference the snapshot lacks, lists its
// members out of order, overlaps another part or holds a member of another
// class is an error.
func (snap *Snapshot) buildEntities(partitions map[string][][]reference.ID) error {
	type part struct {
		class string
		ids   []reference.ID
	}
	var parts []part
	for class, ps := range partitions {
		for _, ids := range ps {
			if len(ids) == 0 {
				return fmt.Errorf("empty %s partition", class)
			}
			parts = append(parts, part{class, ids})
		}
	}
	// Two parts with one first id overlap, so the class tie-break only
	// makes which of them the error names deterministic.
	slices.SortFunc(parts, func(x, y part) int {
		return cmp.Or(cmp.Compare(x.ids[0], y.ids[0]), cmp.Compare(x.class, y.class))
	})
	snap.entities = make([]*Entity, len(parts))
	snap.entityOf = make([]int32, len(snap.forms))
	for i := range snap.entityOf {
		snap.entityOf[i] = -1
	}
	for i, p := range parts {
		ent := &Entity{
			Label:     i,
			Class:     p.class,
			Canonical: p.ids[0],
			Members:   p.ids,
			Atomic:    make(map[string][]string),
			nameAttr:  snap.nameAttrs[p.class],
		}
		for j, id := range p.ids {
			switch {
			case id < 0 || int(id) >= len(snap.forms):
				return fmt.Errorf("%s partition member %d outside %d references", p.class, id, len(snap.forms))
			case j > 0 && id <= p.ids[j-1]:
				return fmt.Errorf("%s partition members %d, %d not ascending", p.class, p.ids[j-1], id)
			case snap.entityOf[id] >= 0:
				return fmt.Errorf("reference %d in two partitions", id)
			case snap.forms[id].Class != p.class:
				return fmt.Errorf("%s partition member %d is a %s", p.class, id, snap.forms[id].Class)
			}
			snap.entityOf[id] = int32(i)
			// Attribute order is immaterial: each attribute's values are
			// unioned on their own, in member order.
			r := snap.forms[id]
			for _, a := range r.AtomicAttrs() {
				for _, v := range r.Atomic(a) {
					if !slices.Contains(ent.Atomic[a], v) {
						ent.Atomic[a] = append(ent.Atomic[a], v)
					}
				}
			}
		}
		ent.union = reference.Record{Class: p.class, Atomic: ent.Atomic}.Reference()
		snap.entities[i] = ent
	}
	return nil
}
