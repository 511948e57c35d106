package recon

// Query-time reconciliation, after Bhattacharya & Getoor: a query
// reference is resolved against an immutable Snapshot by generating
// candidates through the blocking index (never an O(n) scan) and scoring
// each candidate *entity* with the comparators and class decision trees
// construction uses. The entity's unioned values stand in for reference
// enrichment: the MAX rule over the union is what the enriched canonical
// reference would expose.

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
)

// Query is one reconciliation question against a snapshot: a partial
// description of an entity of one class.
type Query struct {
	// Class is the schema class queried (required).
	Class string
	// Atomic maps attribute names to the query's values.
	Atomic map[string][]string
	// Assoc maps association attribute names to stored reference ids the
	// queried entity is known to link to (e.g. an article query naming
	// its already-reconciled authors). Only the CollectiveMatcher reads
	// it; the attribute-only Matcher ignores associations.
	Assoc map[string][]reference.ID
	// Limit bounds the returned candidates (<= 0 means the Matcher's
	// default of 10).
	Limit int
}

// Candidate is one scored entity candidate.
type Candidate struct {
	// Entity points into the snapshot (read-only).
	Entity *Entity
	// Score is the class decision-tree similarity in [0, 1].
	Score float64
	// Match reports a confident match: the top candidate clears the merge
	// threshold and no runner-up does.
	Match bool
}

// MatchStats describes one Match call's candidate generation.
type MatchStats struct {
	// CandidateRefs is the number of references the blocking index
	// returned for the query's keys (the pre-grouping candidate-set size).
	CandidateRefs int
	// CandidateEntities is the number of distinct entities scored.
	CandidateEntities int
}

// Matcher answers reconciliation queries against one Snapshot. It owns a
// per-snapshot evidence model — corpus statistics and per-class blocking
// indexes fed from the snapshot's copied values, never the live session's
// — so concurrent Match calls share nothing mutable with ingest. Build one
// Matcher per published snapshot; Match is safe for concurrent use.
type Matcher struct {
	*evidence
	snap *Snapshot
	// unions is each entity's union's value row, by Entity.Label.
	unions []valueRow
	// keys is each stored reference's blocking keys as fed, by id.
	keys [][]string
	// cands and assocs memoize queryHost's answers per stored reference,
	// filled on first use: a publish costs two zeroed slices.
	cands  []atomic.Pointer[[]reference.ID]
	assocs []atomic.Pointer[[][]reference.ID]
}

// NewMatcher indexes a snapshot for query-time reconciliation. Cost is one
// pass over the snapshot's references (corpus statistics, and blocking
// keys, which a session's snapshot carries and a decoded one derives). So
// are the value rows: the matcher reads a session snapshot's ids through a
// fork of the session's library, interning nothing, and interns a decoded
// snapshot's values here, once.
func NewMatcher(sch *schema.Schema, cfg Config, snap *Snapshot) *Matcher {
	m := &Matcher{
		evidence: newEvidence(sch, cfg),
		snap:     snap,
		unions:   make([]valueRow, len(snap.entities)),
		keys:     make([][]string, len(snap.forms)),
		cands:    make([]atomic.Pointer[[]reference.ID], len(snap.forms)),
		assocs:   make([]atomic.Pointer[[][]reference.ID], len(snap.forms)),
	}
	if snap.vals != nil && slices.Equal(snap.attrs, m.attrs) {
		m.rows, m.lib = snap.rows, snap.vals
	} else {
		m.rows = make([]valueRow, len(snap.forms))
		for i, r := range snap.forms {
			m.rows[i] = m.valueRow(r)
		}
	}
	m.lib = m.lib.Fork()
	if cfg.Obs != nil {
		m.lib.SetCounters(cfg.Obs.Counters)
	}
	for i, r := range snap.forms {
		m.keys[i] = m.feed(r, snap.keys[i])
	}
	for i, ent := range snap.entities {
		if m.unions[i] = m.rows[ent.Canonical]; len(ent.Members) > 1 {
			m.unions[i] = m.valueRow(ent.union)
		}
	}
	return m
}

// Snapshot returns the snapshot the matcher serves.
func (m *Matcher) Snapshot() *Snapshot { return m.snap }

// Match resolves one query: blocking-index candidate lookup, grouping into
// entities, and decision-tree scoring of each entity, returning candidates
// in descending score order (ties broken by canonical id).
func (m *Matcher) Match(q Query) ([]Candidate, MatchStats, error) {
	q.Assoc = nil // the attribute-only matcher reads no associations
	qr, err := m.queryRef(q)
	if err != nil || qr.IsEmpty() {
		return nil, MatchStats{}, err
	}
	cands, stats := m.score(qr, m.valueRow(qr))
	return m.Rank(cands, q.Limit), stats, nil
}

// score generates the query reference's blocking candidates, groups them
// into entities and scores each entity once; the result is unranked. qrow
// is the query's value row, looked up, never interned.
func (m *Matcher) score(qr *reference.Reference, qrow valueRow) ([]Candidate, MatchStats) {
	ids := m.candidates(qr.Class, m.keysOf(qr))
	seen := make(map[int]bool)
	var cands []Candidate
	for _, id := range ids {
		ent := m.snap.EntityOf(id)
		if ent == nil || seen[ent.Label] {
			continue
		}
		seen[ent.Label] = true
		cands = append(cands, Candidate{Entity: ent, Score: m.scoreEntity(qr, qrow, ent)})
	}
	return cands, MatchStats{CandidateRefs: len(ids), CandidateEntities: len(cands)}
}

// queryRef checks a query against the schema, and its association targets
// against the snapshot, and materializes it as a free-standing reference
// of its class. Association target lists are sorted, so permuting them in
// the query cannot change a collective result.
func (m *Matcher) queryRef(q Query) (*reference.Reference, error) {
	rec := reference.Record{Class: q.Class, Atomic: q.Atomic}
	if len(q.Assoc) > 0 {
		rec.Assoc = make(map[string][]reference.ID, len(q.Assoc))
		for attr, ts := range q.Assoc {
			ts = append([]reference.ID(nil), ts...)
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			rec.Assoc[attr] = ts
		}
	}
	classOf := func(id reference.ID) (string, bool) {
		sr, ok := m.snap.Ref(id)
		if !ok {
			return "", false
		}
		return sr.Class, true
	}
	if err := rec.Check(m.sch, classOf); err != nil {
		return nil, fmt.Errorf("recon: query: %w", err)
	}
	return rec.Reference(), nil
}

// Rank is the one candidate ranking: score descending with ties broken by
// canonical id, truncated to limit (<= 0 means 10), and the Match flag set
// on the top candidate iff it clears the merge threshold and no runner-up
// does (an ambiguous result must not auto-match, per the OpenRefine
// protocol's intent). Callers that merge candidate lists across classes
// rank the merged list again; flags set by an earlier ranking are cleared.
func (m *Matcher) Rank(cands []Candidate, limit int) []Candidate {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Entity.Canonical < cands[j].Entity.Canonical
	})
	if limit <= 0 {
		limit = 10
	}
	if len(cands) > limit {
		cands = cands[:limit]
	}
	for i := range cands {
		cands[i].Match = false
	}
	if len(cands) > 0 && cands[0].Score >= refMergeThreshold && (len(cands) == 1 || cands[1].Score < refMergeThreshold) {
		cands[0].Match = true
	}
	return cands
}

// scoreEntity scores the query against one entity's unioned attribute
// values: per evidence label, the maximum comparator similarity over the
// value cross product (above the same evidence floor construction uses),
// combined by the class decision tree (every tree scores no evidence 0).
func (m *Matcher) scoreEntity(qr *reference.Reference, qrow valueRow, ent *Entity) float64 {
	var ev simfn.Evidence
	m.eachScored(qr, ent.union, qrow, m.unions[ent.Label], func(v valCompare, _, _ string, sim float64) {
		ev.Observe(m.cmps[v.row].evidence, sim)
	})
	return m.row(qr.Class).score.SRV(&ev)
}
