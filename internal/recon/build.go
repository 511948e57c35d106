package recon

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"refrecon/internal/depgraph"
	"refrecon/internal/obs"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// builder constructs the dependency graph for one dataset. It supports
// incremental operation: incorporate may be called repeatedly with batches
// of new references (the paper's §7 future-work direction), each call
// extending the graph with the new candidate pairs and their dependencies.
type builder struct {
	// evidence is the §3.1 model the graph is built from; its statistics,
	// dictionary, value rows and blocking indexes outlive a batch.
	*evidence
	store *reference.Store
	g     *depgraph.Graph

	// fresh accumulates the RefPair nodes created since the last drain;
	// association wiring and engine seeding work off it.
	fresh []*depgraph.Node
	// removed tombstones the blocked pairs the wire stage pruned, so the
	// induced path does not rebuild them. bare holds the ordered signature
	// pairs (sigOf(r1)<<32 | sigOf(r2)) of induced requests found without
	// evidence or constraint, a verdict of the two references' values and
	// the statistics, which grow between batches: both live for one batch.
	removed, bare map[uint64]struct{}
	// keys is each fed reference's blocking keys, by id: append-only, so a
	// snapshot shares its prefix.
	keys [][]string
	// sigs is each reference's value-signature id (0: not yet assigned);
	// sigIDs interns the signatures.
	sigs    []uint32
	sigIDs  map[string]uint32
	induced inducedCounts
	// batch is the 1-based ordinal of the incorporate call in progress (a
	// snapshot's version).
	batch int

	// parsed caches the parsed attribute values the person constraint
	// reads, keyed by reference id.
	parsed map[reference.ID]*parsedPerson
	// elems names the graph's value elements (rowOf); valScratch and
	// simScratch back the induced path's value comparisons and scores.
	elems      elemTable
	valScratch []valCompare
	simScratch []float64

	candidatePairs int
	skippedBuckets int
	// fedPairs / fedSkipped are the watermarks of what feedCounters has
	// already reported, so incremental batches report deltas, not totals.
	fedPairs   int
	fedSkipped int
	// times accumulates incorporate's four timed stages across batches.
	times struct{ enumerate, score, wire, associations time.Duration }

	// contacts is each pooled rule's contact index for the batch in
	// progress: the store does not change inside one incorporate.
	contacts map[*assocRule]*contactIndex
	// joinPos and hits are the contact join's reused buffers (rowHits);
	// probes counts its pair lookups and walked pair nodes.
	joinPos []int32
	hits    []contactHit
	probes  int
	// pooled, set only by tests, replaces the two contact passes of
	// wirePooled.
	pooled func(class string, rule *assocRule, fresh []*depgraph.Node, ci *contactIndex)
}

// inducedCounts splits a batch's ensureRefPair requests for the
// build.associations span: found an existing node, hit the bare memo, or
// were evaluated, of which kept got a node. The rest were self, cross-class
// or tombstoned.
type inducedCounts struct{ requests, found, memoHits, evaluated, kept int }

func newBuilder(store *reference.Store, sch *schema.Schema, cfg Config) *builder {
	b := &builder{
		evidence: newEvidence(sch, cfg),
		store:    store,
		g:        depgraph.New(),
		removed:  make(map[uint64]struct{}),
		bare:     make(map[uint64]struct{}),
		sigIDs:   make(map[string]uint32),
		parsed:   make(map[reference.ID]*parsedPerson),
		contacts: make(map[*assocRule]*contactIndex),
	}
	b.elems = newElemTable(b.evidence, b.g)
	return b
}

// rowOf returns r's value row, made on first sight, its values interned
// and their graph elements named: at feed, or for a reference no batch fed
// (a unit test's) when a pair of it is first requested.
func (b *builder) rowOf(r *reference.Reference) valueRow {
	if int(r.ID) < len(b.rows) && b.rows[r.ID] != nil {
		return b.rows[r.ID]
	}
	row := b.valueRow(r)
	for k, ids := range row {
		vs := r.Atomic(b.attrs[k])
		for i, id := range ids {
			b.elems.elem(k, id, vs[i])
		}
	}
	if n := int(r.ID) + 1 - len(b.rows); n > 0 {
		b.rows = append(b.rows, make([]valueRow, n)...)
	}
	b.rows[r.ID] = row
	return row
}

// feedCounters reports the construction-phase counters — candidate pairs
// emitted, cap-skipped buckets, blocking-index size, largest bucket —
// into the observer's counter set. Safe with a nil set; incremental
// sessions call it once per batch and it adds only the batch's delta.
func (b *builder) feedCounters(c *obs.Counters) {
	if c == nil {
		return
	}
	c.BlockingCandidates.Add(int64(b.candidatePairs - b.fedPairs))
	b.fedPairs = b.candidatePairs
	c.SkippedBuckets.Add(int64(b.skippedBuckets - b.fedSkipped))
	b.fedSkipped = b.skippedBuckets
	keys, maxBucket := 0, 0
	for _, idx := range b.indexes {
		keys += idx.Keys()
		if m := idx.MaxBucket(); m > maxBucket {
			maxBucket = m
		}
	}
	obs.UpdateMax(&c.BlockingKeys, int64(keys))
	obs.UpdateMax(&c.MaxBucket, int64(maxBucket))
}

// stage runs fn as one of incorporate's four timed stages: a "build.<name>"
// span inside the commit's build phase span, its duration added to *total
// (Stats reports the totals), and fn's result as the span's args (nil for
// none). What incorporate does outside the stages — library statistics,
// blocking keys, constraint seeding — is the build span's self time.
func (b *builder) stage(name string, total *time.Duration, fn func() map[string]any) {
	sp := b.cfg.Obs.Tracer().Begin("build", "build."+name)
	start := time.Now()
	args := fn()
	*total += time.Since(start)
	sp.EndArgs(args)
}

// incorporate extends the graph with a batch of new references — the two
// construction passes of §3.1 plus constraint seeding: library statistics,
// blocking keys, candidate pairs involving the new references, association
// dependencies, and constraints. It returns the RefPair nodes created by
// this batch in seed order: by class rank, so the engine evaluates
// dependees before dependents (§3.2).
func (b *builder) incorporate(newRefs []*reference.Reference) []*depgraph.Node {
	b.batch++
	clear(b.removed)
	clear(b.bare)
	clear(b.contacts)
	b.induced, b.probes = inducedCounts{}, 0
	// newKeys is each class's blocking keys of the batch: the buckets its
	// candidate pairs come from.
	newByClass, newKeys := make(map[string][]reference.ID), make(map[string][]string)
	for _, r := range newRefs {
		b.rowOf(r)
		keys := b.feed(r, nil)
		b.keys = append(b.keys, keys)
		newByClass[r.Class] = append(newByClass[r.Class], r.ID)
		newKeys[r.Class] = append(newKeys[r.Class], keys...)
	}

	var batch []*depgraph.Node
	drain := func() []*depgraph.Node {
		f := b.fresh
		b.fresh = nil
		batch = append(batch, f...)
		return f
	}

	// Pass 1: blocked candidate pairs involving the new references, in
	// three phases — serial enumeration of per-pair value comparisons,
	// parallel scoring over the worker pool, and serial wiring of nodes
	// and edges (the graph is single-writer). See pairscore.go.
	var items []pairItem
	var vals []valCompare
	var sims []float64
	b.stage("enumerate", &b.times.enumerate, func() map[string]any {
		for _, class := range b.sch.Classes() {
			ids := newByClass[class.Name]
			idx := b.indexes[class.Name]
			if len(ids) == 0 || idx == nil {
				continue
			}
			// The batch is the store's id suffix from its first id on, so the
			// pairs involving a new reference are those of the batch's own
			// keys whose larger id is in the batch. No tombstone to consult:
			// this batch's tombstones are laid by the wire stage, which runs
			// after enumeration.
			keys := newKeys[class.Name]
			slices.Sort(keys)
			idx.PairsFrom(slices.Compact(keys), newRefs[0].ID, func(x, y reference.ID) {
				b.candidatePairs++
				r1, r2 := b.store.Get(x), b.store.Get(y)
				if r1.ID == r2.ID || r1.Class != r2.Class || b.g.LookupRefPair(r1.ID, r2.ID) != nil {
					return
				}
				lo := len(vals)
				vals = b.appendVals(vals, r1, r2)
				items = append(items, pairItem{r1, r2, lo, len(vals)})
			})
		}
		// An index's SkippedBuckets is its count of over-cap buckets now,
		// so the builder's is the sum over the class indexes, never summed
		// again across commits.
		b.skippedBuckets = 0
		for _, idx := range b.indexes {
			b.skippedBuckets += idx.SkippedBuckets()
		}
		return nil
	})
	b.stage("score", &b.times.score, func() map[string]any { sims = b.scoreItems(items, vals); return nil })
	b.stage("wire", &b.times.wire, func() map[string]any {
		for _, it := range items {
			if b.wireScored(it.r1, it.r2, false, vals[it.lo:it.hi], sims[it.lo:it.hi]) == nil {
				b.removed[pairIndex(it.r1.ID, it.r2.ID)] = struct{}{}
			}
		}
		return nil
	})
	// Pass 2: association dependencies over the fresh pairs; induced pairs
	// created while wiring are themselves wired on the next sweep. Induced
	// pairs are scored here, serially, as they are discovered.
	b.stage("associations", &b.times.associations, func() map[string]any {
		for sweep := 0; sweep < 4 && len(b.fresh) > 0; sweep++ {
			b.buildAssociations(drain())
		}
		in := b.induced
		return map[string]any{
			"requests": in.requests, "found": in.found, "memoHits": in.memoHits,
			"evaluated": in.evaluated, "kept": in.kept, "probes": b.probes,
		}
	})
	drain()

	// Distinct-target constraints (the co-author rule) add non-merge nodes
	// for the new references.
	if b.cfg.Constraints {
		for _, class := range b.sch.Classes() {
			if attr := b.row(class.Name).distinct; attr != "" {
				b.markDistinctTargets(class, attr, newByClass[class.Name])
			}
		}
	}
	drain()

	return seedSort(b.sch, batch)
}

// seedSort orders nodes by class rank with an explicit total-order
// tie-break on the reference-id pair, so seed order (and therefore
// propagation order) cannot depend on map iteration, creation history, or
// scheduling. The key is computed once per node; the reference pair
// already makes it a total order on RefPair nodes (a pair appears at most
// once), and the batch position settles hypothetical duplicate entries as
// a stable sort would.
func seedSort(sch *schema.Schema, nodes []*depgraph.Node) []*depgraph.Node {
	type seedKey struct {
		rank, pos int
		a, b      reference.ID
		n         *depgraph.Node
	}
	keys := make([]seedKey, len(nodes))
	for i, n := range nodes {
		keys[i] = seedKey{pos: i, a: n.RefA(), b: n.RefB(), n: n}
		if c, ok := sch.Class(n.Class()); ok {
			keys[i].rank = c.Rank
		}
	}
	slices.SortFunc(keys, func(x, y seedKey) int {
		return cmp.Or(cmp.Compare(x.rank, y.rank), cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b), cmp.Compare(x.pos, y.pos))
	})
	for i, k := range keys {
		nodes[i] = k.n
	}
	return nodes
}

// ensureRefPair returns the RefPair node for (r1, r2), creating it together
// with its atomic-value evidence nodes on first sight. It returns nil when
// the pair has no comparable evidence at all (the paper removes such nodes,
// §3.1 step 1(2)) or the wire stage pruned it this batch. Every request is
// an induced pair, discovered through associations rather than blocking; a
// class whose row says keepInduced treats those more leniently
// (wireScored). A request whose value signatures were found bare earlier in
// the batch is answered from the memo without enumerating anything.
func (b *builder) ensureRefPair(r1, r2 *reference.Reference) *depgraph.Node {
	b.induced.requests++
	if r1.ID == r2.ID || r1.Class != r2.Class {
		return nil
	}
	if n := b.g.LookupRefPair(r1.ID, r2.ID); n != nil {
		b.induced.found++
		return n
	}
	if _, ok := b.removed[pairIndex(r1.ID, r2.ID)]; ok {
		return nil
	}
	sig := uint64(b.sigOf(r1))<<32 | uint64(b.sigOf(r2))
	if _, ok := b.bare[sig]; ok {
		b.induced.memoHits++
		return nil
	}
	b.induced.evaluated++
	b.valScratch = b.appendVals(b.valScratch[:0], r1, r2)
	n := b.wireScored(r1, r2, true, b.valScratch, b.scoreVals(b.valScratch))
	switch {
	case n != nil:
		b.induced.kept++
	default:
		b.bare[sig] = struct{}{}
	}
	return n
}

// sigOf returns the reference's value-signature id: two references share
// one exactly when they have the same class and the same values, in stored
// order, under every atomic attribute — all that a pair's comparisons and
// its constraint read of a reference; a row whose verdict read more would
// have to extend it. Ids are dense from 1, assigned on first request and
// kept for the builder's lifetime.
func (b *builder) sigOf(r *reference.Reference) uint32 {
	if int(r.ID) >= len(b.sigs) {
		b.sigs = append(b.sigs, make([]uint32, b.store.Len()-len(b.sigs))...)
	}
	if b.sigs[r.ID] == 0 {
		// Quoting keeps the concatenation unambiguous.
		key := strconv.Quote(r.Class)
		for _, attr := range r.AtomicAttrs() {
			key += fmt.Sprintf("%q%q", attr, r.Atomic(attr))
		}
		if b.sigIDs[key] == 0 {
			b.sigIDs[key] = uint32(len(b.sigIDs) + 1)
		}
		b.sigs[r.ID] = b.sigIDs[key]
	}
	return b.sigs[r.ID]
}

// wireScored is the serial wiring phase behind ensureRefPair. It decides
// from the precomputed similarities (sims is indexed like vals), the
// evidence floors and the row's pair constraint whether the pair belongs in
// the graph, and only then creates the RefPair node together with its
// atomic-value evidence nodes; a pruned pair gets no node and wireScored
// returns nil. Callers have already screened the pair: distinct ids, same
// class, no node yet (blocking emits each pair once), not removed.
func (b *builder) wireScored(r1, r2 *reference.Reference, induced bool, vals []valCompare, sims []float64) *depgraph.Node {
	row := b.row(r1.Class)
	relax := induced && row.keepInduced
	hasEvidence := false
	for i, v := range vals {
		if sims[i] >= evidenceFloor(b.cmps[v.row].by, relax) {
			hasEvidence = true
			break
		}
	}
	// Constraint-violating pairs are kept even without evidence and marked
	// non-merge: §3.4 requires constrained nodes to exist in the graph so
	// negative evidence can propagate (they are what makes the constrained
	// graph of Table 6 *larger*). A non-merge node is different from a
	// non-existing node.
	constrained := b.cfg.Constraints && row.constrained != nil && row.constrained(b, r1, r2)
	if !hasEvidence && !relax && !constrained {
		return nil
	}
	m := b.g.AddRefPair(r1.ID, r2.ID, r1.Class)
	for i, v := range vals {
		if cmp := b.cmps[v.row]; sims[i] >= evidenceFloor(cmp.by, relax) {
			b.elems.wire(m, v, b.elems.ids[cmp.ea][v.x], b.elems.ids[cmp.eb][v.y], sims[i])
		}
	}
	if constrained {
		b.g.MarkNonMerge(m)
	}
	b.fresh = append(b.fresh, m)
	return m
}

// buildAssociations wires, for each fresh pair, the dependencies its
// class's association rules induce (§3.1 step 2): a shared link target, or
// the pair of two link targets — created on demand as an induced pair —
// is evidence for the fresh pair, and where the rule says so the fresh
// pair's merge pushes the target pair back. Pooled rules are wired in a
// second pass over the same pairs (wirePooled).
func (b *builder) buildAssociations(fresh []*depgraph.Node) {
	for _, m := range fresh {
		rules := b.row(m.Class()).assoc
		if len(rules) == 0 || !m.Alive() {
			continue
		}
		r1 := b.store.Get(m.RefA())
		r2 := b.store.Get(m.RefB())
		for i := range rules {
			rule := &rules[i]
			if rule.pool != nil {
				continue
			}
			for _, a1 := range r1.Assoc(rule.attr) {
				for _, a2 := range r2.Assoc(rule.attr) {
					if a1 == a2 {
						b.g.AddEdge(b.g.SharedTarget(a1), m, rule.dep, rule.evidence)
						continue
					}
					n := b.ensureRefPair(b.store.Get(a1), b.store.Get(a2))
					if n == nil || n == m {
						continue
					}
					b.g.AddEdge(n, m, rule.dep, rule.evidence)
					if rule.back != "" {
						b.g.AddEdge(m, n, depgraph.StrongBoolean, rule.back)
					}
				}
			}
		}
	}
	for _, class := range b.sch.Classes() {
		rules := b.row(class.Name).assoc
		for i := range rules {
			if rules[i].pool != nil {
				b.wirePooled(class.Name, &rules[i], fresh)
			}
		}
	}
}

// contactIndex is, for one pooled rule and one batch, who lists each
// reference of the store as a contact (listers) and each reference's
// contacts under the popularity cap, in target order
// (admitted[off[r]:off[r+1]]).
type contactIndex struct {
	listers  [][]reference.ID
	popCap   int
	admitted []reference.ID
	off      []int32
}

// contactIndexFor returns the rule's contact index for the batch in
// progress, building it on the batch's first association sweep. A contact
// shared with everyone carries no information: the dataset owner appears
// in every contact list, and mailing lists relate all their recipients.
// Contacts are weighted by discarding the hyper-popular ones (the paper's
// §4 suggestion to "consider the relative size of the value set of an
// associated attribute").
func (b *builder) contactIndexFor(class string, rule *assocRule) *contactIndex {
	if ci := b.contacts[rule]; ci != nil {
		return ci
	}
	refs := b.store.ByClass(class)
	ci := &contactIndex{
		listers: make([][]reference.ID, b.store.Len()),
		popCap:  max(len(refs)/50, 12),
		off:     make([]int32, b.store.Len()+1),
	}
	for _, id := range refs {
		for _, c := range rule.targets(b.store.Get(id)) {
			ci.listers[c] = append(ci.listers[c], id)
		}
	}
	for id, r := range b.store.All() {
		if r.Class == class {
			for _, c := range rule.targets(r) {
				if len(ci.listers[c]) <= ci.popCap {
					ci.admitted = append(ci.admitted, c)
				}
			}
		}
		ci.off[id+1] = int32(len(ci.admitted))
	}
	b.contacts[rule] = ci
	return ci
}

// admittedOf returns r's contacts under the popularity cap.
func (ci *contactIndex) admittedOf(r reference.ID) []reference.ID {
	return ci.admitted[ci.off[r]:ci.off[r+1]:ci.off[r+1]]
}

// wirePooled adds the dependencies of one pooled rule between pairs of its
// class — the weak-boolean contact/co-author dependencies between person
// pairs (§3.1 step 2, Figure 2(b)). Only existing pair nodes participate:
// a contact pair with no node cannot contribute (the paper's (p4, p7)
// note). Both passes walk a product of two reference lists for existing
// pairs; rowHits joins them.
func (b *builder) wirePooled(class string, rule *assocRule, fresh []*depgraph.Node) {
	ci := b.contactIndexFor(class, rule)
	if len(b.joinPos) < b.store.Len() {
		b.joinPos = make([]int32, b.store.Len())
	}
	if b.pooled != nil {
		b.pooled(class, rule, fresh, ci)
		return
	}

	// Inverse wiring: a fresh pair is itself contact evidence for every
	// existing pair whose references list its two members. In batch
	// construction this duplicates the forward pass (edges dedupe); in
	// incremental batches it is what connects new contact decisions to
	// pre-existing pairs.
	for _, n := range fresh {
		if n.Class() != class || !n.Alive() {
			continue
		}
		l1, l2 := ci.listers[n.RefA()], ci.listers[n.RefB()]
		if len(l1) > ci.popCap || len(l2) > ci.popCap {
			continue
		}
		b.markJoin(l2, true)
		for _, r1 := range l1 {
			for _, h := range b.rowHits(n, r1, l2) {
				if h.n != nil {
					b.g.AddEdge(n, h.n, rule.dep, rule.evidence)
				}
			}
		}
		b.markJoin(l2, false)
	}

	// Forward wiring: for every admitted contact c1 of the fresh pair's
	// first reference and c2 of its second, in that nested order, a shared
	// contact (c1 = c2) adds the shared value node as evidence, even when
	// it is one of the pair's references, and an existing pair node (c1,
	// c2) adds an edge.
	for _, m := range fresh {
		if m.Class() != class || !m.Alive() {
			continue
		}
		c2s := ci.admittedOf(m.RefB())
		b.markJoin(c2s, true)
		for _, c1 := range ci.admittedOf(m.RefA()) {
			for _, h := range b.rowHits(m, c1, c2s) {
				src := h.n
				if src == nil {
					src = b.g.SharedTarget(c1)
				}
				b.g.AddEdge(src, m, rule.dep, rule.evidence)
			}
		}
		b.markJoin(c2s, false)
	}
}

// contactHit is one cell of a contact row: the position in ys it answers,
// 1-based, and the existing pair node there (nil: ys holds x itself).
type contactHit struct {
	pos int32
	n   *depgraph.Node
}

// markJoin sets (on) or clears each reference's 1-based position in ys
// for rowHits. No list it marks holds a reference twice: AddAssoc and
// targets deduplicate contact lists, and a reference lists a contact once.
func (b *builder) markJoin(ys []reference.ID, on bool) {
	for j, y := range ys {
		b.joinPos[y] = 0
		if on {
			b.joinPos[y] = int32(j + 1)
		}
	}
}

// rowHits returns, in ys order, the cells of row x of the product x × ys
// that matter to the pair m: ys holding x itself, and an existing pair
// node (x, y) where neither x nor y is one of m's references. Probing
// every cell costs the product, nearly all misses; with ys marked
// (markJoin), rowHits walks x's own live pair nodes instead, unless x's
// pair degree is at least len(ys). Sorting the hits by position puts them
// in the probe loop's order: the edge creation order that the engine's
// adjacency, and therefore its activation order, depends on.
func (b *builder) rowHits(m *depgraph.Node, x reference.ID, ys []reference.ID) []contactHit {
	ra, rb := m.RefA(), m.RefB()
	b.hits = b.hits[:0]
	if j := b.joinPos[x]; j != 0 {
		b.hits = append(b.hits, contactHit{pos: j})
	}
	if x == ra || x == rb {
		return b.hits
	}
	keep := func(y reference.ID, n *depgraph.Node) {
		b.probes++
		if j := b.joinPos[y]; j != 0 && n != nil && y != ra && y != rb {
			b.hits = append(b.hits, contactHit{pos: j, n: n})
		}
	}
	if b.g.RefPairDegree(x) >= len(ys) {
		for _, y := range ys {
			if y != x && y != ra && y != rb {
				keep(y, b.g.LookupRefPair(x, y))
			}
		}
	} else {
		b.g.EachRefPair(x, keep)
	}
	slices.SortFunc(b.hits, func(p, q contactHit) int { return cmp.Compare(p.pos, q.pos) })
	return b.hits
}

// markDistinctTargets enforces a row's distinct-targets constraint for the
// given references of one class — constraint 1 of §5.3: the authors of one
// article are distinct persons. Missing pair nodes are created (constraints
// add nodes to the graph, Table 6) and marked non-merge.
func (b *builder) markDistinctTargets(class *schema.Class, attr string, ids []reference.ID) {
	a, _ := class.Attr(attr)
	for _, id := range ids {
		targets := b.store.Get(id).Assoc(attr)
		for i := 0; i < len(targets); i++ {
			for j := i + 1; j < len(targets); j++ {
				n := b.g.LookupRefPair(targets[i], targets[j])
				if n == nil {
					n = b.g.AddRefPair(targets[i], targets[j], a.Target)
				}
				b.g.MarkNonMerge(n)
			}
		}
	}
}
