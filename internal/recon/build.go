package recon

import (
	"sort"
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
	// evidence is the §3.1 model the graph is built from; its library
	// statistics and blocking indexes are kept across incremental batches.
	*evidence
	store *reference.Store
	g     *depgraph.Graph

	// fresh accumulates the RefPair nodes created since the last drain;
	// association wiring and engine seeding work off it.
	fresh []*depgraph.Node
	// removed remembers pairs pruned for lack of evidence so they are not
	// rebuilt during the association pass, mapped to the batch ordinal
	// that pruned them. Within one batch the tombstone is final; an
	// association-induced request from a later batch may rebuild the pair
	// (see ensureRefPair).
	removed map[uint64]int
	// batch is the 1-based ordinal of the incorporate call in progress.
	batch int

	// parsed caches the parsed attribute values the person constraint
	// reads, keyed by reference id.
	parsed map[reference.ID]*parsedPerson
	// elems names the graph's value elements; simScratch backs scoreVals.
	elems      valueElems
	simScratch []float64

	candidatePairs int
	skippedBuckets int
	// fedPairs / fedSkipped are the watermarks of what feedCounters has
	// already reported, so incremental batches report deltas, not totals.
	fedPairs   int
	fedSkipped int
	// times accumulates incorporate's four timed stages across batches.
	times struct{ enumerate, score, wire, associations time.Duration }
}

func newBuilder(store *reference.Store, sch *schema.Schema, cfg Config) *builder {
	return &builder{
		evidence: newEvidence(sch, cfg),
		store:    store,
		g:        depgraph.New(),
		removed:  make(map[uint64]int),
		parsed:   make(map[reference.ID]*parsedPerson),
		elems:    make(valueElems),
	}
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
// (Stats reports the totals). What incorporate does outside the stages —
// library statistics, blocking keys, constraint seeding — is the build
// span's self time.
func (b *builder) stage(name string, total *time.Duration, fn func()) {
	sp := b.cfg.Obs.Tracer().Begin("build", "build."+name)
	start := time.Now()
	fn()
	*total += time.Since(start)
	sp.End()
}

// incorporate extends the graph with a batch of new references — the two
// construction passes of §3.1 plus constraint seeding: library statistics,
// blocking keys, candidate pairs involving the new references, association
// dependencies, and constraints. It returns the RefPair nodes created by
// this batch in seed order: by class rank, so the engine evaluates
// dependees before dependents (§3.2).
func (b *builder) incorporate(newRefs []*reference.Reference) []*depgraph.Node {
	b.batch++
	newByClass := make(map[string][]reference.ID)
	for _, r := range newRefs {
		b.feed(r)
		newByClass[r.Class] = append(newByClass[r.Class], r.ID)
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
	var items []*pairItem
	// Work items are carved from slab chunks: one allocation per 512
	// candidate pairs instead of one each. Pointers into a chunk stay
	// valid because a full chunk is retired, never regrown.
	var itemSlab []pairItem
	newItem := func(r1, r2 *reference.Reference, vals []valCompare) *pairItem {
		if len(itemSlab) == cap(itemSlab) {
			itemSlab = make([]pairItem, 0, 512)
		}
		itemSlab = append(itemSlab, pairItem{r1: r1, r2: r2, vals: vals})
		return &itemSlab[len(itemSlab)-1]
	}
	b.stage("enumerate", &b.times.enumerate, func() {
		for _, class := range b.sch.Classes() {
			ids := newByClass[class.Name]
			idx := b.indexes[class.Name]
			if len(ids) == 0 || idx == nil {
				continue
			}
			idx.PairsInvolving(ids, func(x, y reference.ID) {
				b.candidatePairs++
				r1, r2 := b.store.Get(x), b.store.Get(y)
				if r1.ID == r2.ID || r1.Class != r2.Class {
					return
				}
				if b.g.LookupRefPair(r1.ID, r2.ID) != nil || b.removed[pairIndex(r1.ID, r2.ID)] != 0 {
					return
				}
				items = append(items, newItem(r1, r2, b.enumerateVals(r1, r2)))
			})
			b.skippedBuckets += idx.SkippedBuckets()
		}
	})
	b.stage("score", &b.times.score, func() { b.scoreItems(items) })
	b.stage("wire", &b.times.wire, func() {
		for _, it := range items {
			b.wireScored(it.r1, it.r2, false, it.vals, it.sims)
		}
	})
	// Pass 2: association dependencies over the fresh pairs; induced pairs
	// created while wiring are themselves wired on the next sweep. Induced
	// pairs are scored here, serially, as they are discovered.
	b.stage("associations", &b.times.associations, func() {
		for sweep := 0; sweep < 4 && len(b.fresh) > 0; sweep++ {
			b.buildAssociations(drain())
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
// scheduling. The sort is stable; the tie-break already induces a total
// order on RefPair nodes (a pair appears at most once), so stability only
// matters for hypothetical duplicate entries.
func seedSort(sch *schema.Schema, nodes []*depgraph.Node) []*depgraph.Node {
	rankOf := func(n *depgraph.Node) int {
		if c, ok := sch.Class(n.Class()); ok {
			return c.Rank
		}
		return 0
	}
	sort.SliceStable(nodes, func(i, j int) bool {
		ri, rj := rankOf(nodes[i]), rankOf(nodes[j])
		if ri != rj {
			return ri < rj
		}
		if nodes[i].RefA() != nodes[j].RefA() {
			return nodes[i].RefA() < nodes[j].RefA()
		}
		return nodes[i].RefB() < nodes[j].RefB()
	})
	return nodes
}

// ensureRefPair returns the RefPair node for (r1, r2), creating it together
// with its atomic-value evidence nodes on first sight. It returns nil when
// the pair has no comparable evidence at all (the paper removes such nodes,
// §3.1 step 1(2)). induced marks pairs discovered through associations
// rather than blocking; a class whose row says keepInduced treats those
// more leniently (wireScored).
func (b *builder) ensureRefPair(r1, r2 *reference.Reference, induced bool) *depgraph.Node {
	if r1.ID == r2.ID || r1.Class != r2.Class {
		return nil
	}
	key := pairIndex(r1.ID, r2.ID)
	if n := b.g.LookupRefPair(r1.ID, r2.ID); n != nil {
		return n
	}
	if prunedIn, ok := b.removed[key]; ok {
		if !induced || prunedIn == b.batch {
			return nil
		}
		// The pair was pruned for lack of evidence in an earlier batch, but
		// this batch's associations reach for it: rebuild it. The induced
		// path keeps relaxed-threshold pairs (venues), and the library
		// statistics have grown since the pruning, so the original verdict
		// no longer stands — a permanent tombstone here made incremental
		// sessions silently drop association-driven evidence that the
		// equivalent batch run wires up.
		delete(b.removed, key)
	}
	vals := b.enumerateVals(r1, r2)
	return b.wireScored(r1, r2, induced, vals, b.scoreVals(vals))
}

// wireScored is the serial wiring phase behind ensureRefPair: it creates
// the RefPair node for (r1, r2) together with its atomic-value evidence
// nodes from the precomputed similarities (sims is indexed like vals).
// Callers have already screened the pair (distinct ids, same class, not
// present, not removed); duplicates are still tolerated and return the
// existing node.
func (b *builder) wireScored(r1, r2 *reference.Reference, induced bool, vals []valCompare, sims []float64) *depgraph.Node {
	if n := b.g.LookupRefPair(r1.ID, r2.ID); n != nil {
		return n
	}
	m := b.g.AddRefPair(r1.ID, r2.ID, r1.Class)

	row := b.row(r1.Class)
	relax := induced && row.keepInduced
	hasEvidence := false
	for i, v := range vals {
		if sims[i] < evidenceFloor(v.cmp.by, relax) {
			continue
		}
		wireValuePair(b.g, m, b.elems, v, sims[i], b.cfg.AttrMergeThreshold)
		hasEvidence = true
	}
	// Constraint-violating pairs are kept even without evidence and marked
	// non-merge: §3.4 requires constrained nodes to exist in the graph so
	// negative evidence can propagate (they are what makes the constrained
	// graph of Table 6 *larger*). A non-merge node is different from a
	// non-existing node.
	if b.cfg.Constraints && row.constrained != nil && row.constrained(b, r1, r2) {
		b.g.MarkNonMerge(m)
	} else if !hasEvidence && !relax {
		b.g.RemoveIfIsolated(m)
		b.removed[pairIndex(r1.ID, r2.ID)] = b.batch
		return nil
	}
	b.fresh = append(b.fresh, m)
	return m
}

// sharedValueNode returns a merged ValuePair node representing an
// association target shared by both references (the paper's (a1, a1) node,
// §3.1 step 2). Its similarity is 1 by construction.
func (b *builder) sharedValueNode(target reference.ID) *depgraph.Node {
	elem := "r:" + strconv.Itoa(int(target))
	n := b.g.AddValuePair("shared", elem, elem, 1)
	b.g.MarkMerged(n)
	return n
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
						b.g.AddEdge(b.sharedValueNode(a1), m, rule.dep, rule.evidence)
						continue
					}
					n := b.ensureRefPair(b.store.Get(a1), b.store.Get(a2), true)
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

// wirePooled adds the dependencies of one pooled rule between pairs of its
// class — the weak-boolean contact/co-author dependencies between person
// pairs (§3.1 step 2, Figure 2(b)). Only existing pair nodes participate:
// a contact pair with no node cannot contribute (the paper's (p4, p7)
// note).
func (b *builder) wirePooled(class string, rule *assocRule, fresh []*depgraph.Node) {
	// A contact shared with everyone carries no information: the dataset
	// owner appears in every contact list, and mailing lists relate all
	// their recipients. Weight contacts by discarding the hyper-popular
	// ones (the paper's §4 suggestion to "consider the relative size of
	// the value set of an associated attribute").
	refs := b.store.ByClass(class)
	listers := make(map[reference.ID][]reference.ID)
	for _, id := range refs {
		for _, c := range rule.targets(b.store.Get(id)) {
			listers[c] = append(listers[c], id)
		}
	}
	popCap := len(refs) / 50
	if popCap < 12 {
		popCap = 12
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
		if len(listers[n.RefA()]) > popCap || len(listers[n.RefB()]) > popCap {
			continue
		}
		for _, r1 := range listers[n.RefA()] {
			for _, r2 := range listers[n.RefB()] {
				if r1 == r2 || r1 == n.RefA() || r1 == n.RefB() || r2 == n.RefA() || r2 == n.RefB() {
					continue
				}
				if m := b.g.LookupRefPair(r1, r2); m != nil && m != n {
					b.g.AddEdge(n, m, rule.dep, rule.evidence)
				}
			}
		}
	}

	for _, m := range fresh {
		if m.Class() != class || !m.Alive() {
			continue
		}
		c1s := rule.targets(b.store.Get(m.RefA()))
		c2s := rule.targets(b.store.Get(m.RefB()))
		for _, c1 := range c1s {
			if len(listers[c1]) > popCap {
				continue
			}
			for _, c2 := range c2s {
				if len(listers[c2]) > popCap {
					continue
				}
				if c1 == c2 {
					b.g.AddEdge(b.sharedValueNode(c1), m, rule.dep, rule.evidence)
					continue
				}
				if c1 == m.RefA() || c1 == m.RefB() || c2 == m.RefA() || c2 == m.RefB() {
					continue
				}
				if n := b.g.LookupRefPair(c1, c2); n != nil && n != m {
					b.g.AddEdge(n, m, rule.dep, rule.evidence)
				}
			}
		}
	}
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
