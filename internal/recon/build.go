package recon

import (
	"sort"

	"refrecon/internal/blocking"
	"refrecon/internal/depgraph"
	"refrecon/internal/emailaddr"
	"refrecon/internal/names"
	"refrecon/internal/obs"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
	"refrecon/internal/tokenizer"
)

// attrCompare declares one comparable attribute pair (§3.1: values "of the
// same attribute, or according to the domain knowledge of related
// attributes, such as a name and an email").
type attrCompare struct {
	attrA, attrB string
	evidence     string
	// swap is set when Compare expects (attrB, attrA) argument order
	// (the name-vs-email comparator takes the name first).
	swap bool
}

// atomicComparisons returns the comparable attribute pairs for a class at
// an evidence level.
func atomicComparisons(class string, level EvidenceLevel) []attrCompare {
	switch class {
	case schema.ClassPerson:
		cmp := []attrCompare{
			{schema.AttrName, schema.AttrName, simfn.EvName, false},
			{schema.AttrEmail, schema.AttrEmail, simfn.EvEmail, false},
		}
		if level >= EvidenceNameEmail {
			cmp = append(cmp,
				attrCompare{schema.AttrName, schema.AttrEmail, simfn.EvNameEmail, false},
				attrCompare{schema.AttrEmail, schema.AttrName, simfn.EvNameEmail, true},
			)
		}
		return cmp
	case schema.ClassArticle:
		return []attrCompare{
			{schema.AttrTitle, schema.AttrTitle, simfn.EvTitle, false},
			{schema.AttrYear, schema.AttrYear, simfn.EvYear, false},
			{schema.AttrPages, schema.AttrPages, simfn.EvPages, false},
		}
	case schema.ClassVenue:
		return []attrCompare{
			{schema.AttrName, schema.AttrName, simfn.EvVenueName, false},
			{schema.AttrYear, schema.AttrYear, simfn.EvYear, false},
			{schema.AttrLocation, schema.AttrLocation, simfn.EvLocation, false},
		}
	default:
		return nil
	}
}

// genericComparisons derives same-attribute comparisons for classes the
// built-in tables don't know, so custom schemas (product catalogs, ...)
// reconcile with the generic string comparator and the srvGeneric
// averaging function.
func genericComparisons(c *schema.Class) []attrCompare {
	var out []attrCompare
	for _, a := range c.AtomicAttrs() {
		out = append(out, attrCompare{a.Name, a.Name, "g:" + a.Name, false})
	}
	return out
}

// elemPrefix namespaces value element keys per attribute domain so that the
// same string in different attributes is a different element.
func elemPrefix(attr string) string {
	switch attr {
	case schema.AttrName:
		return "n:"
	case schema.AttrEmail:
		return "e:"
	case schema.AttrTitle:
		return "t:"
	case schema.AttrYear:
		return "y:"
	case schema.AttrPages:
		return "p:"
	case schema.AttrLocation:
		return "l:"
	default:
		return "x:" + attr + ":"
	}
}

// elemKey returns the namespaced, normalized element key of one raw
// attribute value, memoized per (attribute, raw value).
func (b *builder) elemKey(attr, raw string) string {
	m := b.elems[attr]
	if m == nil {
		m = make(map[string]string)
		b.elems[attr] = m
	}
	if e, ok := m[raw]; ok {
		return e
	}
	e := elemPrefix(attr) + tokenizer.Normalize(raw)
	m[raw] = e
	return e
}

// builder constructs the dependency graph for one dataset. It supports
// incremental operation: incorporate may be called repeatedly with batches
// of new references (the paper's §7 future-work direction), each call
// extending the graph with the new candidate pairs and their dependencies.
type builder struct {
	store *reference.Store
	sch   *schema.Schema
	cfg   Config
	lib   *simfn.Library
	g     *depgraph.Graph

	// indexes holds the per-class blocking indexes, kept across
	// incremental batches.
	indexes map[string]*blocking.Index
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

	// caches of parsed attribute values, keyed by reference id.
	parsedNames  map[reference.ID][]names.Name
	parsedEmails map[reference.ID][]emailaddr.Address
	// cmpTables caches comparisonsFor per class (fixed for the builder's
	// lifetime); elems caches the prefixed, normalized element key of each
	// raw attribute value (attr -> raw -> element key) — values repeat
	// across candidate pairs, so normalization runs once per distinct
	// value instead of once per pair. simScratch backs scoreVals.
	cmpTables  map[string][]attrCompare
	elems      map[string]map[string]string
	simScratch []float64

	candidatePairs int
	skippedBuckets int
	// fedPairs / fedSkipped are the watermarks of what feedCounters has
	// already reported, so incremental batches report deltas, not totals.
	fedPairs   int
	fedSkipped int
}

func newBuilder(store *reference.Store, sch *schema.Schema, cfg Config) *builder {
	b := &builder{
		store:        store,
		sch:          sch,
		cfg:          cfg,
		lib:          simfn.NewLibrary(),
		g:            depgraph.New(),
		indexes:      make(map[string]*blocking.Index),
		removed:      make(map[uint64]int),
		parsedNames:  make(map[reference.ID][]names.Name),
		parsedEmails: make(map[reference.ID][]emailaddr.Address),
		cmpTables:    make(map[string][]attrCompare),
		elems:        make(map[string]map[string]string),
	}
	if cfg.Obs != nil {
		b.lib.SetCounters(cfg.Obs.Counters)
	}
	return b
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

// incorporate extends the graph with a batch of new references — the two
// construction passes of §3.1 plus constraint seeding: library statistics,
// blocking keys, candidate pairs involving the new references, association
// dependencies, and constraints. It returns the RefPair nodes created by
// this batch in seed order: by class rank, so the engine evaluates
// dependees before dependents (§3.2).
func (b *builder) incorporate(newRefs []*reference.Reference) []*depgraph.Node {
	b.batch++
	for _, r := range newRefs {
		for _, t := range r.Atomic(schema.AttrTitle) {
			b.lib.Titles.Add(t)
		}
		switch r.Class {
		case schema.ClassVenue:
			for _, v := range r.Atomic(schema.AttrName) {
				b.lib.Venues.Add(v)
			}
		case schema.ClassPerson:
			for _, v := range r.Atomic(schema.AttrName) {
				b.lib.AddPersonName(v)
			}
		}
	}
	newByClass := make(map[string][]reference.ID)
	for _, r := range newRefs {
		newByClass[r.Class] = append(newByClass[r.Class], r.ID)
		idx, ok := b.indexes[r.Class]
		if !ok {
			idx = blocking.New(b.cfg.BucketCap)
			b.indexes[r.Class] = idx
		}
		blockingKeys(r, func(k string) { idx.Add(k, r.ID) })
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
	b.scoreItems(items)
	for _, it := range items {
		b.wireScored(it.r1, it.r2, false, it.vals, it.sims)
	}
	// Pass 2: association dependencies over the fresh pairs; induced pairs
	// created while wiring are themselves wired on the next sweep.
	for sweep := 0; sweep < 4 && len(b.fresh) > 0; sweep++ {
		f := drain()
		b.buildArticleAssociations(f)
		b.buildContactAssociations(f)
		b.buildGenericAssociations(f)
	}
	drain()

	// Constraint 1 (co-author distinctness) adds non-merge nodes for the
	// new articles.
	if b.cfg.Constraints {
		b.markCoAuthorConstraints(newByClass[schema.ClassArticle])
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
// rather than blocking; induced venue pairs use a relaxed threshold so
// that article-driven venue reconciliation has nodes to act on.
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
		// path keeps relaxed-threshold venue pairs, and the library
		// statistics have grown since the pruning, so the original verdict
		// no longer stands — a permanent tombstone here made incremental
		// sessions silently drop article-driven venue evidence that the
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

	relax := induced && r1.Class == schema.ClassVenue
	hasEvidence := false
	for i, v := range vals {
		sim := sims[i]
		thr := simfn.CandidateThreshold(v.cmp.evidence)
		if relax && thr > 0.05 {
			thr = 0.05
		}
		if sim < thr {
			continue
		}
		elemX := b.elemKey(v.cmp.attrA, v.v1)
		elemY := b.elemKey(v.cmp.attrB, v.v2)
		n := b.g.AddValuePair(v.cmp.evidence, elemX, elemY, sim)
		if n.Sim() >= b.cfg.AttrMergeThreshold {
			// MarkMerged (not a direct Status write) so that incremental
			// batches keep the maintained evidence digests exact.
			b.g.MarkMerged(n)
		}
		b.g.AddEdge(n, m, depgraph.RealValued, v.cmp.evidence)
		// Alias learning: merging the references certifies
		// identifying values as aliases (Figure 2's n6).
		if simfn.AliasEvidence(v.cmp.evidence) && !v.cmp.swap && v.cmp.attrA == v.cmp.attrB {
			b.g.AddEdge(m, n, depgraph.StrongBoolean, v.cmp.evidence)
		}
		hasEvidence = true
	}
	// Constraint-violating pairs are kept even without evidence and marked
	// non-merge: §3.4 requires constrained nodes to exist in the graph so
	// negative evidence can propagate (they are what makes the constrained
	// graph of Table 6 *larger*). A non-merge node is different from a
	// non-existing node.
	constrained := false
	if b.cfg.Constraints {
		switch r1.Class {
		case schema.ClassPerson:
			constrained = b.personConstrained(r1, r2)
		case schema.ClassVenue:
			constrained = b.venueConstrained(r1, r2)
		}
	}
	if constrained {
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
	elem := "r:" + refIDString(target)
	n := b.g.AddValuePair("shared", elem, elem, 1)
	b.g.MarkMerged(n)
	return n
}

func refIDString(id reference.ID) string {
	// Small positive integers; avoid fmt in this hot path.
	if id == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v := int(id); v > 0; v /= 10 {
		i--
		buf[i] = byte('0' + v%10)
	}
	return string(buf[i:])
}

// buildArticleAssociations wires author and venue dependencies for the
// given article pairs: author/venue similarities feed the article pair
// (real-valued), and the article pair's merge implies its aligned authors
// and venues merge (strong-boolean, Figure 2).
func (b *builder) buildArticleAssociations(fresh []*depgraph.Node) {
	for _, m := range fresh {
		if m.Class() != schema.ClassArticle || !m.Alive() {
			continue
		}
		r1 := b.store.Get(m.RefA())
		r2 := b.store.Get(m.RefB())
		b.wireAssociation(m, r1.Assoc(schema.AttrAuthoredBy), r2.Assoc(schema.AttrAuthoredBy), simfn.EvAuthors, b.cfg.Evidence >= EvidenceArticle)
		b.wireAssociation(m, r1.Assoc(schema.AttrPublishedIn), r2.Assoc(schema.AttrPublishedIn), simfn.EvVenue, true)
	}
}

// wireAssociation connects one association attribute of an article pair.
// strongBack controls whether the article's merge pushes the target pairs
// (disabled for authors below the Article evidence level).
func (b *builder) wireAssociation(m *depgraph.Node, as1, as2 []reference.ID, evidence string, strongBack bool) {
	for _, a1 := range as1 {
		for _, a2 := range as2 {
			if a1 == a2 {
				b.g.AddEdge(b.sharedValueNode(a1), m, depgraph.RealValued, evidence)
				continue
			}
			n := b.ensureRefPair(b.store.Get(a1), b.store.Get(a2), true)
			if n == nil {
				continue
			}
			b.g.AddEdge(n, m, depgraph.RealValued, evidence)
			if strongBack {
				b.g.AddEdge(m, n, depgraph.StrongBoolean, simfn.EvArticle)
			}
		}
	}
}

// buildContactAssociations adds the weak-boolean contact/co-author
// dependencies between person pairs (§3.1 step 2, Figure 2(b)). Only
// existing person-pair nodes participate: a contact pair with no node
// cannot contribute (the paper's (p4, p7) note).
func (b *builder) buildContactAssociations(fresh []*depgraph.Node) {
	if b.cfg.Evidence < EvidenceContact {
		return
	}
	// A contact shared with everyone carries no information: the dataset
	// owner appears in every contact list, and mailing lists relate all
	// their recipients. Weight contacts by discarding the hyper-popular
	// ones (the paper's §4 suggestion to "consider the relative size of
	// the value set of an associated attribute").
	personRefs := b.store.ByClass(schema.ClassPerson)
	popularity := make(map[reference.ID]int)
	listers := make(map[reference.ID][]reference.ID)
	for _, id := range personRefs {
		for _, c := range contactsOf(b.store.Get(id)) {
			popularity[c]++
			listers[c] = append(listers[c], id)
		}
	}
	popCap := len(personRefs) / 50
	if popCap < 12 {
		popCap = 12
	}

	// Inverse wiring: a fresh person pair is itself contact evidence for
	// every existing pair whose references list its two members. In batch
	// construction this duplicates the forward pass (edges dedupe); in
	// incremental batches it is what connects new contact decisions to
	// pre-existing pairs.
	for _, n := range fresh {
		if n.Class() != schema.ClassPerson || !n.Alive() {
			continue
		}
		if popularity[n.RefA()] > popCap || popularity[n.RefB()] > popCap {
			continue
		}
		for _, r1 := range listers[n.RefA()] {
			for _, r2 := range listers[n.RefB()] {
				if r1 == r2 || r1 == n.RefA() || r1 == n.RefB() || r2 == n.RefA() || r2 == n.RefB() {
					continue
				}
				if m := b.g.LookupRefPair(r1, r2); m != nil && m != n {
					b.g.AddEdge(n, m, depgraph.WeakBoolean, simfn.EvContact)
				}
			}
		}
	}

	for _, m := range fresh {
		if m.Class() != schema.ClassPerson || !m.Alive() {
			continue
		}
		// The paper pools co-authors and email contacts into one contact
		// list (Figure 2(b) relates p5's *co-author* to p8's *email
		// contact*), so the cross product runs over the union.
		c1s := contactsOf(b.store.Get(m.RefA()))
		c2s := contactsOf(b.store.Get(m.RefB()))
		for _, c1 := range c1s {
			if popularity[c1] > popCap {
				continue
			}
			for _, c2 := range c2s {
				if popularity[c2] > popCap {
					continue
				}
				if c1 == c2 {
					b.g.AddEdge(b.sharedValueNode(c1), m, depgraph.WeakBoolean, simfn.EvContact)
					continue
				}
				if c1 == m.RefA() || c1 == m.RefB() || c2 == m.RefA() || c2 == m.RefB() {
					continue
				}
				if n := b.g.LookupRefPair(c1, c2); n != nil && n != m {
					b.g.AddEdge(n, m, depgraph.WeakBoolean, simfn.EvContact)
				}
			}
		}
	}
}

// contactsOf returns the union of a person's co-author and email-contact
// links, deduplicated, in stable order.
func contactsOf(r *reference.Reference) []reference.ID {
	co := r.Assoc(schema.AttrCoAuthor)
	ec := r.Assoc(schema.AttrEmailContact)
	if len(ec) == 0 {
		return co
	}
	if len(co) == 0 {
		return ec
	}
	out := make([]reference.ID, 0, len(co)+len(ec))
	seen := make(map[reference.ID]bool, len(co)+len(ec))
	for _, lists := range [2][]reference.ID{co, ec} {
		for _, id := range lists {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// buildGenericAssociations wires association evidence for custom classes
// conservatively, in the style of the paper's contact evidence: a shared
// link target, or a reconciled pair of link targets, adds weak-boolean
// evidence (γ per link) gated on the pair's own attribute similarity.
// Built-in classes are handled by their specialized wiring.
func (b *builder) buildGenericAssociations(fresh []*depgraph.Node) {
	builtin := map[string]bool{
		schema.ClassPerson: true, schema.ClassArticle: true, schema.ClassVenue: true,
	}
	for _, m := range fresh {
		if builtin[m.Class()] || !m.Alive() {
			continue
		}
		class, ok := b.sch.Class(m.Class())
		if !ok || len(class.AssocAttrs()) == 0 {
			continue
		}
		r1 := b.store.Get(m.RefA())
		r2 := b.store.Get(m.RefB())
		for _, attr := range class.AssocAttrs() {
			ev := "ga:" + attr.Name
			for _, a1 := range r1.Assoc(attr.Name) {
				for _, a2 := range r2.Assoc(attr.Name) {
					if a1 == a2 {
						b.g.AddEdge(b.sharedValueNode(a1), m, depgraph.WeakBoolean, ev)
						continue
					}
					n := b.ensureRefPair(b.store.Get(a1), b.store.Get(a2), true)
					if n != nil && n != m {
						b.g.AddEdge(n, m, depgraph.WeakBoolean, ev)
					}
				}
			}
		}
	}
}

// markCoAuthorConstraints enforces constraint 1 of §5.3 for the given
// article references: the authors of one article are distinct persons.
// Missing pair nodes are created (constraints add nodes to the graph,
// Table 6) and marked non-merge.
func (b *builder) markCoAuthorConstraints(articles []reference.ID) {
	for _, id := range articles {
		authors := b.store.Get(id).Assoc(schema.AttrAuthoredBy)
		for i := 0; i < len(authors); i++ {
			for j := i + 1; j < len(authors); j++ {
				n := b.g.LookupRefPair(authors[i], authors[j])
				if n == nil {
					n = b.g.AddRefPair(authors[i], authors[j], schema.ClassPerson)
				}
				b.g.MarkNonMerge(n)
			}
		}
	}
}

// personConstrained reports constraints 2 and 3 of §5.3 on a person pair:
//
//  2. incompatible names (same first, completely different last, or vice
//     versa) make the references distinct unless they share an email;
//  3. two different accounts on the same email server belong to different
//     persons.
func (b *builder) personConstrained(r1, r2 *reference.Reference) bool {
	e1 := b.emailsOf(r1)
	e2 := b.emailsOf(r2)
	for _, a1 := range e1 {
		for _, a2 := range e2 {
			if a1.Key() != "" && a1.Key() == a2.Key() {
				return false // shared account: hard positive key beats both constraints
			}
		}
	}
	for _, a1 := range e1 {
		for _, a2 := range e2 {
			if a1.Server() != "" && a1.Server() == a2.Server() && a1.Local != a2.Local {
				return true
			}
		}
	}
	n1 := b.namesOf(r1)
	n2 := b.namesOf(r2)
	anyIncompatible, anyCompatibleFull := false, false
	for _, x := range n1 {
		for _, y := range n2 {
			if names.Incompatible(x, y) {
				anyIncompatible = true
			} else if x.IsFull() && y.IsFull() && names.Compatible(x, y) {
				anyCompatibleFull = true
			}
		}
	}
	return anyIncompatible && !anyCompatibleFull
}

// venueConstrained reports the venue domain constraint: a venue
// reference denotes one *edition*, and an edition has a unique year, so two
// references whose years are flatly incompatible (differ by more than the
// off-by-one citation noise YearSim tolerates) are guaranteed distinct.
// Without this rule a single noisy cross-edition merge lets reference
// enrichment union the evidence of whole year ranges — the MAX rule then
// sees some agreeing year pair in every cluster and the editions collapse.
func (b *builder) venueConstrained(r1, r2 *reference.Reference) bool {
	y1 := r1.Atomic(schema.AttrYear)
	y2 := r2.Atomic(schema.AttrYear)
	if len(y1) == 0 || len(y2) == 0 {
		return false
	}
	// The constraint tolerates a gap of 2: citations misprint years by
	// one in either direction, so two mentions of one edition can be two
	// apart. A false constraint is costly — it permanently splits the
	// edition at the constrained closure — so this stays conservative.
	minGap, seen := 0, false
	for _, a := range y1 {
		for _, c := range y2 {
			if g, ok := simfn.YearGap(a, c); ok && (!seen || g < minGap) {
				minGap, seen = g, true
			}
		}
	}
	return seen && minGap > 2
}

func (b *builder) namesOf(r *reference.Reference) []names.Name {
	if ns, ok := b.parsedNames[r.ID]; ok {
		return ns
	}
	var ns []names.Name
	for _, raw := range r.Atomic(schema.AttrName) {
		ns = append(ns, names.Parse(raw))
	}
	b.parsedNames[r.ID] = ns
	return ns
}

func (b *builder) emailsOf(r *reference.Reference) []emailaddr.Address {
	if es, ok := b.parsedEmails[r.ID]; ok {
		return es
	}
	var es []emailaddr.Address
	for _, raw := range r.Atomic(schema.AttrEmail) {
		if a, ok := emailaddr.Parse(raw); ok {
			es = append(es, a)
		}
	}
	b.parsedEmails[r.ID] = es
	return es
}
