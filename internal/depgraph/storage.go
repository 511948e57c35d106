package depgraph

import "fmt"

// This file holds the columnar storage primitives behind Graph: the string
// interner, the node handle slab, the span-based adjacency arena, the edge
// columns, and the compaction pass that reclaims storage freed by
// enrichment folds and node removals.
//
// Node state is one slice per field, indexed by a dense int32 id assigned
// at insertion and never reused or renumbered. Edges are six parallel
// columns indexed by edge id — from, to, dep, interned evidence, and the
// edge's position inside its source's out-span and its target's in-span —
// and adjacency is a per-node span of edge ids into one shared arena. The
// position columns make removing an edge from a span O(1) (spanDrop), and
// the spans themselves are the edge index: a duplicate is found by
// scanning the shorter of the two spans an edge would sit in (hasEdge), so
// there is no graph-wide edge map to probe, fill or delete from.
//
// Spans start empty and grow by relocation to the arena tail with doubling
// capacity (a node's edges mostly arrive together). Compaction rewrites
// the arena contiguously, drops dead edge columns (renumbering edge ids,
// which never escape the package; positions are span-relative and carry
// over) and prunes dead entries from the per-reference index; node ids are
// stable forever, so handles and queue entries survive it.

// interner maps strings to dense int32 ids and back. Id 0 is reserved for
// the empty string so the zero value of an interned column is meaningful.
type interner struct {
	ids  map[string]int32
	strs []string
}

func newInterner() interner {
	return interner{ids: map[string]int32{"": 0}, strs: []string{""}}
}

// intern returns the id for s, assigning one if needed.
func (t *interner) intern(s string) int32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := int32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

// lookup returns the id for s without assigning one.
func (t *interner) lookup(s string) (int32, bool) {
	id, ok := t.ids[s]
	return id, ok
}

// str returns the canonical string for id.
func (t *interner) str(id int32) string { return t.strs[id] }

// span is one node's adjacency region in the arena: n edge ids stored at
// [off, off+n), with room to grow in place up to cap.
type span struct {
	off, n, cap int32
}

// valueIdent is the dedup identity of a ValuePair node: interned evidence
// type plus the two interned element keys in canonical (string) order.
type valueIdent struct {
	ev, x, y int32
}

const (
	nodeSlabSize = 512
	spanMinCap   = 4
)

// newHandle carves one stable *Node from the handle slab.
func (g *Graph) newHandle(id int32) *Node {
	if len(g.nodeSlab) == 0 {
		g.nodeSlab = make([]Node, nodeSlabSize)
	}
	h := &g.nodeSlab[0]
	g.nodeSlab = g.nodeSlab[1:]
	h.g, h.id = g, id
	return h
}

// newNode appends one row to every node column and returns its id. The
// columns grow together by doubling, as the edge columns do.
func (g *Graph) newNode(kind Kind) int32 {
	id := int32(len(g.kind))
	if int(id) == cap(g.kind) {
		c := max(2*cap(g.kind), 64)
		g.kind, g.status, g.sim = grown(g.kind, c), grown(g.status, c), grown(g.sim, c)
		g.refA, g.refB, g.classID = grown(g.refA, c), grown(g.refB, c), grown(g.classID, c)
		g.valX, g.valY, g.key = grown(g.valX, c), grown(g.valY, c), grown(g.key, c)
		g.alive, g.queued, g.qgen = grown(g.alive, c), grown(g.queued, c), grown(g.qgen, c)
		g.inSpan, g.outSpan, g.handles = grown(g.inSpan, c), grown(g.outSpan, c), grown(g.handles, c)
	}
	g.kind = append(g.kind, kind)
	g.status = append(g.status, Inactive)
	g.sim = append(g.sim, 0)
	g.refA = append(g.refA, -1)
	g.refB = append(g.refB, -1)
	g.classID = append(g.classID, 0)
	g.valX = append(g.valX, -1)
	g.valY = append(g.valY, -1)
	g.key = append(g.key, "")
	g.alive = append(g.alive, true)
	g.queued = append(g.queued, false)
	g.qgen = append(g.qgen, 0)
	g.inSpan = append(g.inSpan, span{})
	g.outSpan = append(g.outSpan, span{})
	g.handles = append(g.handles, g.newHandle(id))
	return id
}

// grown returns s copied into a fresh backing array of capacity c.
func grown[T any](s []T, c int) []T { return append(make([]T, 0, c), s...) }

// buildKey materializes the canonical string key for a node.
func (g *Graph) buildKey(id int32) string {
	if g.kind[id] == RefPair {
		return RefPairKey(g.refA[id], g.refB[id])
	}
	return g.strs.str(g.classID[id]) + "|" + g.strs.str(g.valX[id]) + "|" + g.strs.str(g.valY[id])
}

// spanIDs returns the live edge ids of a span, aliasing the arena. The
// alias stays readable across arena growth and other spans' relocations
// (regions are disjoint and relocation never rewrites old regions), but
// not across an append to this same span or a compaction.
func (g *Graph) spanIDs(s span) []int32 {
	return g.adj[s.off : s.off+s.n : s.off+s.n]
}

// edgeAt materializes the Edge value for an edge id.
func (g *Graph) edgeAt(e int32) Edge {
	return Edge{
		From:     g.handles[g.eFrom[e]],
		To:       g.handles[g.eTo[e]],
		Dep:      g.eDep[e],
		Evidence: g.strs.str(g.eEv[e]),
	}
}

// growEdgeColumns doubles the capacity of the six edge columns together.
// Left to append, a large column grows by a quarter at a time and is
// copied about five times over on its way to any size; doubling copies it
// twice, which more than pays for the two position columns.
func (g *Graph) growEdgeColumns() {
	c := max(2*cap(g.eFrom), 1024)
	g.eFrom, g.eTo, g.eDep = grown(g.eFrom, c), grown(g.eTo, c), grown(g.eDep, c)
	g.eEv, g.eOutPos, g.eInPos = grown(g.eEv, c), grown(g.eOutPos, c), grown(g.eInPos, c)
}

// adjReserve extends the arena by n slots and returns their offset; the
// arena doubles when it runs out.
func (g *Graph) adjReserve(n int32) int32 {
	off := int32(len(g.adj))
	need := int(off) + int(n)
	if need > cap(g.adj) {
		g.adj = grown(g.adj, max(2*cap(g.adj), need, 1024))
	}
	g.adj = g.adj[:need]
	return off
}

// spanAppend adds an edge id to a span, in place while capacity lasts and
// by relocation to the arena tail (capacity doubled) when it runs out.
func (g *Graph) spanAppend(s *span, e int32) {
	if s.n < s.cap {
		g.adj[s.off+s.n] = e
		s.n++
		return
	}
	newCap := s.cap * 2
	if newCap < spanMinCap {
		newCap = spanMinCap
	}
	off := g.adjReserve(newCap)
	copy(g.adj[off:off+s.n], g.adj[s.off:s.off+s.n])
	g.adj[off+s.n] = e
	g.adjGarbage += int(s.cap)
	s.off, s.cap = off, newCap
	s.n++
}

// spanDrop removes edge id e from a span by swap-with-last — the
// permutation the equivalence fingerprints depend on. pos is the position
// column of the span's side (eOutPos for an out-span, eInPos for an
// in-span): it says where e sits, and the moved edge's entry is patched.
func (g *Graph) spanDrop(s *span, pos []int32, e int32) {
	i := pos[e]
	last := g.adj[s.off+s.n-1]
	g.adj[s.off+i] = last
	pos[last] = i
	s.n--
}

// maybeCompact runs the compaction pass once enough edge storage is dead.
// The trigger reads only graph-op-sequence state (never scores or
// timings), so equivalence twins compact at identical points; and since
// compaction preserves node ids and per-node adjacency order, even a
// divergent trigger would be invisible to the public surface.
func (g *Graph) maybeCompact() {
	if (g.deadEdges >= 1024 && g.deadEdges >= g.edgeCount) ||
		(g.adjGarbage >= 4096 && g.adjGarbage*2 >= len(g.adj)) {
		g.compact()
	}
}

// compact rewrites the edge columns without dead edges, renumbers edge ids
// (they never escape the package), rewrites every live span contiguously
// into a fresh arena sized exactly to the live degree sums, and prunes
// dead node ids from the per-reference index. Per-node adjacency order is
// preserved; node ids and handles are untouched.
func (g *Graph) compact() {
	remap := make([]int32, len(g.eFrom))
	nFrom := make([]int32, 0, g.edgeCount)
	nTo := make([]int32, 0, g.edgeCount)
	nDep := make([]DepType, 0, g.edgeCount)
	nEv := make([]int32, 0, g.edgeCount)
	nOutPos := make([]int32, 0, g.edgeCount)
	nInPos := make([]int32, 0, g.edgeCount)
	// Assign new edge ids in (node id, out-adjacency) order: a
	// deterministic function of graph state.
	for id := range g.outSpan {
		if !g.alive[id] {
			continue
		}
		for _, e := range g.spanIDs(g.outSpan[id]) {
			remap[e] = int32(len(nFrom))
			nFrom = append(nFrom, g.eFrom[e])
			nTo = append(nTo, g.eTo[e])
			nDep = append(nDep, g.eDep[e])
			nEv = append(nEv, g.eEv[e])
			nOutPos = append(nOutPos, g.eOutPos[e])
			nInPos = append(nInPos, g.eInPos[e])
		}
	}
	total := 0
	for id := range g.outSpan {
		if g.alive[id] {
			total += int(g.outSpan[id].n) + int(g.inSpan[id].n)
		}
	}
	nAdj := make([]int32, 0, total)
	rewrite := func(s *span) {
		off := int32(len(nAdj))
		for _, e := range g.spanIDs(*s) {
			nAdj = append(nAdj, remap[e])
		}
		*s = span{off: off, n: s.n, cap: s.n}
	}
	for id := range g.outSpan {
		if !g.alive[id] {
			g.outSpan[id] = span{}
			g.inSpan[id] = span{}
			continue
		}
		rewrite(&g.outSpan[id])
		rewrite(&g.inSpan[id])
	}
	g.eFrom, g.eTo, g.eDep, g.eEv = nFrom, nTo, nDep, nEv
	g.eOutPos, g.eInPos = nOutPos, nInPos
	g.adj = nAdj
	g.deadEdges = 0
	g.adjGarbage = 0
	// Reclaim the per-reference index entries of removed nodes (the old
	// layout retained them forever).
	for r, ids := range g.refNodes {
		live := ids[:0]
		for _, id := range ids {
			if g.alive[id] {
				live = append(live, id)
			}
		}
		g.refNodes[r] = live
	}
}

// CheckAdjacency verifies the storage invariants that edge removal and
// deduplication rest on, reporting the first breach ("" when sound): every
// entry of n's two spans is an edge that names n on that side and whose
// position column points back at the entry, the edge also sits where its
// other position column says in the neighbor's span, and no two out-edges
// share (target, type, evidence). Only hasEdge's scan keeps edges unique,
// so the invariant auditor (package audit) runs this on every live node.
func (n *Node) CheckAdjacency() string {
	g, id := n.g, n.id
	type outIdent struct {
		to, ev int32
		dep    DepType
	}
	var seen map[outIdent]struct{} // most nodes have one out-edge: no map
	if deg := g.outSpan[id].n; deg > 1 {
		seen = make(map[outIdent]struct{}, deg)
	}
	for i, e := range g.spanIDs(g.outSpan[id]) {
		if g.eFrom[e] != id || g.eOutPos[e] != int32(i) {
			return fmt.Sprintf("out-span entry %d does not point back (edge %d)", i, e)
		}
		if in := g.inSpan[g.eTo[e]]; g.eInPos[e] >= in.n || g.adj[in.off+g.eInPos[e]] != e {
			return fmt.Sprintf("out-edge %d is not at its position in the target's in-span", e)
		}
		if seen == nil {
			continue
		}
		k := outIdent{to: g.eTo[e], ev: g.eEv[e], dep: g.eDep[e]}
		if _, dup := seen[k]; dup {
			return fmt.Sprintf("duplicate %s out-edge to %s with evidence %q",
				k.dep, g.handles[k.to].Key(), g.strs.str(k.ev))
		}
		seen[k] = struct{}{}
	}
	for i, e := range g.spanIDs(g.inSpan[id]) {
		if g.eFrom[e] < 0 || g.eTo[e] != id || g.eInPos[e] != int32(i) {
			return fmt.Sprintf("in-span entry %d does not point back (edge %d)", i, e)
		}
		if out := g.outSpan[g.eFrom[e]]; g.eOutPos[e] >= out.n || g.adj[out.off+g.eOutPos[e]] != e {
			return fmt.Sprintf("in-edge %d is not at its position in the source's out-span", e)
		}
	}
	return ""
}
