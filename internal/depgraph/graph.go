package depgraph

import (
	"fmt"
	"strconv"

	"refrecon/internal/reference"
)

// Graph is the dependency graph plus the machinery to run similarity
// propagation over it. Construct with New, add nodes and edges, then call
// Run. Graph is not safe for concurrent use. Storage is columnar (see
// storage.go); the hot-path indexes key on packed reference pairs and
// interned strings, and canonical key strings are built lazily.
type Graph struct {
	// Node columns, indexed by node id.
	kind    []Kind
	status  []Status
	sim     []float64
	refA    []reference.ID
	refB    []reference.ID
	classID []int32 // interned class (RefPair) / evidence type (ValuePair)
	valX    []int32 // interned element keys of a ValuePair, string-ordered
	valY    []int32
	key     []string // lazily built canonical keys ("" until requested)
	alive   []bool
	queued  []bool
	qgen    []uint64
	inSpan  []span
	outSpan []span

	handles  []*Node // the stable public handle per node id
	nodeSlab []Node

	// Edge columns, indexed by edge id, plus the shared adjacency arena.
	// eOutPos / eInPos hold the edge's position inside its source's
	// out-span and its target's in-span. They are span-relative, so a span
	// relocating in the arena leaves them valid; spanDrop keeps them exact.
	eFrom, eTo      []int32
	eDep            []DepType
	eEv             []int32 // interned evidence
	eOutPos, eInPos []int32
	adj             []int32

	deadEdges  int // removed edges still occupying columns
	adjGarbage int // arena slots abandoned by span relocation

	strs   interner
	byPair map[uint64]int32
	byVal  map[valueIdent]int32
	// refNodes indexes, by reference id, the RefPair nodes that mention
	// the reference; enrichment walks this index.
	refNodes [][]int32
	// enrichIDs is enrich's reused copy of one reference's index entries.
	enrichIDs []int32
	queue     *nodeQueue

	liveNodes int
	edgeCount int
	// settled is the node-id bound when the last enriching Run returned:
	// the next Run's reenrich looks only at pairs touching newer nodes.
	settled int32

	// onFold, when set (by Run, from Options.OnFold), observes every
	// enrichment fold l -> m just before l is removed.
	onFold func(l, m *Node)

	// dedup tallies hasEdge's traffic since the last Run returned: calls
	// and edges examined. Run reports and clears it.
	dedup struct{ adds, probes uint64 }
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		strs:   newInterner(),
		byPair: make(map[uint64]int32),
		byVal:  make(map[valueIdent]int32),
		queue:  newNodeQueue(64),
	}
}

// NodeCount returns the number of live nodes (the paper's Table 6 metric).
func (g *Graph) NodeCount() int { return g.liveNodes }

// NodeIDBound returns an exclusive upper bound on the node ids ever
// assigned by this graph (dead rows included). Ids are dense and never
// reused, so callers may size side tables by this bound and index them
// with Node.ID.
func (g *Graph) NodeIDBound() int { return len(g.alive) }

// EdgeCount returns the number of live directed edges.
func (g *Graph) EdgeCount() int { return g.edgeCount }

// Lookup returns the live node for a canonical key string, or nil. The
// integer indexes are authoritative; this parses the key back into them
// (reference-pair keys have exactly one '|', value-pair keys at least
// two), so it serves the API boundary without a string-keyed index.
func (g *Graph) Lookup(key string) *Node {
	if a, b, ok := parseRefPairKey(key); ok {
		if id, ok := g.byPair[packPair(a, b)]; ok {
			return g.handles[id]
		}
		return nil
	}
	// Value key: the stored form is evidence|x|y with x <= y. Try every
	// split into three parts; only the authoring split can resolve to
	// interned ids that are present in the index together.
	for i := 0; i < len(key); i++ {
		if key[i] != '|' {
			continue
		}
		ev, ok := g.strs.lookup(key[:i])
		if !ok {
			continue
		}
		for j := i + 1; j < len(key); j++ {
			if key[j] != '|' {
				continue
			}
			x, ok := g.strs.lookup(key[i+1 : j])
			if !ok {
				continue
			}
			y, ok := g.strs.lookup(key[j+1:])
			if !ok {
				continue
			}
			if id, ok := g.byVal[valueIdent{ev: ev, x: x, y: y}]; ok {
				return g.handles[id]
			}
		}
	}
	return nil
}

// parseRefPairKey inverts RefPairKey: "r<digits>|r<digits>". The packed
// index stores only canonical (a < b) pairs, so a non-canonical string
// misses, exactly as it missed the old string-keyed map.
func parseRefPairKey(key string) (a, b reference.ID, ok bool) {
	rest := key
	a, rest, ok = parseRefID(rest)
	if !ok || len(rest) == 0 || rest[0] != '|' {
		return 0, 0, false
	}
	b, rest, ok = parseRefID(rest[1:])
	if !ok || len(rest) != 0 {
		return 0, 0, false
	}
	return a, b, true
}

func parseRefID(s string) (reference.ID, string, bool) {
	if len(s) == 0 || s[0] != 'r' {
		return 0, s, false
	}
	i, v := 1, 0
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		v = v*10 + int(s[i]-'0')
	}
	if i == 1 {
		return 0, s, false
	}
	return reference.ID(v), s[i:], true
}

// LookupRefPair returns the live node for the reference pair, or nil.
// This is the hot-path lookup: it touches only the packed-integer index.
func (g *Graph) LookupRefPair(a, b reference.ID) *Node {
	if b < a {
		a, b = b, a
	}
	if id, ok := g.byPair[packPair(a, b)]; ok {
		return g.handles[id]
	}
	return nil
}

// AddRefPair inserts (or returns the existing) node for a pair of
// references of the given class, with initial similarity 0.
func (g *Graph) AddRefPair(a, b reference.ID, class string) *Node {
	if a == b {
		panic(fmt.Sprintf("depgraph: self-pair for reference %d", a))
	}
	if b < a {
		a, b = b, a
	}
	pk := packPair(a, b)
	if id, ok := g.byPair[pk]; ok {
		return g.handles[id]
	}
	id := g.newNode(RefPair)
	g.refA[id], g.refB[id] = a, b
	g.classID[id] = g.strs.intern(class)
	g.byPair[pk] = id
	g.liveNodes++
	if n := int(b) + 1 - len(g.refNodes); n > 0 {
		g.refNodes = append(g.refNodes, make([][]int32, n)...)
	}
	g.refNodes[a] = append(g.refNodes[a], id)
	g.refNodes[b] = append(g.refNodes[b], id)
	return g.handles[id]
}

// AddValuePair inserts (or returns the existing) node for a pair of
// attribute values under an evidence type, with the given precomputed
// similarity. elemX and elemY are the canonical element keys of the two
// values.
func (g *Graph) AddValuePair(evidence, elemX, elemY string, sim float64) *Node {
	return g.AddValuePairIDs(g.strs.intern(evidence), g.strs.intern(elemX), g.strs.intern(elemY), sim)
}

// SharedTarget returns the merged value node standing for an association
// target that both references of a pair link to — the paper's (a1, a1)
// node, §3.1 step 2 — with evidence "shared", element "r:<target>" and
// similarity 1. Graph construction and query-time resolution both wire it
// through here, so the node's key is spelled once.
func (g *Graph) SharedTarget(target reference.ID) *Node {
	elem := g.strs.intern("r:" + strconv.Itoa(int(target)))
	n := g.AddValuePairIDs(g.strs.intern("shared"), elem, elem, 1)
	g.MarkMerged(n)
	return n
}

// Intern returns the graph's id for an evidence label or element key.
func (g *Graph) Intern(s string) int32 { return g.strs.intern(s) }

// AddValuePairIDs is AddValuePair over interned ids; the elements are
// ordered by their strings.
func (g *Graph) AddValuePairIDs(ev, x, y int32, sim float64) *Node {
	if g.strs.str(y) < g.strs.str(x) {
		x, y = y, x
	}
	vi := valueIdent{ev: ev, x: x, y: y}
	if id, ok := g.byVal[vi]; ok {
		n := g.handles[id]
		if g.status[id] != NonMerge {
			g.raiseSim(n, sim)
		}
		return n
	}
	id := g.newNode(ValuePair)
	g.classID[id], g.valX[id], g.valY[id] = ev, x, y
	g.sim[id] = sim
	g.byVal[vi] = id
	g.liveNodes++
	return g.handles[id]
}

// AddEdge inserts a directed dependency from -> to, deduplicating on
// (endpoints, type, evidence). Self-edges are rejected. It reports whether
// a new edge was inserted.
func (g *Graph) AddEdge(from, to *Node, dep DepType, evidence string) bool {
	return g.addEdgeIDs(from.id, to.id, dep, g.strs.intern(evidence))
}

// AddEdgeID is AddEdge with the evidence label interned (Intern).
func (g *Graph) AddEdgeID(from, to *Node, dep DepType, ev int32) bool {
	return g.addEdgeIDs(from.id, to.id, dep, ev)
}

// addEdgeIDs is AddEdge over raw ids with pre-interned evidence (the fold
// path re-wires edges without round-tripping through strings).
func (g *Graph) addEdgeIDs(from, to int32, dep DepType, ev int32) bool {
	if from == to {
		return false
	}
	g.dedup.adds++
	if g.hasEdge(from, to, dep, ev) {
		return false
	}
	e := int32(len(g.eFrom))
	if int(e) == cap(g.eFrom) {
		g.growEdgeColumns()
	}
	g.eFrom = append(g.eFrom, from)
	g.eTo = append(g.eTo, to)
	g.eDep = append(g.eDep, dep)
	g.eEv = append(g.eEv, ev)
	g.eOutPos = append(g.eOutPos, g.outSpan[from].n)
	g.eInPos = append(g.eInPos, g.inSpan[to].n)
	g.spanAppend(&g.outSpan[from], e)
	g.spanAppend(&g.inSpan[to], e)
	g.edgeCount++
	return true
}

// hasEdge reports whether the edge (from, to, dep, ev) exists, by scanning
// the shorter of from's out-span and to's in-span: an edge sits in both,
// so either side decides. The scan replaces a graph-wide edge hash — a
// probe costs the smaller neighbourhood instead of a cache miss in a map
// the size of the graph, and removing an edge leaves nothing to delete.
// The worst case is a hub value node wired to a high-in-degree pair:
// min(out-degree, in-degree) edges examined.
func (g *Graph) hasEdge(from, to int32, dep DepType, ev int32) bool {
	ids, far, want := g.spanIDs(g.outSpan[from]), g.eTo, to
	if in := g.inSpan[to]; int(in.n) < len(ids) {
		ids, far, want = g.spanIDs(in), g.eFrom, from
	}
	for i, e := range ids {
		if far[e] == want && g.eEv[e] == ev && g.eDep[e] == dep {
			g.dedup.probes += uint64(i) + 1
			return true
		}
	}
	g.dedup.probes += uint64(len(ids))
	return false
}

// removeNode unlinks n from every neighbor and drops it from the indexes.
// Its own index entry (packed pair or value identity) is deleted eagerly;
// its edges leave each neighbor's span in O(1) through the position
// columns, and the column rows and arena slots it abandons are reclaimed
// by the next compaction.
func (g *Graph) removeNode(n *Node) {
	id := n.id
	if !g.alive[id] {
		return
	}
	for _, e := range g.spanIDs(g.inSpan[id]) {
		g.spanDrop(&g.outSpan[g.eFrom[e]], g.eOutPos, e)
		g.killEdge(e)
		g.edgeCount--
	}
	for _, e := range g.spanIDs(g.outSpan[id]) {
		g.spanDrop(&g.inSpan[g.eTo[e]], g.eInPos, e)
		g.killEdge(e)
		g.edgeCount--
	}
	g.adjGarbage += int(g.inSpan[id].cap) + int(g.outSpan[id].cap)
	g.inSpan[id] = span{}
	g.outSpan[id] = span{}
	g.alive[id] = false
	if g.kind[id] == RefPair {
		delete(g.byPair, packPair(g.refA[id], g.refB[id]))
	} else {
		delete(g.byVal, valueIdent{ev: g.classID[id], x: g.valX[id], y: g.valY[id]})
	}
	g.liveNodes--
	g.queue.remove(n)
	g.maybeCompact()
}

// killEdge marks an edge's columns dead.
func (g *Graph) killEdge(e int32) {
	g.eFrom[e] = -1
	g.deadEdges++
}

// MarkNonMerge marks the node as constrained-distinct. A non-merge node is
// frozen at similarity 0 and never enters the queue.
func (g *Graph) MarkNonMerge(n *Node) {
	id := n.id
	if g.status[id] == NonMerge {
		return
	}
	g.status[id] = NonMerge
	g.sim[id] = 0
	g.queue.remove(n)
}

// MarkMerged marks the node as merged (e.g. a value pair that clears its
// merge threshold at construction time). A NonMerge node stays NonMerge.
func (g *Graph) MarkMerged(n *Node) {
	if g.status[n.id] != NonMerge {
		g.status[n.id] = Merged
	}
}

// raiseSim raises n's similarity, never lowering it. Every similarity
// increase — engine scoring, fold inheritance, AddValuePair on an existing
// node, RaiseSim — goes through here, which is what keeps similarities
// monotone (§3.2's termination argument).
func (g *Graph) raiseSim(n *Node, sim float64) {
	if sim > g.sim[n.id] {
		g.sim[n.id] = sim
	}
}

// Nodes invokes fn for every live node, in insertion order.
func (g *Graph) Nodes(fn func(*Node)) {
	for id := range g.alive {
		if g.alive[id] {
			fn(g.handles[id])
		}
	}
}

// Edges invokes fn for every live edge in creation order. Edge ids are
// assigned in creation order and renumbered only by the compaction that
// follows removals, so on a graph nothing was ever removed from each
// node's in- and out-edges arrive in the order its spans hold them.
func (g *Graph) Edges(fn func(Edge)) {
	for e := range g.eFrom {
		if g.eFrom[e] >= 0 {
			fn(g.edgeAt(int32(e)))
		}
	}
}

// RefPairDegree returns the number of RefPair nodes indexed under r: the
// live ones EachRefPair visits plus removed ones the next compaction
// prunes. It is what a walk of r's pairs costs.
func (g *Graph) RefPairDegree(r reference.ID) int { return len(g.pairsOf(r)) }

// pairsOf returns r's index entries (nil for a reference no pair names).
func (g *Graph) pairsOf(r reference.ID) []int32 {
	if r < 0 || int(r) >= len(g.refNodes) {
		return nil
	}
	return g.refNodes[r]
}

// EachRefPair calls fn for every live RefPair node n that mentions r, in
// the order they were added, with n's other reference. fn must not add or
// remove nodes.
func (g *Graph) EachRefPair(r reference.ID, fn func(other reference.ID, n *Node)) {
	for _, id := range g.pairsOf(r) {
		if g.alive[id] {
			fn(g.refA[id]^g.refB[id]^r, g.handles[id])
		}
	}
}
