// Package shard cuts a freshly built dependency graph into closed
// components — subgraphs that share no evidence during propagation — so
// the fixed point can run concurrently, one engine per shard, with nothing
// to synchronize and exactly the monolithic answer.
//
// A node's score reads only its in-edges (§3.2) and enrichment folds only
// pairs that share a reference (§3.3), so the nodes that can influence one
// another during Run are joined by:
//
//   - two RefPair nodes sharing a reference (enrichment);
//   - an edge between two nodes that can change (a pair→pair association
//     or back edge, a pair→value alias edge and the value's edges out);
//   - a value node with an in-edge, which Run can raise to an alias: it
//     joins every one of its peers.
//
// A value node with no in-edge (and not seeded) is never queued, so it is
// a constant during Run: Split copies it into every component that reads
// it instead of joining them.
//
// Split copies nodes in global id order and edges in global creation
// order, so every copy keeps the global node's in- and out-edge order
// (a constant keeps its out-edges' order restricted to the component).
// Enrichment's swap-with-last removals make later activation order depend
// on that order; with it preserved, each component's run is the
// monolithic queue restricted to the component — the queue is a deque and
// no operation on one component's entries moves another's — so every
// decision, and every count but the per-queue ones (rounds, high water,
// dedup traffic), equals the monolithic run's.
package shard

import (
	"fmt"
	"sort"

	"refrecon/internal/depgraph"
)

// Component is one closed component's private graph.
type Component struct {
	// ID is the component's dense index in Plan.Comps, assigned in the
	// order components are first seen in global node id order.
	ID int
	// G is the component's private dependency graph.
	G *depgraph.Graph
	// Seed is the restriction of the global seed order to this component.
	Seed []*depgraph.Node
	// Weight is the scheduling weight (nodes + edges) used to balance
	// components across shards.
	Weight int
}

// Plan is the result of Split: the per-component graphs and their
// grouping into shards.
type Plan struct {
	Comps []*Component
	// Groups lists, per shard, the component ids assigned to it (LPT
	// balanced by Component.Weight). Grouping affects scheduling only.
	Groups [][]int
	// ShardOf maps component id -> shard index.
	ShardOf []int
	// ValueReplicas counts the extra copies of constant value nodes read
	// by more than one component.
	ValueReplicas int

	// compOf maps a global node id to its component, -1 for a constant.
	compOf []int32
	// decided maps a global node id to the node holding its decision: the
	// component copy, or the global node itself for a constant (every copy
	// of a constant stays equal to it).
	decided []*depgraph.Node
}

// CompOf returns the component holding global node n, or -1 when n is a
// constant copied into its readers.
func (p *Plan) CompOf(n *depgraph.Node) int { return int(p.compOf[n.ID()]) }

// Nodes visits the decision of every global node once, in global id order,
// skipping nodes enrichment removed: after the components run, this is
// the walk the monolithic graph's Nodes gives after its run.
func (p *Plan) Nodes(fn func(*depgraph.Node)) {
	for _, n := range p.decided {
		if n.Alive() {
			fn(n)
		}
	}
}

// Split cuts g into closed components grouped into the given number of
// shards. numRefs bounds the reference-id space (store.Len()); seed is the
// global seed order. g must be freshly built — no node ever removed, and
// so no edge (edges die only with their nodes) — because edge-id order is
// creation order only until a removal; Split panics otherwise. The global
// graph is left untouched.
func Split(g *depgraph.Graph, seed []*depgraph.Node, numRefs, shards int) *Plan {
	if g.NodeCount() != g.NodeIDBound() {
		panic(fmt.Sprintf("shard: Split needs a freshly built graph (%d of %d nodes alive)", g.NodeCount(), g.NodeIDBound()))
	}
	bound := g.NodeIDBound()
	all := make([]*depgraph.Node, 0, bound)
	g.Nodes(func(n *depgraph.Node) { all = append(all, n) })
	seeded := make([]bool, bound)
	for _, n := range seed {
		seeded[n.ID()] = true
	}
	constant := func(n *depgraph.Node) bool {
		return n.Kind() == depgraph.ValuePair && n.InDegree() == 0 && !seeded[n.ID()]
	}

	// Union the nodes that can influence one another.
	parent := make([]int32, bound)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[rb] = ra
		}
	}
	pairOfRef := make([]int32, numRefs)
	for i := range pairOfRef {
		pairOfRef[i] = -1
	}
	for _, n := range all {
		if n.Kind() != depgraph.RefPair {
			continue
		}
		for _, r := range [2]int{int(n.RefA()), int(n.RefB())} {
			if pairOfRef[r] < 0 {
				pairOfRef[r] = n.ID()
			} else {
				union(pairOfRef[r], n.ID())
			}
		}
	}
	g.Edges(func(e depgraph.Edge) {
		if !constant(e.From) {
			union(e.From.ID(), e.To.ID())
		}
	})

	// Number the components in the order their first node appears, then
	// copy the changeable nodes in global id order, and each constant into
	// every component that reads it, in the order its out-edges reach them.
	p := &Plan{compOf: make([]int32, bound), decided: make([]*depgraph.Node, bound)}
	compOfRoot := make(map[int32]int32)
	for _, n := range all {
		id := n.ID()
		if constant(n) {
			p.compOf[id] = -1
			continue
		}
		cid, ok := compOfRoot[find(id)]
		if !ok {
			cid = int32(len(p.Comps))
			compOfRoot[find(id)] = cid
			p.Comps = append(p.Comps, &Component{ID: int(cid), G: depgraph.New()})
		}
		p.compOf[id] = cid
	}
	copies := make(map[[2]int32]*depgraph.Node) // (constant id, component) -> copy
	for _, n := range all {
		id := n.ID()
		if cid := p.compOf[id]; cid >= 0 {
			p.decided[id] = copyNode(p.Comps[cid].G, n)
			continue
		}
		p.decided[id] = n
		before := len(copies)
		n.EachOut(func(e depgraph.Edge) {
			if k := [2]int32{id, p.compOf[e.To.ID()]}; copies[k] == nil {
				copies[k] = copyNode(p.Comps[k[1]].G, n)
			}
		})
		if extra := len(copies) - before - 1; extra > 0 {
			p.ValueReplicas += extra
		}
	}

	// Copy the edges in creation order, so every span keeps its order.
	g.Edges(func(e depgraph.Edge) {
		cid := p.compOf[e.To.ID()]
		from := p.decided[e.From.ID()]
		if p.compOf[e.From.ID()] < 0 {
			from = copies[[2]int32{e.From.ID(), cid}]
		}
		p.Comps[cid].G.AddEdge(from, p.decided[e.To.ID()], e.Dep, e.Evidence)
	})

	for _, n := range seed {
		c := p.Comps[p.compOf[n.ID()]]
		c.Seed = append(c.Seed, p.decided[n.ID()])
	}
	for _, c := range p.Comps {
		c.Weight = c.G.NodeCount() + c.G.EdgeCount()
	}
	p.group(shards)
	return p
}

// copyNode adds a copy of n, with its similarity and status, to g.
func copyNode(g *depgraph.Graph, n *depgraph.Node) *depgraph.Node {
	var cp *depgraph.Node
	if n.Kind() == depgraph.RefPair {
		cp = g.AddRefPair(n.RefA(), n.RefB(), n.Class())
	} else {
		x, y := n.ValueElems()
		cp = g.AddValuePair(n.Class(), x, y, n.Sim())
	}
	cp.SetSim(n.Sim())
	cp.SetStatus(n.Status())
	return cp
}

// group assigns components to shards with longest-processing-time-first
// balancing: heaviest component to the least-loaded shard, deterministic
// tie-breaks (component id, then shard index). The assignment affects
// scheduling only, never results.
func (p *Plan) group(shards int) {
	if shards > len(p.Comps) {
		shards = len(p.Comps)
	}
	if shards < 1 {
		shards = 1
	}
	order := make([]int, len(p.Comps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := p.Comps[order[i]], p.Comps[order[j]]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		return a.ID < b.ID
	})
	p.Groups = make([][]int, shards)
	p.ShardOf = make([]int, len(p.Comps))
	loads := make([]int, shards)
	for _, cid := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		p.Groups[best] = append(p.Groups[best], cid)
		p.ShardOf[cid] = best
		loads[best] += p.Comps[cid].Weight
	}
	// Keep each shard's components in id order so per-shard execution
	// order is deterministic.
	for _, g := range p.Groups {
		sort.Ints(g)
	}
}

// LargestComponent returns the maximum component weight (nodes + edges).
func (p *Plan) LargestComponent() int {
	max := 0
	for _, c := range p.Comps {
		if c.Weight > max {
			max = c.Weight
		}
	}
	return max
}
