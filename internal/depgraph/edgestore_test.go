package depgraph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"refrecon/internal/reference"
)

// Differential test of the edge store. The graph finds duplicate edges by
// scanning spans and removes edges through position columns; the model
// below does both the obvious way — a map of edge identities and a linear
// scan for the entry to swap out — which is also how the store worked
// before it lost its global edge hash. Random AddEdge / removeNode / fold
// / compact programs run against both, and after every step the return
// values and every node's adjacency *order* must agree: propagation and
// fold results depend on that order, so the O(1) removal has to produce
// the same permutation the scan did.

type modelEdge struct {
	from, to, ev int32
	dep          DepType
}

type modelGraph struct {
	alive   []bool
	in, out [][]modelEdge
	set     map[modelEdge]struct{}
}

func (m *modelGraph) addNode() {
	m.alive = append(m.alive, true)
	m.in = append(m.in, nil)
	m.out = append(m.out, nil)
}

func (m *modelGraph) addEdge(e modelEdge) bool {
	if e.from == e.to {
		return false
	}
	if _, dup := m.set[e]; dup {
		return false
	}
	m.set[e] = struct{}{}
	m.out[e.from] = append(m.out[e.from], e)
	m.in[e.to] = append(m.in[e.to], e)
	return true
}

func modelDrop(list []modelEdge, e modelEdge) []modelEdge {
	for i := range list {
		if list[i] == e {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	panic("model: edge not in adjacency list")
}

func (m *modelGraph) removeNode(id int32) {
	for _, e := range m.in[id] {
		m.out[e.from] = modelDrop(m.out[e.from], e)
		delete(m.set, e)
	}
	for _, e := range m.out[id] {
		m.in[e.to] = modelDrop(m.in[e.to], e)
		delete(m.set, e)
	}
	m.in[id], m.out[id], m.alive[id] = nil, nil, false
}

// fold mirrors the edge movement of Graph.fold: in-edges first, then
// out-edges, then the removal. Neither loop can grow l's own lists.
func (m *modelGraph) fold(l, into int32) {
	for _, e := range m.in[l] {
		m.addEdge(modelEdge{from: e.from, to: into, ev: e.ev, dep: e.dep})
	}
	for _, e := range m.out[l] {
		m.addEdge(modelEdge{from: into, to: e.to, ev: e.ev, dep: e.dep})
	}
	m.removeNode(l)
}

// render prints liveness and both adjacency lists of every node, in order.
func (m *modelGraph) render() string {
	var b strings.Builder
	for id := range m.alive {
		fmt.Fprintf(&b, "%d alive=%v out=%v in=%v\n", id, m.alive[id], m.out[id], m.in[id])
	}
	return b.String()
}

func renderGraph(g *Graph) string {
	var b strings.Builder
	list := func(s span) []modelEdge {
		var out []modelEdge
		for _, e := range g.spanIDs(s) {
			out = append(out, modelEdge{from: g.eFrom[e], to: g.eTo[e], ev: g.eEv[e], dep: g.eDep[e]})
		}
		return out
	}
	for id := range g.alive {
		fmt.Fprintf(&b, "%d alive=%v out=%v in=%v\n", id, g.alive[id], list(g.outSpan[id]), list(g.inSpan[id]))
	}
	return b.String()
}

func TestEdgeStoreMatchesModel(t *testing.T) {
	evidences := []string{"name", "email", "contact"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		m := &modelGraph{set: make(map[modelEdge]struct{})}
		var evIDs []int32
		for _, ev := range evidences {
			evIDs = append(evIDs, g.strs.intern(ev))
		}
		addNode := func() {
			id := int32(len(g.alive))
			if rng.Intn(4) == 0 {
				g.AddValuePair("name", "v", fmt.Sprint("w", id), rng.Float64())
			} else {
				g.AddRefPair(reference.ID(2*id), reference.ID(2*id+1), "Person")
			}
			m.addNode()
		}
		for i := 0; i < 12; i++ {
			addNode()
		}
		// pick returns a random live node id; the population never dies out
		// because removals are outnumbered and nodes keep arriving.
		pick := func() int32 {
			for {
				if id := int32(rng.Intn(len(m.alive))); m.alive[id] {
					return id
				}
			}
		}
		for step := 0; step < 1500; step++ {
			desc := ""
			switch op := rng.Intn(20); {
			case op < 13:
				from, to := pick(), pick()
				dep, ev := DepType(rng.Intn(3)), rng.Intn(len(evidences))
				desc = fmt.Sprintf("addEdge %d->%d %v %s", from, to, dep, evidences[ev])
				got := g.AddEdge(g.handles[from], g.handles[to], dep, evidences[ev])
				want := m.addEdge(modelEdge{from: from, to: to, ev: evIDs[ev], dep: dep})
				if got != want {
					t.Fatalf("seed %d step %d: %s returned %v, model %v", seed, step, desc, got, want)
				}
			case op < 15:
				addNode()
				desc = "addNode"
			case op < 17 && g.NodeCount() > 6:
				id := pick()
				desc = fmt.Sprintf("removeNode %d", id)
				g.removeNode(g.handles[id])
				m.removeNode(id)
			case op < 19 && g.NodeCount() > 6:
				l, into := pick(), pick()
				if l == into {
					continue
				}
				desc = fmt.Sprintf("fold %d into %d", l, into)
				g.fold(g.handles[l], g.handles[into])
				m.fold(l, into)
			default:
				desc = "compact"
				g.compact()
			}
			if got, want := renderGraph(g), m.render(); got != want {
				t.Fatalf("seed %d step %d: after %s adjacency diverged\n--- graph ---\n%s--- model ---\n%s", seed, step, desc, got, want)
			}
			if g.EdgeCount() != len(m.set) {
				t.Fatalf("seed %d step %d: after %s EdgeCount %d, model %d", seed, step, desc, g.EdgeCount(), len(m.set))
			}
			g.Nodes(func(n *Node) {
				if msg := n.CheckAdjacency(); msg != "" {
					t.Fatalf("seed %d step %d: after %s node %d: %s", seed, step, desc, n.id, msg)
				}
			})
		}
	}
}

// TestCheckAdjacencyDetects corrupts the store in the two ways nothing but
// CheckAdjacency would notice: a stale position column and a duplicate
// edge slipped past the dedup scan.
func TestCheckAdjacencyDetects(t *testing.T) {
	build := func() (*Graph, *Node, []*Node) {
		g := New()
		hub := g.AddValuePair("name", "a", "b", 0.5)
		var pairs []*Node
		for i := 0; i < 3; i++ {
			p := g.AddRefPair(reference.ID(2*i), reference.ID(2*i+1), "Person")
			g.AddEdge(hub, p, RealValued, "name")
			pairs = append(pairs, p)
		}
		return g, hub, pairs
	}

	g, hub, pairs := build()
	if msg := hub.CheckAdjacency(); msg != "" {
		t.Fatalf("sound graph reported: %s", msg)
	}
	g.eOutPos[0], g.eOutPos[2] = g.eOutPos[2], g.eOutPos[0]
	if msg := hub.CheckAdjacency(); !strings.Contains(msg, "does not point back") {
		t.Errorf("swapped out positions: got %q", msg)
	}
	if msg := pairs[0].CheckAdjacency(); !strings.Contains(msg, "not at its position") {
		t.Errorf("swapped out positions, seen from the target: got %q", msg)
	}

	g, hub, pairs = build()
	// The same edge again, appended the way addEdgeIDs would have had
	// hasEdge missed it.
	e := int32(len(g.eFrom))
	g.eFrom = append(g.eFrom, hub.id)
	g.eTo = append(g.eTo, pairs[1].id)
	g.eDep = append(g.eDep, RealValued)
	g.eEv = append(g.eEv, g.eEv[1])
	g.eOutPos = append(g.eOutPos, g.outSpan[hub.id].n)
	g.eInPos = append(g.eInPos, g.inSpan[pairs[1].id].n)
	g.spanAppend(&g.outSpan[hub.id], e)
	g.spanAppend(&g.inSpan[pairs[1].id], e)
	if msg := hub.CheckAdjacency(); !strings.Contains(msg, "duplicate") {
		t.Errorf("duplicate edge: got %q", msg)
	}
}

// BenchmarkRemoveHubNeighbors removes the 4,096 dependents of one value
// node, the shape enrichment produces when a popular value's pairs fold
// away. Each removal takes the dependent's edge out of the hub's out-span;
// found by a scan that is quadratic in the hub's degree, through the
// position column it is constant.
func BenchmarkRemoveHubNeighbors(b *testing.B) {
	const degree = 4096
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := New()
		hub := g.AddValuePair("name", "a", "b", 0.5)
		deps := make([]*Node, degree)
		for j := range deps {
			deps[j] = g.AddRefPair(reference.ID(2*j), reference.ID(2*j+1), "Person")
			g.AddEdge(hub, deps[j], RealValued, "name")
		}
		b.StartTimer()
		for _, d := range deps {
			g.removeNode(d)
		}
		if hub.OutDegree() != 0 {
			b.Fatalf("hub keeps %d out-edges", hub.OutDegree())
		}
	}
}
