// Package depgraph implements the dependency graph of §3 of the paper: an
// engine that propagates reference-similarity decisions between dependent
// reconciliation decisions until a fixed point.
//
// Nodes represent the similarity of a pair of *elements* — either two
// references of the same class, or two attribute values. Directed edges
// represent dependency: an edge n -> m means m's similarity must be
// reconsidered when n's similarity grows. Edges are typed (§3.1):
//
//   - real-valued: m's score uses n's actual similarity value;
//   - strong-boolean: reconciling n's references implies (strong evidence
//     for) reconciling m's;
//   - weak-boolean: reconciling n's references merely increases m's score.
//
// The engine is generic: it knows nothing about classes or attribute
// semantics. A Scorer supplied by the caller computes each node's
// similarity from its incoming edges, and per-node merge thresholds decide
// when a node becomes "merged". Reference enrichment (§3.3) and non-merge
// constraint handling (§3.4) are implemented as graph operations here; the
// reconciliation-specific policy lives in package recon.
//
// # Storage layout
//
// Node and edge state lives in columnar arrays indexed by dense int32 ids,
// adjacency in per-node spans of an arena, strings off the hot path
// (storage.go). *Node is a stable handle, so pointer equality identifies a
// node; Edge is a value materialized during iteration.
package depgraph

import (
	"fmt"
	"math"

	"refrecon/internal/reference"
)

// Kind distinguishes the two node populations.
type Kind uint8

const (
	// RefPair nodes represent the similarity of two references.
	RefPair Kind = iota
	// ValuePair nodes represent the similarity of two attribute values
	// (possibly of different attributes, e.g. a name vs an email).
	ValuePair
)

func (k Kind) String() string {
	if k == ValuePair {
		return "value-pair"
	}
	return "ref-pair"
}

// Status is the propagation state of a node (§3.2, §3.4).
type Status uint8

const (
	// Inactive nodes have an up-to-date similarity.
	Inactive Status = iota
	// Active nodes are queued for (re)computation.
	Active
	// Merged nodes exceeded their merge threshold: the elements are
	// reconciled.
	Merged
	// NonMerge nodes are constrained: the elements are guaranteed
	// distinct and must never be reconciled.
	NonMerge
)

func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Merged:
		return "merged"
	case NonMerge:
		return "non-merge"
	default:
		return "inactive"
	}
}

// DepType classifies how the edge's target depends on its source (§3.1).
type DepType uint8

const (
	// RealValued dependencies feed the source's similarity value into the
	// target's score.
	RealValued DepType = iota
	// StrongBoolean dependencies matter only once the source is merged,
	// and then imply the target should merge.
	StrongBoolean
	// WeakBoolean dependencies matter only once the source is merged, and
	// then merely increase the target's score.
	WeakBoolean
)

func (d DepType) String() string {
	switch d {
	case StrongBoolean:
		return "strong-boolean"
	case WeakBoolean:
		return "weak-boolean"
	default:
		return "real-valued"
	}
}

// Edge is a directed, typed dependency. Evidence labels the kind of
// evidence the source contributes to the target's similarity function
// (e.g. "name", "email", "name-email", "coauthor"); the Scorer interprets
// it. Edge is a value materialized from the graph's columnar edge storage
// during iteration; the From/To handles are the nodes' stable pointers.
type Edge struct {
	From, To *Node
	Dep      DepType
	Evidence string
}

// Node is a stable handle to one similarity decision. Handles are
// allocated from slabs by the graph — every node has exactly one, so
// pointer equality identifies nodes — and stay valid after the node is
// removed (Alive reports false). Field state lives in the graph's columns
// and is reached through the accessor methods.
type Node struct {
	g  *Graph
	id int32
}

// Key returns the canonical element-pair key (the paper's uniqueness
// requirement). Keys are materialized lazily: the hot path keys nodes on
// packed integers, and the string form is built on first request.
func (n *Node) Key() string {
	g := n.g
	if g.key[n.id] == "" {
		g.key[n.id] = g.buildKey(n.id)
	}
	return g.key[n.id]
}

// ID returns the node's dense storage id: assigned at insertion, never
// reused or renumbered. Useful for indexing side tables sized by
// Graph.NodeIDBound. Ids are graph-local — nodes of different graphs may
// share an id.
func (n *Node) ID() int32 { return n.id }

// Kind says whether this is a reference pair or a value pair.
func (n *Node) Kind() Kind { return n.g.kind[n.id] }

// RefA returns the smaller reference id of a RefPair node (-1 for value
// pairs).
func (n *Node) RefA() reference.ID { return n.g.refA[n.id] }

// RefB returns the larger reference id of a RefPair node (-1 for value
// pairs).
func (n *Node) RefB() reference.ID { return n.g.refB[n.id] }

// Class is the references' class for RefPair nodes; for ValuePair nodes it
// is the evidence type of the value comparison.
func (n *Node) Class() string { return n.g.strs.str(n.g.classID[n.id]) }

// ValueElems returns the canonical element keys of a ValuePair node, in
// stored (string-ascending) order. For RefPair nodes both strings are
// empty.
func (n *Node) ValueElems() (x, y string) {
	if n.g.kind[n.id] != ValuePair {
		return "", ""
	}
	return n.g.strs.str(n.g.valX[n.id]), n.g.strs.str(n.g.valY[n.id])
}

// Sim is the current similarity score in [0, 1].
func (n *Node) Sim() float64 { return n.g.sim[n.id] }

// Status is the propagation state.
func (n *Node) Status() Status { return n.g.status[n.id] }

// SetSim writes the similarity directly, bypassing the monotone raise the
// engine uses (construction and tests).
func (n *Node) SetSim(v float64) { n.g.sim[n.id] = v }

// SetStatus writes the propagation state directly (construction and tests).
func (n *Node) SetStatus(s Status) { n.g.status[n.id] = s }

// EachIn invokes fn for every incoming edge, in adjacency order, without
// materializing a slice.
func (n *Node) EachIn(fn func(Edge)) {
	g := n.g
	for _, e := range g.spanIDs(g.inSpan[n.id]) {
		fn(g.edgeAt(e))
	}
}

// AppendInputs appends to dst, as words, n's similarity and status, then
// per in-edge in span order the source id, interned evidence and
// dependency, and the source's similarity and status: all a description
// of n and its evidence reads, since ids are never reused and a node's key
// never changes. Nothing is materialized: it reads the in-span columns.
func (n *Node) AppendInputs(dst []uint64) []uint64 {
	g := n.g
	dst = append(dst, math.Float64bits(g.sim[n.id]), uint64(g.status[n.id]))
	for _, e := range g.spanIDs(g.inSpan[n.id]) {
		f := g.eFrom[e]
		dst = append(dst, uint64(uint32(f))<<32|uint64(uint32(g.eEv[e])),
			math.Float64bits(g.sim[f]), uint64(g.eDep[e])<<8|uint64(g.status[f]))
	}
	return dst
}

// EachOut invokes fn for every outgoing edge, in adjacency order, without
// materializing a slice.
func (n *Node) EachOut(fn func(Edge)) {
	g := n.g
	for _, e := range g.spanIDs(g.outSpan[n.id]) {
		fn(g.edgeAt(e))
	}
}

// InDegree returns the number of incoming edges.
func (n *Node) InDegree() int { return int(n.g.inSpan[n.id].n) }

// OutDegree returns the number of outgoing edges.
func (n *Node) OutDegree() int { return int(n.g.outSpan[n.id].n) }

// Alive reports whether the node is still part of the graph (enrichment
// removes nodes).
func (n *Node) Alive() bool { return n.g.alive[n.id] }

// Other returns the mate of r in a RefPair node. It panics if r is not one
// of the node's references.
func (n *Node) Other(r reference.ID) reference.ID {
	switch r {
	case n.g.refA[n.id]:
		return n.g.refB[n.id]
	case n.g.refB[n.id]:
		return n.g.refA[n.id]
	}
	panic(fmt.Sprintf("depgraph: reference %d not in node %s", r, n.Key()))
}

// String renders a compact description for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("%s(%s sim=%.3f %s)", n.Kind(), n.Key(), n.Sim(), n.Status())
}

// RefPairKey builds the canonical key for a reference pair.
func RefPairKey(a, b reference.ID) string {
	if b < a {
		a, b = b, a
	}
	return fmt.Sprintf("r%d|r%d", a, b)
}

// packPair packs a canonical (a < b) reference pair into one map key.
func packPair(a, b reference.ID) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}
