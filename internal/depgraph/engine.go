package depgraph

import (
	"fmt"
	"time"

	"refrecon/internal/obs"
	"refrecon/internal/reference"
)

// Scorer computes a node's similarity from its incoming edges. Score must
// be monotone in the incoming similarities (§3.2's termination condition):
// raising a neighbor's similarity may only raise the result. The engine
// additionally clamps scores to [0,1] and never lets a node's similarity
// decrease.
type Scorer interface {
	Score(n *Node) float64
}

// ScorerFunc adapts a function to the Scorer interface.
type ScorerFunc func(n *Node) float64

// Score implements Scorer.
func (f ScorerFunc) Score(n *Node) float64 { return f(n) }

// DefaultEpsilon is the reactivation threshold a run uses when
// Options.Epsilon is unset.
const DefaultEpsilon = 1e-6

// Options configure a propagation run.
type Options struct {
	// Scorer computes node similarities. Required.
	Scorer Scorer
	// MergeThreshold returns the similarity at which a node merges.
	// Required. (The paper uses 0.85 for reference pairs and 1.0 for
	// attribute-value pairs.)
	MergeThreshold func(n *Node) float64
	// Epsilon is the minimum similarity increase that re-activates
	// neighbors; it guarantees termination (§3.2). Default DefaultEpsilon.
	Epsilon float64
	// Propagate enables dependency-driven re-activation (§3.2). When
	// false, every seeded node is scored exactly once in seed order (the
	// TRADITIONAL and MERGE ablation modes).
	Propagate bool
	// Enrich enables reference enrichment (§3.3): merging (r1,r2) folds
	// every node (r2,r3) into (r1,r3).
	Enrich bool
	// OnFold, if set, is invoked whenever enrichment folds node l into node
	// m, just before l is removed. The query-time collective pass uses it to
	// follow its query pairs through folds. The hook stays installed for
	// the duration of the Run only.
	OnFold func(l, m *Node)
	// MaxSteps caps the number of node evaluations as a safety net
	// against non-monotone scorers. 0 means 1000 * initial node count.
	MaxSteps int
	// Interrupt, if set, is polled at propagation-round boundaries. A
	// non-nil return stops the run before the fixed point: Stats.Interrupted
	// is set and the graph is left self-consistent (the interrupted node is
	// re-queued) but not converged.
	// Callers typically pass ctx.Err for cooperative cancellation.
	Interrupt func() error
	// Trace, if set, records one span per propagation round (nested inside
	// the caller's phase span by time containment) and one per enrichment
	// cascade that folds at least one node. Nil disables tracing at the
	// cost of a pointer comparison per checkpoint.
	Trace *obs.Tracer
	// Progress, if set, receives one event per completed propagation
	// round. Nil disables progress reporting.
	Progress *obs.Progress
}

// Stats reports what a Run did.
type Stats struct {
	Steps      int  // node evaluations performed
	Merges     int  // RefPair nodes that became merged
	Folds      int  // nodes removed by enrichment
	Reactivate int  // re-activations pushed by propagation
	Truncated  bool // true if MaxSteps was hit

	// Rounds counts completed propagation rounds: a round is one sweep of
	// the queue as it stood when the round opened, plus any strong-boolean
	// activations that jumped into it (see nodeQueue). QueueHighWater is
	// the deepest the queue got, sampled before each evaluation.
	// RequeueReal / RequeueStrong / RequeueWeak split Reactivate by the
	// dependency type that pushed the re-activation. Interrupted is set
	// when Options.Interrupt stopped the run before the fixed point.
	// All of these are deterministic: identical across worker counts (the
	// determinism tests compare them).
	Rounds         int
	QueueHighWater int
	RequeueReal    int
	RequeueStrong  int
	RequeueWeak    int
	Interrupted    bool

	// DeltaHits and AggRebuilds are always zero: every step scores from a
	// fresh scan of its in-edges. They stay only because the frozen bench
	// adapter reads them (ROADMAP item 16).
	DeltaHits   int
	AggRebuilds int

	// EdgeAdds counts AddEdge calls (enrichment's re-attachments included,
	// self-edges not) and DedupProbes the edges their duplicate scans
	// examined, both since the previous Run returned — so a run's figures
	// include the construction that fed it. DedupProbes / EdgeAdds is the
	// mean scan length that replaced one probe of a graph-wide edge hash.
	EdgeAdds    int
	DedupProbes int
}

// Run executes the propagation algorithm of Figure 4 over the graph. seed
// lists the RefPair nodes to evaluate, in the desired initial order
// (callers order dependees before dependents per §3.2's heuristic).
func (g *Graph) Run(seed []*Node, opt Options) Stats {
	if opt.Scorer == nil || opt.MergeThreshold == nil {
		panic("depgraph: Options.Scorer and Options.MergeThreshold are required")
	}
	eps := opt.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1000 * (g.liveNodes + 1)
	}
	var st Stats
	if opt.OnFold != nil {
		g.onFold = opt.OnFold
		defer func() { g.onFold = nil }()
	}

	for _, n := range seed {
		if g.alive[n.id] && g.status[n.id] != NonMerge {
			// Re-seeding demotes a previously merged node to Active; its
			// boolean contribution disappears until it re-merges.
			g.status[n.id] = Active
			g.queue.pushBack(n)
		}
	}

	if opt.Enrich {
		var begin time.Time
		if opt.Trace != nil {
			begin = time.Now()
		}
		folds, scanned := g.reenrich()
		st.Folds += folds
		if opt.Trace != nil {
			opt.Trace.Complete("enrich", "reenrich", begin, map[string]any{"folds": folds, "scanned": scanned})
		}
	}

	// Round bookkeeping. The queue's round counter survives across
	// incremental Runs (the session reuses the graph), so this run's
	// rounds are counted relative to where the counter started. With
	// tracing, progress, and interruption all disabled the only per-step
	// additions to the pre-observability loop are two integer compares.
	startRound := g.queue.round
	round := startRound
	checkpoints := opt.Trace != nil || opt.Progress != nil || opt.Interrupt != nil
	var roundBegin time.Time
	roundMark := st // stats as of the open round's start
	closeRound := func(q int) {
		if opt.Trace != nil {
			opt.Trace.Complete("round", fmt.Sprintf("round %d", round-startRound), roundBegin, map[string]any{
				"steps":  st.Steps - roundMark.Steps,
				"merges": st.Merges - roundMark.Merges,
				"folds":  st.Folds - roundMark.Folds,
				"queue":  q,
			})
		}
		if opt.Progress != nil {
			opt.Progress.Emit(obs.Event{
				Phase: "propagate", Round: round - startRound,
				Steps: st.Steps, Merges: st.Merges, Folds: st.Folds, Queue: q,
			})
		}
		roundMark = st
	}

	for {
		if l := g.queue.len(); l > st.QueueHighWater {
			st.QueueHighWater = l
		}
		n := g.queue.pop()
		if n == nil {
			break
		}
		if g.queue.round != round {
			// Round boundary: the entry just popped opened a new round.
			if checkpoints {
				if round > startRound {
					closeRound(g.queue.len() + 1)
				}
				if opt.Interrupt != nil {
					if err := opt.Interrupt(); err != nil {
						st.Interrupted = true
						g.queue.pushFront(n) // unevaluated; keep the graph consistent
						break
					}
				}
				if opt.Trace != nil {
					roundBegin = time.Now()
				}
			}
			round = g.queue.round
		}
		id := n.id
		if g.status[id] == NonMerge {
			continue
		}
		if st.Steps >= maxSteps {
			st.Truncated = true
			break
		}
		st.Steps++

		wasMerged := g.status[id] == Merged
		old := g.sim[id]
		s := opt.Scorer.Score(n)
		if s > 1 {
			s = 1
		}
		g.raiseSim(n, s)
		increased := g.sim[id] > old+eps

		if g.sim[id] >= opt.MergeThreshold(n) {
			g.status[id] = Merged
		} else if g.status[id] != Merged {
			g.status[id] = Inactive
		}
		newlyMerged := g.status[id] == Merged && !wasMerged

		if opt.Propagate && increased {
			for _, e := range g.spanIDs(g.outSpan[id]) {
				if g.eDep[e] == RealValued && g.activate(g.handles[g.eTo[e]]) {
					st.Reactivate++
					st.RequeueReal++
				}
			}
		}
		if newlyMerged {
			if g.kind[id] == RefPair {
				st.Merges++
			}
			if opt.Propagate {
				// Strong-boolean neighbors jump the queue; weak-boolean
				// neighbors go to the back (§3.2).
				for _, e := range g.spanIDs(g.outSpan[id]) {
					if g.eDep[e] != StrongBoolean {
						continue
					}
					if g.activateFront(g.handles[g.eTo[e]]) {
						st.Reactivate++
						st.RequeueStrong++
					}
				}
				for _, e := range g.spanIDs(g.outSpan[id]) {
					if g.eDep[e] != WeakBoolean {
						continue
					}
					if g.activate(g.handles[g.eTo[e]]) {
						st.Reactivate++
						st.RequeueWeak++
					}
				}
			}
			if opt.Enrich && g.kind[id] == RefPair {
				var begin time.Time
				if opt.Trace != nil {
					begin = time.Now()
				}
				folds := g.enrich(n)
				st.Folds += folds
				if opt.Trace != nil && folds > 0 {
					opt.Trace.Complete("enrich", n.Key(), begin, map[string]any{"folds": folds})
				}
			}
		}
	}
	st.Rounds = g.queue.round - startRound
	if checkpoints && round > startRound && !st.Interrupted {
		closeRound(g.queue.len())
	}
	if opt.Enrich {
		g.settled = int32(len(g.kind))
	}
	st.EdgeAdds, st.DedupProbes = int(g.dedup.adds), int(g.dedup.probes)
	g.dedup.adds, g.dedup.probes = 0, 0
	return st
}

// RaiseSim raises n's similarity to sim, a no-op unless sim is strictly
// higher than the current value and n is not constrained NonMerge: the
// query-time collective pass floors a pair of its private graph at the
// stored decision's similarity. The value is clamped to 1.
func (g *Graph) RaiseSim(n *Node, sim float64) {
	if sim > 1 {
		sim = 1
	}
	if g.status[n.id] != NonMerge {
		g.raiseSim(n, sim)
	}
}

// activate pushes m to the back of the queue if it is eligible for
// recomputation, reporting whether it was pushed. A merged node keeps its
// Merged status while queued: downgrading it would erase the evidence it
// provides to others' similarity functions and would make it fire its
// "newly merged" activations a second time.
func (g *Graph) activate(m *Node) bool {
	if !g.eligible(m) {
		return false
	}
	if g.status[m.id] == Inactive {
		g.status[m.id] = Active
	}
	g.queue.pushBack(m)
	return true
}

// activateFront pushes m to the front of the queue if eligible.
func (g *Graph) activateFront(m *Node) bool {
	if !g.eligible(m) {
		return false
	}
	if g.status[m.id] == Inactive {
		g.status[m.id] = Active
	}
	g.queue.pushFront(m)
	return true
}

func (g *Graph) eligible(m *Node) bool {
	id := m.id
	return g.alive[id] && !g.queued[id] && g.status[id] != NonMerge && g.sim[id] < 1
}

// reenrich re-applies reference enrichment for pairs that merged in a
// previous Run. A pair created since may duplicate an existing pair of an
// already-merged reference — the merge event that would have folded it
// fired before the node existed — leaving several live nodes for the same
// (merged cluster, counterpart) relationship, each holding a scattered
// fraction of the evidence a single-batch run concentrates on one node.
// Folding eagerly at Run start restores the enrichment fixed point.
//
// Only a merged pair sharing a reference with a node created since the
// last enriching Run (an id at or above settled) can fold: when (r1, r2)
// merged, enrich left no r3 with both (r2, r3) and (r1, r3) alive, and a
// fold only removes nodes, so a fold needs a new (r1, r3) or (r2, r3).
// Those pairs are enriched once each, in node order; a second pass would
// fold nothing, as nothing merges here and enrich leaves no fold behind.
// It returns the folds and the merged pairs it enriched.
func (g *Graph) reenrich() (folds, scanned int) {
	var touched []bool // by reference id: in a pair created since settled
	for id := int(g.settled); id < len(g.kind); id++ {
		if b := int(g.refB[id]); g.kind[id] == RefPair {
			touched = append(touched, make([]bool, max(0, b+1-len(touched)))...)
			touched[g.refA[id]], touched[b] = true, true
		}
	}
	hit := func(r reference.ID) bool { return int(r) < len(touched) && touched[r] }
	var merged []*Node
	for id, st := range g.status {
		if st == Merged && g.kind[id] == RefPair && g.alive[id] && (hit(g.refA[id]) || hit(g.refB[id])) {
			merged = append(merged, g.handles[id])
		}
	}
	for _, n := range merged {
		if g.alive[n.id] {
			folds += g.enrich(n)
		}
	}
	return folds, len(merged)
}

// enrich implements §3.3: after merging n = (r1, r2), every node (r2, r3)
// whose counterpart (r1, r3) exists is folded into the counterpart —
// neighbors are reconnected, the duplicate is removed, and nodes that
// gained incoming neighbors are re-queued at the back. Returns the number
// of folded (removed) nodes.
func (g *Graph) enrich(n *Node) int {
	r1, r2 := g.refA[n.id], g.refB[n.id]
	folds := 0
	// Copy the index entries: fold mutates g.refNodes via removeNode.
	g.enrichIDs = append(g.enrichIDs[:0], g.pairsOf(r2)...)
	for _, id := range g.enrichIDs {
		l := g.handles[id]
		if l == n || !g.alive[id] {
			continue
		}
		r3 := l.Other(r2)
		if r3 == r1 {
			continue
		}
		m := g.LookupRefPair(r1, r3)
		if m == nil || m == l {
			continue
		}
		g.fold(l, m)
		folds++
	}
	return folds
}

// fold moves l's dependencies onto m and removes l. The span aliases below
// stay valid while addEdgeIDs grows the arena: relocation writes only to
// fresh tail regions, and l itself gains no edges during the fold.
func (g *Graph) fold(l, m *Node) {
	gainedIncoming := false
	for _, e := range g.spanIDs(g.inSpan[l.id]) {
		if g.addEdgeIDs(g.eFrom[e], m.id, g.eDep[e], g.eEv[e]) {
			gainedIncoming = true
		}
	}
	for _, e := range g.spanIDs(g.outSpan[l.id]) {
		if g.addEdgeIDs(m.id, g.eTo[e], g.eDep[e], g.eEv[e]) {
			// The target gained a new incoming neighbor: reconsider it.
			g.activate(g.handles[g.eTo[e]])
		}
	}
	switch {
	case g.status[l.id] == NonMerge:
		// r2 and r3 are constrained distinct; r1 ~ r2, so r1 and r3 are
		// too.
		g.MarkNonMerge(m)
	case g.status[m.id] != NonMerge && g.sim[l.id] > g.sim[m.id]:
		// Inherit the similarity but not the status: re-queueing m lets
		// the normal pop path mark it merged and fire its neighbors.
		g.raiseSim(m, g.sim[l.id])
		gainedIncoming = true
	}
	if g.onFold != nil {
		g.onFold(l, m)
	}
	g.removeNode(l)
	// Bypass the sim<1 eligibility check: even a node whose inherited
	// similarity is already 1 must be evaluated once more so its merged
	// status and downstream activations take effect.
	if gainedIncoming && !g.queued[m.id] && g.status[m.id] != NonMerge && g.status[m.id] != Merged {
		g.status[m.id] = Active
		g.queue.pushBack(m)
	}
}
