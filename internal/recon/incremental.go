package recon

import (
	"context"
	"fmt"
	"io"
	"time"

	"refrecon/internal/audit"
	"refrecon/internal/depgraph"
	"refrecon/internal/obs"
	"refrecon/internal/reference"
)

// Session supports incremental reconciliation — the first future-work
// direction of §7: "an efficient incremental reconciliation approach,
// applied when new references are inserted to an already-reconciled
// dataset".
//
// A session owns a growing reference store and a persistent dependency
// graph. After each batch of added references, Reconcile extends the graph
// with the new candidate pairs and their dependencies, runs the
// propagation engine seeded with just those pairs (existing decisions are
// re-activated only when the new evidence touches them), and recomputes
// the constrained transitive closure.
//
// Incremental results can differ slightly from a from-scratch batch run:
// reference enrichment folds performed in earlier rounds are not undone,
// so evidence accumulated under an earlier, smaller view of the data keeps
// its shape. The engine's monotone scoring guarantees merges never
// regress.
//
// Sessions always run the monolithic propagate step and ignore
// Config.Shards: components drift and merge as batches arrive, so a
// per-batch re-split would forfeit the retained graph the session exists
// to keep.
type Session struct {
	rc     *Reconciler
	store  *reference.Store
	b      *builder
	g      *depgraph.Graph
	seen   int
	stats  Stats
	latest *Result
	// aud is the session-lifetime invariant auditor (nil unless
	// Config.Audit). One auditor spans every batch so the cross-phase
	// checks (monotone similarities, merged-never-demoted) also hold
	// across batch boundaries.
	aud *audit.Auditor
	// pub is what the last Snapshot exported, so the next copies only
	// what changed (snapshot.go). It resets with the graph.
	pub publication
	// poisoned is set when a commit was cancelled after it started
	// mutating the session graph. A cancellation can land mid-propagation,
	// leaving the graph short of its fixed point; rather than reason about
	// resuming an order-dependent partial run, the next commit discards
	// the incremental state and reconciles the whole store from scratch —
	// the store itself is never touched by reconciliation, so nothing the
	// caller added is lost.
	poisoned bool
}

// NewSession returns an incremental reconciliation session over the store
// (which may already contain references; they are incorporated on the
// first Reconcile).
func (rc *Reconciler) NewSession(store *reference.Store) *Session {
	return &Session{
		rc:    rc,
		store: store,
		b:     newBuilder(store, rc.sch, rc.cfg),
	}
}

// Store returns the session's store; add new references to it between
// Reconcile calls.
func (s *Session) Store() *reference.Store { return s.store }

// Reconcile incorporates the references added since the previous call and
// returns the updated partitioning of the whole store. It is
// CommitContext with a background context.
//
// A call with no new references is a cheap no-op that returns the previous
// result: nothing is re-seeded, no phase runs, and the accumulated stats
// are untouched. Each commit checks only the references added since the
// previous one (Store.Validate from the seen-cursor), and the cursor only
// advances once that check has passed, so a batch it rejected is checked
// and incorporated in full when Reconcile is retried after the store is
// repaired.
func (s *Session) Reconcile() (*Result, error) {
	return s.CommitContext(context.Background())
}

// CommitContext is Reconcile with cooperative cancellation: ctx is
// checked before each phase (build, propagate, closure) and at every
// propagation-round boundary — the same checkpoints the tracer
// instruments. A cancelled commit returns an error wrapping both
// ErrCanceled and ctx.Err(); the session and its store stay usable — the
// next commit detects the interrupted graph, discards the incremental
// state, and reconciles the whole store from scratch, yielding the same
// partitions a never-cancelled session would have produced.
func (s *Session) CommitContext(ctx context.Context) (*Result, error) {
	return s.commit(ctx, 1)
}

// commit is the reconcile pipeline, the only one in the package: validate,
// build (§3.1), propagate to the fixed point (§3.2), close transitively
// under the non-merge constraints (§3.4), with an invariant audit after
// each phase when Config.Audit is on. One-shot Reconcile is a fresh
// session's first commit, and BuildRetained/Prepared.Propagate are that
// commit's two halves called apart. shards > 1 selects the sharded
// propagate step, which only a session that makes no further commit may
// use (it propagates copies and leaves the session graph behind).
func (s *Session) commit(ctx context.Context, shards int) (*Result, error) {
	seed, idle, err := s.build(ctx)
	if err != nil {
		return nil, err
	}
	if idle {
		return s.latest, nil
	}
	return s.finish(ctx, seed, shards)
}

// build is the first half of commit: it validates the references added
// since the last commit, extends the graph with them, and returns the new
// pairs in seed order. idle reports a commit with nothing to incorporate.
func (s *Session) build(ctx context.Context) (seed []*depgraph.Node, idle bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, canceled("build", err)
	}
	if err := s.store.Validate(s.rc.sch, s.seen); err != nil {
		return nil, false, invalidInput(err)
	}
	if s.poisoned {
		s.reset()
	}
	newRefs := s.store.All()[s.seen:]
	if len(newRefs) == 0 && s.latest != nil {
		return nil, true, nil
	}
	s.seen = s.store.Len()
	if s.aud == nil {
		s.aud = s.newAuditor()
	}
	o := s.rc.cfg.Obs
	if c := o.Counter(); c != nil {
		c.Batches.Add(1)
	}

	sp := o.Tracer().Begin("phase", "build")
	start := time.Now()
	labeled(o, "build", func() { seed = s.b.incorporate(newRefs) })
	s.g = s.b.g
	s.stats.BuildTime += time.Since(start)
	t := s.b.times
	s.stats.EnumerateTime, s.stats.ScoreTime, s.stats.WireTime, s.stats.AssociationsTime =
		t.enumerate, t.score, t.wire, t.associations
	s.stats.CandidatePairs = s.b.candidatePairs
	s.stats.SkippedBuckets = s.b.skippedBuckets
	s.stats.GraphNodes = s.g.NodeCount()
	s.stats.GraphEdges = s.g.EdgeCount()
	sp.EndArgs(map[string]any{
		"batch": len(newRefs), "nodes": s.g.NodeCount(), "edges": s.g.EdgeCount(),
		"candidates": s.b.candidatePairs,
	})
	s.b.feedCounters(o.Counter())
	o.Progressor().Emit(obs.Event{Phase: "build", Final: true})
	if s.aud != nil {
		if err := s.aud.CheckGraph("build", s.g, false).Err(); err != nil {
			return nil, false, err
		}
	}
	return seed, false, nil
}

// fixedPoint is the propagate step of the pipeline, the one step with two
// implementations: a single engine over the session graph (wholeGraph), or
// one engine per closed component (shardedGraph, shards.go).
type fixedPoint interface {
	// run iterates similarities to the fixed point from the seeds.
	run(seed []*depgraph.Node, opts depgraph.Options) (depgraph.Stats, error)
	// audit checks the propagated graph's invariants (Config.Audit only).
	audit(truncated bool) error
	// nodes visits every decided pair node once; the constraint count, the
	// closure, and the partition audit walk it.
	nodes(fn func(*depgraph.Node))
}

// wholeGraph is the monolithic propagate step.
type wholeGraph struct{ s *Session }

func (w wholeGraph) run(seed []*depgraph.Node, opts depgraph.Options) (depgraph.Stats, error) {
	o := w.s.rc.cfg.Obs
	opts.Trace = o.Tracer()
	opts.Progress = o.Progressor()
	return w.s.g.Run(seed, opts), nil
}

func (w wholeGraph) audit(truncated bool) error {
	return w.s.aud.CheckGraph("propagate", w.s.g, truncated).Err()
}

func (w wholeGraph) nodes(fn func(*depgraph.Node)) { w.s.g.Nodes(fn) }

// finish is the second half of commit: propagate from the seeds, then the
// constrained closure over the whole store.
func (s *Session) finish(ctx context.Context, seed []*depgraph.Node, shards int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		// The graph already holds this batch's nodes; without a propagation
		// pass its decisions are stale, so the next commit must rebuild.
		return nil, s.cancelCommit("propagate", err)
	}
	var fp fixedPoint = wholeGraph{s}
	if shards > 1 {
		fp = &shardedGraph{s: s, shards: shards}
	}
	o := s.rc.cfg.Obs
	eopts := s.b.engineOptions()
	eopts.Interrupt = ctx.Err

	sp := o.Tracer().Begin("phase", "propagate")
	start := time.Now()
	var engine depgraph.Stats
	var err error
	labeled(o, "propagate", func() { engine, err = fp.run(seed, eopts) })
	if err != nil {
		return nil, err
	}
	s.stats.PropagateTime += time.Since(start)
	args := map[string]any{
		"steps": engine.Steps, "merges": engine.Merges,
		"folds": engine.Folds, "rounds": engine.Rounds,
	}
	if sh := s.stats.Shard; sh.Components > 0 {
		args["components"] = sh.Components
	}
	sp.EndArgs(args)
	feedEngineCounters(o.Counter(), engine)
	o.Progressor().Emit(obs.Event{
		Phase: "propagate", Round: engine.Rounds,
		Steps: engine.Steps, Merges: engine.Merges, Folds: engine.Folds,
		Final: true,
	})
	if engine.Interrupted {
		return nil, s.cancelCommit("propagate", ctx.Err())
	}
	addEngineStats(&s.stats.Engine, engine)
	s.stats.NonMergeNodes = 0
	fp.nodes(func(n *depgraph.Node) {
		if n.Status() == depgraph.NonMerge {
			s.stats.NonMergeNodes++
		}
	})
	if s.aud != nil {
		if err := fp.audit(engine.Truncated); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		// Propagation converged but the closure never ran; s.latest is
		// still the previous batch's result. Poisoning keeps the recovery
		// story uniform: one rule, rebuild on the next commit.
		return nil, s.cancelCommit("closure", err)
	}

	sp = o.Tracer().Begin("phase", "closure")
	start = time.Now()
	res := closure(s.store, fp.nodes)
	s.stats.ClosureTime += time.Since(start)
	sp.End()
	o.Progressor().Emit(obs.Event{Phase: "closure", Final: true})
	if s.aud != nil {
		if err := s.aud.CheckPartitionNodes("closure", s.store, fp.nodes, res.Partitions, res.Assignment).Err(); err != nil {
			return nil, err
		}
		s.stats.AuditChecks = s.aud.TotalChecks
	}
	s.stats.OverMergeClass, s.stats.OverMergeShare = "", 0
	for _, c := range s.rc.sch.Classes() {
		if share := res.LargestShare(c.Name); share > s.stats.OverMergeShare {
			s.stats.OverMergeClass, s.stats.OverMergeShare = c.Name, share
		}
	}
	res.Stats = s.stats
	s.latest = res
	return res, nil
}

// labeled runs fn under the phase's pprof label when the observer asks for
// profiling.
func labeled(o *obs.Observer, phase string, fn func()) {
	if o.Profiling() {
		obs.Do(phase, fn)
	} else {
		fn()
	}
}

// cancelCommit marks the session for a from-scratch rebuild and returns
// the wrapped cancellation error.
func (s *Session) cancelCommit(phase string, cause error) error {
	s.poisoned = true
	if c := s.rc.cfg.Obs.Counter(); c != nil {
		c.Canceled.Add(1)
	}
	return canceled(phase, cause)
}

// reset discards the incremental state after a cancelled commit: a fresh
// builder and graph, the seen-cursor rewound to zero. The following
// commit incorporates the entire store as one batch, which is exactly a
// one-shot Reconcile — deterministic and independent of where the
// cancelled run stopped. The auditor is reset too: its cross-batch
// invariants (monotone similarity, merges never demoted) are defined
// against a graph that no longer exists.
func (s *Session) reset() {
	s.b = newBuilder(s.store, s.rc.sch, s.rc.cfg)
	s.g = nil
	s.seen = 0
	s.stats = Stats{}
	s.latest = nil
	s.aud = nil
	s.pub = publication{}
	s.poisoned = false
}

// Poison marks the session for a from-scratch rebuild on its next commit,
// exactly as an internally cancelled commit would. Callers use it when the
// session's incremental state is known to have diverged from the store —
// the serving layer poisons after a publish failure, and replay poisons
// where the logged run did (a recorded cancellation) so a replayed history
// evolves identically to the live one.
func (s *Session) Poison() { s.poisoned = true }

// WriteDOT renders the session's dependency graph in Graphviz DOT format
// (see depgraph.Graph.WriteDOT). It errors before the first Reconcile.
func (s *Session) WriteDOT(w io.Writer, filter func(*depgraph.Node) bool) error {
	if s.g == nil {
		return fmt.Errorf("recon: WriteDOT before Reconcile")
	}
	return s.g.WriteDOT(w, filter)
}
