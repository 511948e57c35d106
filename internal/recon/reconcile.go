package recon

import (
	"context"
	"fmt"
	"sort"
	"time"

	"refrecon/internal/audit"
	"refrecon/internal/depgraph"
	"refrecon/internal/obs"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/unionfind"
)

// Reconciler runs the DepGraph algorithm over a reference store.
type Reconciler struct {
	sch *schema.Schema
	cfg Config
}

// New returns a reconciler for the schema with the given configuration.
func New(sch *schema.Schema, cfg Config) *Reconciler {
	return &Reconciler{sch: sch, cfg: cfg}
}

// Stats describes one reconciliation run.
type Stats struct {
	// CandidatePairs is the number of blocked candidate pairs considered.
	CandidatePairs int
	// GraphNodes / GraphEdges measure the dependency graph right after
	// construction (the Table 6 size metric); in a session, right after
	// the latest commit's construction, before its folds.
	GraphNodes, GraphEdges int
	// NonMergeNodes counts constraint-marked nodes after the run.
	NonMergeNodes int
	// SkippedBuckets counts blocking buckets dropped by the bucket cap.
	SkippedBuckets int
	// Engine carries the propagation-engine counters. Under sharded
	// execution (Config.Shards != 1) it aggregates the per-component runs:
	// counts sum, QueueHighWater is the max, terminal flags or together.
	Engine depgraph.Stats
	// Shard describes the sharded execution layer; the whole struct is
	// zero when one engine ran over the whole graph.
	Shard ShardStats
	// BuildTime, PropagateTime, and ClosureTime are wall-clock phase
	// timings: graph construction (blocking, candidate scoring, wiring),
	// fixed-point propagation, and the constrained transitive closure.
	// Incremental sessions accumulate them across batches. Timings are
	// informational and excluded from determinism comparisons.
	BuildTime, PropagateTime, ClosureTime time.Duration
	// EnumerateTime, ScoreTime, WireTime, and AssociationsTime split
	// BuildTime by construction stage, matching the build.enumerate /
	// build.score / build.wire / build.associations trace spans: blocking
	// enumeration of candidate pairs and their value comparisons, the
	// (parallel) scoring of those comparisons, serial wiring of nodes and
	// edges, and association wiring, which scores the induced pairs it
	// discovers serially. The rest of BuildTime is library statistics,
	// blocking keys, and constraint seeding.
	EnumerateTime, ScoreTime, WireTime, AssociationsTime time.Duration
	// AuditChecks counts the invariant assertions evaluated when
	// Config.Audit is on (zero otherwise). Informational, like the timings.
	AuditChecks int
	// OverMergeClass and OverMergeShare are an over-merge alarm that needs
	// no gold labels: the class with the highest Result.LargestShare (the
	// first in schema order on a tie) and that share. A class that has
	// collapsed into one entity reads close to 1.
	OverMergeClass string
	OverMergeShare float64
}

// Result is the outcome of a reconciliation.
type Result struct {
	// Partitions maps each class to its entity partitions: slices of
	// reference ids, each partition one resolved real-world entity.
	Partitions map[string][][]reference.ID
	// Assignment maps every reference id to a dataset-wide partition
	// label.
	Assignment map[reference.ID]int
	// Stats describes the run.
	Stats Stats
}

// PartitionCount returns the number of partitions for a class (the Table
// 4/5 metric).
func (r *Result) PartitionCount(class string) int { return len(r.Partitions[class]) }

// LargestShare returns the share of the class's references that its
// largest partition holds (0 for a class without references).
func (r *Result) LargestShare(class string) float64 {
	largest, total := 0, 0
	for _, part := range r.Partitions[class] {
		total += len(part)
		largest = max(largest, len(part))
	}
	if total == 0 {
		return 0
	}
	return float64(largest) / float64(total)
}

// SameEntity reports whether two references landed in the same partition.
func (r *Result) SameEntity(a, b reference.ID) bool {
	pa, okA := r.Assignment[a]
	pb, okB := r.Assignment[b]
	return okA && okB && pa == pb
}

// newAuditor returns an invariant auditor matching the session's engine
// configuration, or nil when Config.Audit is off.
func (s *Session) newAuditor() *audit.Auditor {
	if !s.rc.cfg.Audit {
		return nil
	}
	return audit.New(mergeThreshold, s.rc.cfg.Constraints)
}

// Prepared is a one-shot reconciliation paused at the build/propagate
// boundary: BuildRetained runs the first half of a fresh session's commit,
// Propagate the second. The split lets benchmarks (and diagnostics) time
// the propagation fixed point and the closure separately from
// construction.
type Prepared struct {
	s    *Session
	seed []*depgraph.Node
	used bool
}

// BuildRetained runs the construction phase and keeps the graph, ready for
// a single Propagate call.
func (rc *Reconciler) BuildRetained(store *reference.Store) (*Prepared, error) {
	s := rc.NewSession(store)
	seed, _, err := s.build(context.Background())
	if err != nil {
		return nil, err
	}
	return &Prepared{s: s, seed: seed}, nil
}

// Propagate runs the fixed point and the constrained closure over the
// prepared graph. Propagation mutates the graph, so a Prepared value is
// single-use; a second call errors.
func (p *Prepared) Propagate() (*Result, error) {
	if p.used {
		return nil, fmt.Errorf("recon: Prepared.Propagate called twice (the graph is consumed)")
	}
	p.used = true
	return p.s.finish(context.Background(), p.seed, p.s.rc.shardCount())
}

// Reconcile partitions the store's references into entities.
func (rc *Reconciler) Reconcile(store *reference.Store) (*Result, error) {
	return rc.ReconcileContext(context.Background(), store)
}

// ReconcileContext is Reconcile with cooperative cancellation. It is the
// first commit of a fresh session (see Session.CommitContext for the
// checkpoints and the error contract), with the one difference that it
// honors Config.Shards; the store is never mutated by reconciliation, so
// it remains usable after a cancelled run.
func (rc *Reconciler) ReconcileContext(ctx context.Context, store *reference.Store) (*Result, error) {
	return rc.NewSession(store).commit(ctx, rc.shardCount())
}

// feedEngineCounters adds one engine run's stats to the observer's
// counter set. Safe with a nil set.
func feedEngineCounters(c *obs.Counters, e depgraph.Stats) {
	if c == nil {
		return
	}
	c.Steps.Add(int64(e.Steps))
	c.Merges.Add(int64(e.Merges))
	c.Folds.Add(int64(e.Folds))
	c.Rounds.Add(int64(e.Rounds))
	c.RequeueReal.Add(int64(e.RequeueReal))
	c.RequeueStrong.Add(int64(e.RequeueStrong))
	c.RequeueWeak.Add(int64(e.RequeueWeak))
	obs.UpdateMax(&c.QueueHighWater, int64(e.QueueHighWater))
}

// closure computes the transitive closure over merged reference pairs,
// honoring non-merge constraints: merged pairs are applied in descending
// similarity order and a union that would bring the two sides of a
// constrained pair into one partition is skipped (with Config.Constraints
// off no node is NonMerge, so every merged pair is unioned). This realizes
// §3.4's post-fixed-point negative-evidence propagation — "if we decide to
// reconcile r1 with r2, and r2 with r3, then r1, r2 and r3 will be
// clustered even if we have evidence showing that r1 is not similar to r3"
// — by revoking the least-certain link on any constraint-violating path.
//
// each is the propagate step's node iterator: the session graph's nodes
// or, under sharding, each global node's decision in global id order.
func closure(store *reference.Store, each func(func(*depgraph.Node))) *Result {
	uf := unionfind.New(store.Len())
	var merged []*depgraph.Node
	enemies := make(map[int][]int) // root -> enemy reference ids
	each(func(n *depgraph.Node) {
		if n.Kind() != depgraph.RefPair {
			return
		}
		switch n.Status() {
		case depgraph.Merged:
			merged = append(merged, n)
		case depgraph.NonMerge:
			enemies[int(n.RefA())] = append(enemies[int(n.RefA())], int(n.RefB()))
			enemies[int(n.RefB())] = append(enemies[int(n.RefB())], int(n.RefA()))
		}
	})
	// Most-certain links first; ties broken by key for determinism.
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Sim() != merged[j].Sim() {
			return merged[i].Sim() > merged[j].Sim()
		}
		return merged[i].Key() < merged[j].Key()
	})
	hostile := func(ra, rb int) bool {
		es := enemies[ra]
		if len(enemies[rb]) < len(es) {
			es, rb = enemies[rb], ra
		}
		for _, e := range es {
			if uf.Find(e) == rb {
				return true
			}
		}
		return false
	}
	for _, n := range merged {
		ra, rb := uf.Find(int(n.RefA())), uf.Find(int(n.RefB()))
		if ra == rb || hostile(ra, rb) {
			continue
		}
		uf.Union(ra, rb)
		r := uf.Find(ra)
		other := ra + rb - r
		if es := enemies[other]; len(es) > 0 {
			enemies[r] = append(enemies[r], es...)
			delete(enemies, other)
		}
	}
	return partitionResult(store, uf)
}

func partitionResult(store *reference.Store, uf *unionfind.UF) *Result {
	res := &Result{
		Partitions: make(map[string][][]reference.ID),
		Assignment: make(map[reference.ID]int, store.Len()),
	}
	for label, part := range uf.Partitions() {
		if len(part) == 0 {
			continue
		}
		class := store.Get(reference.ID(part[0])).Class
		ids := make([]reference.ID, len(part))
		for i, x := range part {
			ids[i] = reference.ID(x)
			res.Assignment[reference.ID(x)] = label
		}
		res.Partitions[class] = append(res.Partitions[class], ids)
	}
	return res
}
