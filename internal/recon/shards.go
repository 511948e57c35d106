package recon

// Sharded reconciliation: the construction phase builds one global graph
// exactly as the monolithic path does (so the candidate set, node and edge
// shapes, and their stats are identical by construction), then package
// shard splits it into blocking-connected components, each with a private
// columnar graph and queue. Components are grouped
// into Config.Shards balanced groups and one propagation engine runs per
// group concurrently; after every wave the serial boundary sync pushes
// cross-component evidence (association and contact edges between
// components) into the mirror copies and re-runs only the affected
// components, iterating to the same global fixed point the single engine
// reaches. Similarities and statuses only ever go up, so the frontier
// loop terminates; the shard-count equivalence tests pin bit-identical
// partitions and stats for every Shards >= 2, and identical partitions
// against Shards == 1.

import (
	"fmt"
	"runtime"

	"refrecon/internal/audit"
	"refrecon/internal/depgraph"
	"refrecon/internal/obs"
	"refrecon/internal/parallel"
	"refrecon/internal/reference"
	"refrecon/internal/shard"
	"refrecon/internal/unionfind"
)

// ShardStats describes the sharded execution layer of one reconciliation.
// Every field is deterministic and identical for every Shards value >= 2
// (grouping affects scheduling only, never which components exist or what
// the boundary carries). The whole struct is zero under the monolithic
// path, so Stats comparisons of legacy runs are unaffected.
type ShardStats struct {
	// Shards is the number of concurrent shard groups used.
	Shards int
	// Components counts blocking-connected components.
	Components int
	// LargestComponent is the heaviest component's weight (nodes + edges).
	LargestComponent int
	// BoundaryLinks counts cross-component dependencies resolved through
	// mirrors (including mirrors materialized by fold replay).
	BoundaryLinks int
	// ValueReplicas counts extra value-node copies created by replication.
	ValueReplicas int
	// BoundaryUpdates counts mirror/replica state changes applied by the
	// frontier syncs; FrontierActivations counts the dependents those
	// updates re-queued; FoldReplays counts owner folds replayed onto
	// mirrors.
	BoundaryUpdates     int
	FrontierActivations int
	FoldReplays         int
	// FrontierRounds counts boundary sync passes, including the final pass
	// that found nothing left to push.
	FrontierRounds int
}

// shardCount resolves Config.Shards: 0 means one shard per available CPU,
// anything below 1 is clamped to the monolithic step.
func (rc *Reconciler) shardCount() int {
	s := rc.cfg.Shards
	if s == 0 {
		s = runtime.GOMAXPROCS(0)
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardedGraph is the sharded propagate step (see fixedPoint): split the
// session's freshly built graph, run per-component fixed points
// concurrently, and drain the boundary frontier. The decisions live in the
// plan's component graphs afterwards; the session graph is left as built.
type shardedGraph struct {
	s      *Session
	shards int
	plan   *shard.Plan
	// auds holds one auditor per component (Config.Audit only): mirrors
	// duplicate remote pair keys, so the stateful cross-phase snapshots
	// need per-graph scopes.
	auds []*audit.Auditor
	// base is the merged closure after the first wave, the frontier
	// coherence oracle (Config.Audit only).
	base map[reference.ID]int
}

func (sg *shardedGraph) run(seed []*depgraph.Node, eopts depgraph.Options) (depgraph.Stats, error) {
	s := sg.s
	o := s.rc.cfg.Obs
	tr := o.Tracer()

	spSplit := tr.Begin("phase", "shard-split")
	plan := shard.Split(s.g, seed, s.store.Len(), sg.shards)
	sg.plan = plan
	spSplit.EndArgs(map[string]any{
		"components": len(plan.Comps), "shards": len(plan.Groups),
		"boundaryLinks": len(plan.Links), "valueReplicas": plan.ValueReplicas,
	})
	shStats := ShardStats{
		Shards:           len(plan.Groups),
		Components:       len(plan.Comps),
		LargestComponent: plan.LargestComponent(),
		ValueReplicas:    plan.ValueReplicas,
	}

	if s.aud != nil {
		if err := s.aud.CheckSharding("shard-split", plan, s.g).Err(); err != nil {
			return depgraph.Stats{}, err
		}
		sg.auds = make([]*audit.Auditor, len(plan.Comps))
		for i, c := range plan.Comps {
			sg.auds[i] = s.newAuditor()
			if err := sg.auds[i].CheckGraph("shard-build", c.G, false).Err(); err != nil {
				return depgraph.Stats{}, fmt.Errorf("component %d: %w", i, err)
			}
		}
	}

	// Engine-internal tracing and progress stay off: rounds of different
	// components would interleave on one lane. The orchestrator emits one
	// span per component run on a per-shard lane instead, and one progress
	// event per frontier round.
	lanes := make([]int64, len(plan.Groups))
	for i := range lanes {
		lanes[i] = tr.NextTID()
	}

	engine := make([]depgraph.Stats, len(plan.Comps))
	runs := 0
	runWave := func(comps []int, seeded bool) {
		byShard := make([][]int, len(plan.Groups))
		for _, cid := range comps {
			g := plan.ShardOf[cid]
			byShard[g] = append(byShard[g], cid)
		}
		runs += len(comps)
		parallel.Coarse(len(byShard), len(byShard), func(g int) {
			for _, cid := range byShard[g] {
				c := plan.Comps[cid]
				opts := eopts
				opts.OnFold = c.OnFold
				var seed []*depgraph.Node
				if seeded {
					seed = c.Seed
				}
				csp := tr.BeginTID("shard", fmt.Sprintf("component %d", cid), lanes[g])
				st := c.G.Run(seed, opts)
				csp.EndArgs(map[string]any{
					"steps": st.Steps, "merges": st.Merges, "folds": st.Folds,
				})
				addEngineStats(&engine[cid], st)
			}
		})
	}
	stopped := func(comps []int) bool {
		for _, cid := range comps {
			if engine[cid].Interrupted || engine[cid].Truncated {
				return true
			}
		}
		return false
	}

	// The frontier loop. The first wave runs every component from its
	// seeds; later waves run only components the boundary sync gave work.
	affected := make([]int, len(plan.Comps))
	for i := range affected {
		affected[i] = i
	}
	for seeded := true; len(affected) > 0; seeded = false {
		runWave(affected, seeded)
		if stopped(affected) {
			break
		}
		if seeded && s.aud != nil {
			sg.base = shardedAssignment(s.store, plan)
		}
		var sst shard.SyncStats
		affected, sst = plan.SyncBoundary(depgraph.DefaultEpsilon)
		shStats.FrontierRounds++
		shStats.BoundaryUpdates += sst.Updates
		shStats.FrontierActivations += sst.Activations
		shStats.FoldReplays += sst.FoldReplays
		o.Progressor().Emit(obs.Event{
			Phase: "frontier", Round: shStats.FrontierRounds,
			Steps: sst.Updates, Merges: sst.NewlyMerged, Queue: len(affected),
		})
	}

	var agg depgraph.Stats
	for i := range engine {
		addEngineStats(&agg, engine[i])
	}
	shStats.BoundaryLinks = len(plan.Links)
	s.stats.Shard = shStats
	feedShardCounters(o.Counter(), shStats, runs)
	return agg, nil
}

// nodes visits every component's real (non-mirror) nodes in component-id
// order.
func (sg *shardedGraph) nodes(fn func(*depgraph.Node)) {
	for _, c := range sg.plan.Comps {
		c := c
		c.G.Nodes(func(n *depgraph.Node) {
			if !sg.plan.IsMirror(c, n) {
				fn(n)
			}
		})
	}
}

// audit checks every component graph with its own auditor and adds their
// check counts to the session auditor's, which Stats.AuditChecks reports.
func (sg *shardedGraph) audit(truncated bool) error {
	for i, c := range sg.plan.Comps {
		if err := sg.auds[i].CheckGraph("shard-propagate", c.G, truncated).Err(); err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
		sg.s.aud.TotalChecks += sg.auds[i].TotalChecks
	}
	// Frontier coherence: merges only accumulate after the first wave,
	// so the final unconstrained closure must refine (merge together)
	// the first wave's groups, never split them.
	return audit.CheckSuperset("frontier", sg.base, shardedAssignment(sg.s.store, sg.plan)).Err()
}

// shardedAssignment computes the unconstrained transitive closure of the
// merged decisions across every component's real (non-mirror) pairs — the
// frontier-coherence oracle input.
func shardedAssignment(store *reference.Store, plan *shard.Plan) map[reference.ID]int {
	uf := unionfind.New(store.Len())
	for _, c := range plan.Comps {
		c.G.Nodes(func(n *depgraph.Node) {
			if n.Kind() == depgraph.RefPair && n.Status() == depgraph.Merged && !plan.IsMirror(c, n) {
				uf.Union(int(n.RefA()), int(n.RefB()))
			}
		})
	}
	return partitionResult(store, uf).Assignment
}

// addEngineStats folds one run's engine stats into an accumulator: counts
// add, high-water marks take the max, terminal flags or together.
func addEngineStats(dst *depgraph.Stats, s depgraph.Stats) {
	dst.Steps += s.Steps
	dst.Merges += s.Merges
	dst.Folds += s.Folds
	dst.Reactivate += s.Reactivate
	dst.Rounds += s.Rounds
	dst.RequeueReal += s.RequeueReal
	dst.RequeueStrong += s.RequeueStrong
	dst.RequeueWeak += s.RequeueWeak
	dst.EdgeAdds += s.EdgeAdds
	dst.DedupProbes += s.DedupProbes
	if s.QueueHighWater > dst.QueueHighWater {
		dst.QueueHighWater = s.QueueHighWater
	}
	dst.Truncated = dst.Truncated || s.Truncated
	dst.Interrupted = dst.Interrupted || s.Interrupted
}

// feedShardCounters adds one sharded run's layer stats to the observer's
// counter set. Safe with a nil set.
func feedShardCounters(c *obs.Counters, s ShardStats, runs int) {
	if c == nil {
		return
	}
	c.ShardRuns.Add(int64(runs))
	c.ShardComponents.Add(int64(s.Components))
	c.BoundaryLinks.Add(int64(s.BoundaryLinks))
	c.FrontierRounds.Add(int64(s.FrontierRounds))
	c.FrontierActivations.Add(int64(s.FrontierActivations))
	obs.UpdateMax(&c.LargestComponent, int64(s.LargestComponent))
}
