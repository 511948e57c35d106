package recon

// Sharded reconciliation: the construction phase builds one global graph
// exactly as the monolithic path does (so the candidate set, node and edge
// shapes, and their stats are identical by construction), then package
// shard cuts it into closed components — subgraphs that share no evidence
// during propagation — each with a private columnar graph and queue.
// Components are grouped into Config.Shards balanced groups and one
// propagation engine runs per group concurrently, with nothing to sync.
// Each component's run is the monolithic queue restricted to it, so the
// decisions and the engine's step, merge, fold and re-activation counts
// equal the monolithic run's at every shard count.

import (
	"fmt"
	"runtime"

	"refrecon/internal/audit"
	"refrecon/internal/depgraph"
	"refrecon/internal/parallel"
	"refrecon/internal/shard"
)

// ShardStats describes the sharded execution layer of one reconciliation.
// Every field but Shards is identical for every Shards value >= 2
// (grouping affects scheduling only). The whole struct is zero under the
// monolithic path.
type ShardStats struct {
	// Shards is the number of concurrent shard groups used.
	Shards int
	// Components counts closed components.
	Components int
	// LargestComponent is the heaviest component's weight (nodes + edges).
	LargestComponent int
	// ValueReplicas counts extra copies of constant value nodes read by
	// more than one component.
	ValueReplicas int
	// BoundaryLinks and FoldReplays are always zero: closed components
	// share no evidence. They stay only because the frozen bench adapter
	// reads them (ROADMAP item 16).
	BoundaryLinks int
	FoldReplays   int
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
// session's freshly built graph into closed components and run their
// fixed points concurrently. The decisions live in the plan's component
// graphs afterwards; the session graph is left as built.
type shardedGraph struct {
	s      *Session
	shards int
	plan   *shard.Plan
	// auds holds one auditor per component (Config.Audit only): constant
	// value nodes are copied into several components under one key, so
	// the stateful cross-phase snapshots need per-graph scopes.
	auds []*audit.Auditor
}

func (sg *shardedGraph) run(seed []*depgraph.Node, eopts depgraph.Options) (depgraph.Stats, error) {
	s := sg.s
	tr := s.rc.cfg.Obs.Tracer()

	spSplit := tr.Begin("phase", "shard-split")
	plan := shard.Split(s.g, seed, s.store.Len(), sg.shards)
	sg.plan = plan
	spSplit.EndArgs(map[string]any{
		"components": len(plan.Comps), "shards": len(plan.Groups), "valueReplicas": plan.ValueReplicas,
	})
	s.stats.Shard = ShardStats{
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
	// components would interleave on one lane. One span per component run
	// goes on its shard's lane instead.
	engine := make([]depgraph.Stats, len(plan.Comps))
	parallel.Coarse(len(plan.Groups), len(plan.Groups), func(g int) {
		lane := tr.NextTID()
		for _, cid := range plan.Groups[g] {
			csp := tr.BeginTID("shard", fmt.Sprintf("component %d", cid), lane)
			st := plan.Comps[cid].G.Run(plan.Comps[cid].Seed, eopts)
			csp.EndArgs(map[string]any{"steps": st.Steps, "merges": st.Merges, "folds": st.Folds})
			engine[cid] = st
		}
	})
	var agg depgraph.Stats
	for _, st := range engine {
		addEngineStats(&agg, st)
	}
	return agg, nil
}

// nodes visits the decision of every global node once, in the order the
// monolithic graph's walk gives.
func (sg *shardedGraph) nodes(fn func(*depgraph.Node)) { sg.plan.Nodes(fn) }

// audit checks every component graph with its own auditor and adds their
// check counts to the session auditor's, which Stats.AuditChecks reports.
func (sg *shardedGraph) audit(truncated bool) error {
	for i, c := range sg.plan.Comps {
		if err := sg.auds[i].CheckGraph("shard-propagate", c.G, truncated).Err(); err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
		sg.s.aud.TotalChecks += sg.auds[i].TotalChecks
	}
	return nil
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
