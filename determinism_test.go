// Determinism tests for parallel graph construction: the worker count is a
// pure throughput knob, so every Workers setting must produce bit-identical
// merge partitions, graph sizes, and engine counters. This is the contract
// that lets benchmarks compare worker counts and lets deployments pick
// NumCPU without re-validating quality numbers.
package refrecon_test

import (
	"fmt"
	"sort"
	"testing"

	"refrecon"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// workerCounts are the settings compared against the serial (Workers=1) run.
var workerCounts = []int{1, 2, 8}

// canonPartitions renders a partitioning in a canonical text form: ids
// sorted within each partition, partitions sorted by first id, classes
// sorted by name. Two identical strings mean identical clusterings.
func canonPartitions(parts map[string][][]reference.ID) string {
	classes := make([]string, 0, len(parts))
	for c := range parts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	out := ""
	for _, c := range classes {
		groups := make([][]reference.ID, len(parts[c]))
		for i, g := range parts[c] {
			cp := append([]reference.ID(nil), g...)
			sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
			groups[i] = cp
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
		out += fmt.Sprintf("%s:%v\n", c, groups)
	}
	return out
}

// comparableStats strips the wall-clock timing fields, which legitimately
// differ between runs; everything else must match exactly.
func comparableStats(st recon.Stats) recon.Stats {
	st.BuildTime, st.PropagateTime, st.ClosureTime = 0, 0, 0
	st.EnumerateTime, st.ScoreTime, st.WireTime, st.AssociationsTime = 0, 0, 0, 0
	return st
}

func checkDeterministic(t *testing.T, name string, store *reference.Store) {
	t.Helper()
	type run struct {
		workers    int
		partitions string
		stats      recon.Stats
	}
	var base *run
	for _, w := range workerCounts {
		cfg := recon.DefaultConfig()
		cfg.Workers = w
		res, err := recon.New(schema.PIM(), cfg).Reconcile(store)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, w, err)
		}
		r := &run{workers: w, partitions: canonPartitions(res.Partitions), stats: comparableStats(res.Stats)}
		if base == nil {
			base = r
			continue
		}
		if r.partitions != base.partitions {
			t.Errorf("%s: workers=%d partitions differ from workers=%d", name, w, base.workers)
		}
		if r.stats != base.stats {
			t.Errorf("%s: workers=%d stats %+v differ from workers=%d stats %+v",
				name, w, r.stats, base.workers, base.stats)
		}
	}
}

// TestWorkerCountDeterminismPIM reconciles a PIM dataset at several worker
// counts and requires identical partitions and stats, including the engine
// counters (steps, merges, folds, reactivations, truncation).
func TestWorkerCountDeterminismPIM(t *testing.T) {
	checkDeterministic(t, "PIM-A", suite().PIM("A").Store)
}

// TestWorkerCountDeterminismCora repeats the check on the citation-shaped
// Cora dataset, which exercises the article/venue evidence paths.
func TestWorkerCountDeterminismCora(t *testing.T) {
	checkDeterministic(t, "Cora", suite().Cora().Store)
}

// TestWorkerCountDeterminismSession checks the incremental path: references
// arriving in two batches must yield the same final partitions at every
// worker count (batch boundaries themselves may change results versus a
// one-shot run; worker counts must not).
func TestWorkerCountDeterminismSession(t *testing.T) {
	full := suite().PIM("B").Store
	refs := full.All()
	cut := len(refs) / 2

	results := make([]string, 0, len(workerCounts))
	for _, w := range workerCounts {
		store := refrecon.NewStore()
		clones := make([]*refrecon.Reference, len(refs))
		remap := make(map[refrecon.ID]refrecon.ID, len(refs))
		copyRef := func(j int) {
			r := refs[j]
			c := refrecon.NewReference(r.Class)
			c.Source = r.Source
			c.Entity = r.Entity
			for _, attr := range r.AtomicAttrs() {
				for _, v := range r.Atomic(attr) {
					c.AddAtomic(attr, v)
				}
			}
			clones[j] = c
			remap[r.ID] = store.Add(c)
		}
		addAssocs := func(from, to int) {
			for j := from; j < to; j++ {
				for _, attr := range refs[j].AssocAttrs() {
					for _, tgt := range refs[j].Assoc(attr) {
						if nt, ok := remap[tgt]; ok {
							clones[j].AddAssoc(attr, nt)
						}
					}
				}
			}
		}
		cfg := refrecon.DefaultConfig()
		cfg.Workers = w
		sess := refrecon.New(refrecon.PIMSchema(), cfg).NewSession(store)
		for j := 0; j < cut; j++ {
			copyRef(j)
		}
		addAssocs(0, cut)
		if _, err := sess.Reconcile(); err != nil {
			t.Fatalf("workers=%d first batch: %v", w, err)
		}
		for j := cut; j < len(refs); j++ {
			copyRef(j)
		}
		addAssocs(cut, len(refs))
		res, err := sess.Reconcile()
		if err != nil {
			t.Fatalf("workers=%d second batch: %v", w, err)
		}
		results = append(results, canonPartitions(res.Partitions))
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("incremental session: workers=%d partitions differ from workers=%d",
				workerCounts[i], workerCounts[0])
		}
	}
}
