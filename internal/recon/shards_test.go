package recon

import (
	"fmt"
	"sort"
	"testing"

	"refrecon/internal/datagen/pim"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// canonPartitions renders a result's partitions into one canonical,
// comparable string: classes sorted, members sorted within each partition,
// partitions sorted lexicographically within each class.
func canonPartitions(res *Result) string {
	classes := make([]string, 0, len(res.Partitions))
	for c := range res.Partitions {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	out := ""
	for _, c := range classes {
		parts := make([]string, 0, len(res.Partitions[c]))
		for _, p := range res.Partitions[c] {
			ids := make([]int, len(p))
			for i, id := range p {
				ids[i] = int(id)
			}
			sort.Ints(ids)
			parts = append(parts, fmt.Sprint(ids))
		}
		sort.Strings(parts)
		out += c + ": " + fmt.Sprint(parts) + "\n"
	}
	return out
}

// comparableStats strips the informational fields (wall-clock timings) so
// the rest of a Stats value can be compared bit for bit.
func comparableStats(s Stats) Stats {
	s.BuildTime, s.PropagateTime, s.ClosureTime = 0, 0, 0
	s.EnumerateTime, s.ScoreTime, s.WireTime, s.AssociationsTime = 0, 0, 0, 0
	return s
}

// runWithShards reconciles a fresh clone of the store at the given shard
// count with the invariant auditor on.
func runWithShards(t *testing.T, store *reference.Store, shards int) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Audit = true
	cfg.Shards = shards
	res, err := New(schema.PIM(), cfg).Reconcile(cloneStore(store))
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return res
}

// engineFingerprint is what a sharded run must reproduce of the
// monolithic engine's stats: every count but the per-queue ones. Rounds,
// QueueHighWater, EdgeAdds and DedupProbes are free to differ — each
// component has its own queue and its own copied edges.
func engineFingerprint(e depgraph.Stats) depgraph.Stats {
	return depgraph.Stats{
		Steps: e.Steps, Merges: e.Merges, Folds: e.Folds, Reactivate: e.Reactivate,
		RequeueReal: e.RequeueReal, RequeueStrong: e.RequeueStrong, RequeueWeak: e.RequeueWeak,
		Truncated: e.Truncated,
	}
}

// TestShardEquivalenceOnDatasets pins the sharded execution contract on
// every generated corpus (PIM A–D and Cora), with no tolerance:
//
//   - Shards 1, 2, 4 and 8 give identical canonical partitions,
//     NonMergeNodes, build-shape stats and engine counts (see
//     engineFingerprint): closed components share no evidence, and each
//     one's run is the monolithic queue restricted to it.
//   - Shards 2, 4 and 8 are bit-identical to each other in the full
//     deterministic Stats; grouping is pure scheduling.
//
// The invariant auditor (CheckSharding, CheckGraph per component,
// CheckPartition) runs throughout every run.
func TestShardEquivalenceOnDatasets(t *testing.T) {
	split := false
	for name, store := range auditDatasets(t) {
		t.Run(name, func(t *testing.T) {
			legacy := runWithShards(t, store, 1)
			var ref *Result
			for _, k := range []int{2, 4, 8} {
				res := runWithShards(t, store, k)
				if res.Stats.Shard.Components >= 2 {
					split = true
				}
				if canonPartitions(legacy) != canonPartitions(res) {
					t.Fatalf("partitions differ between shards=1 and shards=%d", k)
				}
				l, s := legacy.Stats, res.Stats
				if l.CandidatePairs != s.CandidatePairs || l.GraphNodes != s.GraphNodes ||
					l.GraphEdges != s.GraphEdges || l.SkippedBuckets != s.SkippedBuckets ||
					l.NonMergeNodes != s.NonMergeNodes {
					t.Errorf("shards=%d: build-shape or constraint stats diverged:\n  shards=1: %+v\n  sharded:  %+v", k, l, s)
				}
				if a, b := engineFingerprint(l.Engine), engineFingerprint(s.Engine); a != b {
					t.Errorf("shards=%d: engine stats diverged:\n  shards=1: %+v\n  sharded:  %+v", k, a, b)
				}
				if ref == nil {
					ref = res
					continue
				}
				a, b := comparableStats(ref.Stats), comparableStats(res.Stats)
				// The group count is the one knob that varies with k.
				a.Shard.Shards, b.Shard.Shards = 0, 0
				if a != b {
					t.Errorf("stats differ between sharded runs:\n  shards=2: %+v\n  shards=%d: %+v", a, k, b)
				}
			}
		})
	}
	if !split {
		t.Error("no dataset split into two or more components; the sharded path went unexercised")
	}
}

// TestShardSessionsMonolithic pins the Session contract: incremental
// sessions ignore Config.Shards entirely — a session configured with any
// shard count replays bit-identically to one at Shards == 1, and its final
// merges refine the sharded one-shot run of the same data.
func TestShardSessionsMonolithic(t *testing.T) {
	g, err := pim.Generate(pim.DatasetB(0.04))
	if err != nil {
		t.Fatal(err)
	}
	store := g.Store
	cuts := validCuts(store)
	if len(cuts) == 0 {
		t.Fatal("no self-contained cut points")
	}
	chosen := []int{cuts[len(cuts)/2]}

	session := func(shards int) *Result {
		cfg := DefaultConfig()
		cfg.Audit = true
		cfg.Shards = shards
		inc := reference.NewStore()
		sess := New(schema.PIM(), cfg).NewSession(inc)
		next := 0
		for i, r := range store.All() {
			inc.Add(cloneRef(r))
			if next < len(chosen) && i+1 == chosen[next] {
				next++
				if _, err := sess.Reconcile(); err != nil {
					t.Fatalf("shards=%d batch at %d: %v", shards, i+1, err)
				}
			}
		}
		res, err := sess.Reconcile()
		if err != nil {
			t.Fatalf("shards=%d final batch: %v", shards, err)
		}
		return res
	}

	mono, sharded := session(1), session(4)
	if canonPartitions(mono) != canonPartitions(sharded) {
		t.Fatal("session results vary with Config.Shards; sessions must be monolithic")
	}
	if comparableStats(mono.Stats) != comparableStats(sharded.Stats) {
		t.Fatalf("session stats vary with Config.Shards:\n  shards=1: %+v\n  shards=4: %+v",
			comparableStats(mono.Stats), comparableStats(sharded.Stats))
	}
	if sharded.Stats.Shard != (ShardStats{}) {
		t.Fatalf("session recorded shard stats %+v; the shard layer must not run", sharded.Stats.Shard)
	}

	// Coherence with the sharded one-shot run on the same data: near-total
	// pairwise agreement (incremental is a superset of batch, not equal).
	oneShot := runWithShards(t, store, 4)
	agree, total := pairAgreement(oneShot, sharded, store.Len())
	if float64(agree) < 0.999*float64(total) {
		t.Errorf("session vs one-shot sharded agreement %d/%d below tolerance", agree, total)
	}
}

// boundaryTrafficStore builds a corpus whose person merges need evidence
// from another class: persons whose pairwise similarity sits below the
// merge threshold until their articles reconcile, and whose merges feed
// back as co-author contact evidence. The association edges join the
// article and person pairs into one closed component; an unrelated pair
// that merges on its own forms a second.
func boundaryTrafficStore() *reference.Store {
	store := reference.NewStore()
	person := func(name, email string) reference.ID {
		r := reference.New(schema.ClassPerson).AddAtomic(schema.AttrName, name)
		if email != "" {
			r.AddAtomic(schema.AttrEmail, email)
		}
		return store.Add(r)
	}
	article := func(title string, authors ...reference.ID) reference.ID {
		r := reference.New(schema.ClassArticle).AddAtomic(schema.AttrTitle, title)
		for _, a := range authors {
			r.AddAssoc(schema.AttrAuthoredBy, a)
		}
		return store.Add(r)
	}
	// Two mentions of the same author, names alone too weak to merge.
	w1 := person("Jennifer Widom", "widom@stanford.edu")
	w2 := person("Widom, J.", "")
	// A distinctive co-author appearing twice.
	h1 := person("Hector Garcia-Molina", "hector@stanford.edu")
	h2 := person("Garcia-Molina, Hector", "hector@stanford.edu")
	// The same article mentioned twice with near-identical titles; its
	// reconciliation aligns the author lists.
	article("Managing semistructured data with Lore", w1, h1)
	article("Managing semi-structured data with Lore", w2, h2)
	// An unrelated pair that merges on its own, in a separate component.
	person("Moshe Vardi", "vardi@rice.edu")
	person("Vardi, Moshe", "vardi@rice.edu")
	return store
}

// TestShardBoundaryTraffic forces evidence across classes and checks that
// the closed components keep it together: the Widom / Garcia-Molina /
// article closure is one component and Vardi another, the partitions equal
// the monolithic run's, and the association evidence merges the Widom
// mentions.
func TestShardBoundaryTraffic(t *testing.T) {
	store := boundaryTrafficStore()
	legacy := runWithShards(t, store, 1)
	res := runWithShards(t, store, 4)
	if canonPartitions(res) != canonPartitions(legacy) {
		t.Fatalf("partitions differ from monolithic run:\n legacy:\n%s sharded:\n%s",
			canonPartitions(legacy), canonPartitions(res))
	}
	if !res.SameEntity(0, 1) {
		t.Error("association evidence failed to merge the Widom mentions")
	}
	if sh := res.Stats.Shard; sh.Components != 2 || sh.BoundaryLinks != 0 || sh.FoldReplays != 0 {
		t.Errorf("shard stats %+v, want 2 components and no boundary", sh)
	}
}
