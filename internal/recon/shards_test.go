package recon

import (
	"fmt"
	"sort"
	"testing"

	"refrecon/internal/datagen/pim"
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

// TestShardEquivalenceOnDatasets pins the sharded execution contract on
// every generated corpus (PIM A–D and Cora):
//
//   - Shards 2, 4, and 8 are bit-identical to each other — partitions AND
//     the full deterministic Stats. Components and the serial boundary
//     sync are shard-count-independent; grouping is pure scheduling.
//   - Against the monolithic run (Shards == 1), every build-shape stat is
//     identical (the graph is built once, before the split), and the final
//     decisions agree on at least 99.9% of reference pairs. Exact equality
//     is NOT guaranteed: the engine's enrichment-fold topology depends on
//     evaluation order, and count-based boolean evidence dedups along that
//     topology, so a component-parallel schedule is a legal DepGraph fixed
//     point that can differ from the single-queue one in a handful of
//     threshold-straddling pairs — the same contract the incremental
//     session pins (see DESIGN.md, "Sharded reconciliation").
//
// The invariant auditor (CheckGraph per component, CheckSharding, the
// frontier superset oracle, CheckPartition) runs throughout every run.
func TestShardEquivalenceOnDatasets(t *testing.T) {
	boundarySeen := false
	for name, store := range auditDatasets(t) {
		t.Run(name, func(t *testing.T) {
			legacy := runWithShards(t, store, 1)
			var ref *Result
			for _, k := range []int{2, 4, 8} {
				res := runWithShards(t, store, k)
				if res.Stats.Shard.Components == 0 {
					t.Fatalf("shards=%d: no components recorded", k)
				}
				if res.Stats.Shard.BoundaryLinks > 0 {
					boundarySeen = true
				}
				if ref == nil {
					ref = res
					continue
				}
				if canonPartitions(ref) != canonPartitions(res) {
					t.Fatalf("partitions differ between shards=2 and shards=%d", k)
				}
				a, b := comparableStats(ref.Stats), comparableStats(res.Stats)
				// The group count is the one knob that varies with k.
				a.Shard.Shards, b.Shard.Shards = 0, 0
				if a != b {
					t.Errorf("stats differ between sharded runs:\n  shards=2: %+v\n  shards=%d: %+v", a, k, b)
				}
			}
			// Build shape matches the legacy run exactly: the global graph is
			// constructed once, identically, and only then split.
			l, s := legacy.Stats, ref.Stats
			if l.CandidatePairs != s.CandidatePairs || l.GraphNodes != s.GraphNodes ||
				l.GraphEdges != s.GraphEdges || l.SkippedBuckets != s.SkippedBuckets {
				t.Errorf("build-shape stats diverged:\n  legacy:  %+v\n  sharded: %+v", l, s)
			}
			// Decision agreement with the monolithic schedule is near-total.
			agree, total := pairAgreement(legacy, ref, store.Len())
			if float64(agree) < 0.999*float64(total) {
				t.Errorf("pairwise agreement with monolithic run %d/%d below tolerance", agree, total)
			}
		})
	}
	if !boundarySeen {
		t.Error("no dataset produced boundary links; the frontier path went unexercised")
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
	// pairwise agreement (the one-shot sharded schedule and the incremental
	// monolithic schedule are both legal fixed points).
	oneShot := runWithShards(t, store, 4)
	agree, total := pairAgreement(oneShot, sharded, store.Len())
	if float64(agree) < 0.999*float64(total) {
		t.Errorf("session vs one-shot sharded agreement %d/%d below tolerance", agree, total)
	}
}

// boundaryTrafficStore builds a corpus engineered to force cross-shard
// frontier traffic: persons whose pairwise similarity sits below the merge
// threshold until their articles reconcile — the person components and the
// article components are distinct by construction (components never span
// classes), so the article→person association evidence must cross the
// boundary, and the resulting person merges must feed back as co-author
// contact evidence.
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

// TestShardBoundaryTraffic forces evidence across component boundaries and
// checks the frontier carried it: the cross-component merges happen, and
// the sync statistics show real boundary work.
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
	sh := res.Stats.Shard
	if sh.Components < 2 {
		t.Fatalf("expected multiple components, got %d", sh.Components)
	}
	if sh.BoundaryLinks == 0 {
		t.Error("no boundary links despite cross-class associations")
	}
	if sh.BoundaryUpdates == 0 {
		t.Error("no boundary updates; the frontier never carried evidence")
	}
	if sh.FrontierRounds < 2 {
		t.Errorf("frontier rounds = %d, want >= 2 (sync, re-run, drain)", sh.FrontierRounds)
	}
}
