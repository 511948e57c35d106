// One-pipeline tests: a one-shot Reconcile is a fresh session's first
// commit, so both entry points must give the same partitions and the same
// deterministic Stats, and must behave the same when cancelled.
package refrecon_test

import (
	"context"
	"errors"
	"testing"

	"refrecon"
	"refrecon/internal/obs"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func TestOneShotIsFirstCommit(t *testing.T) {
	stores := map[string]*reference.Store{"Cora": suite().Cora().Store}
	for _, d := range []string{"A", "B", "C", "D"} {
		stores["PIM-"+d] = suite().PIM(d).Store
	}
	for name, store := range stores {
		for _, audit := range []bool{false, true} {
			cfg := recon.DefaultConfig()
			cfg.Audit = audit
			rc := recon.New(schema.PIM(), cfg)
			oneShot, err := rc.Reconcile(store)
			if err != nil {
				t.Fatalf("%s audit=%v Reconcile: %v", name, audit, err)
			}
			commit, err := rc.NewSession(store).Reconcile()
			if err != nil {
				t.Fatalf("%s audit=%v first commit: %v", name, audit, err)
			}
			if canonPartitions(oneShot.Partitions) != canonPartitions(commit.Partitions) {
				t.Errorf("%s audit=%v: one-shot and first-commit partitions differ", name, audit)
			}
			if a, b := comparableStats(oneShot.Stats), comparableStats(commit.Stats); a != b {
				t.Errorf("%s audit=%v: one-shot stats %+v differ from first-commit stats %+v", name, audit, a, b)
			}
			if audit && oneShot.Stats.AuditChecks == 0 {
				t.Errorf("%s: audit on but no checks counted", name)
			}
		}
	}
}

// copyRefs appends copies of refs (which must continue dst's id sequence)
// to dst, keeping the association links that land inside dst.
func copyRefs(dst *reference.Store, refs []*reference.Reference) {
	limit := reference.ID(dst.Len() + len(refs))
	for _, r := range refs {
		c := reference.New(r.Class)
		c.Source, c.Entity = r.Source, r.Entity
		for _, a := range r.AtomicAttrs() {
			for _, v := range r.Atomic(a) {
				c.AddAtomic(a, v)
			}
		}
		for _, a := range r.AssocAttrs() {
			for _, tgt := range r.Assoc(a) {
				if tgt < limit {
					c.AddAssoc(a, tgt)
				}
			}
		}
		dst.Add(c)
	}
}

// TestSessionGraphSizeIsPostConstruction pins Stats.GraphNodes/GraphEdges
// on a later commit to the graph as the build phase left it (what the
// build span records), before that commit's folds shrink it.
func TestSessionGraphSizeIsPostConstruction(t *testing.T) {
	refs := suite().PIM("A").Store.All()
	cut := len(refs) / 2
	cfg := recon.DefaultConfig()
	tr := obs.NewTracer()
	cfg.Obs = &obs.Observer{Trace: tr}
	store := reference.NewStore()
	sess := recon.New(schema.PIM(), cfg).NewSession(store)
	copyRefs(store, refs[:cut])
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	copyRefs(store, refs[cut:])
	res, err := sess.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Engine.Folds == 0 {
		t.Fatal("no folds: post-construction and post-propagation sizes cannot be told apart")
	}
	var builds []obs.TraceEvent
	for _, e := range tr.Events() {
		if e.Cat == "phase" && e.Name == "build" {
			builds = append(builds, e)
		}
	}
	if len(builds) != 2 {
		t.Fatalf("%d build spans, want 2", len(builds))
	}
	if n, e := builds[1].Args["nodes"], builds[1].Args["edges"]; n != res.Stats.GraphNodes || e != res.Stats.GraphEdges {
		t.Errorf("stats report %d nodes / %d edges, the second build left %v / %v",
			res.Stats.GraphNodes, res.Stats.GraphEdges, n, e)
	}
}

// TestCancelOneShotAndCommit drives both entry points through the same
// cancellations: before the build, and from inside the propagation loop.
func TestCancelOneShotAndCommit(t *testing.T) {
	store := suite().PIM("A").Store
	want, err := recon.New(schema.PIM(), recon.DefaultConfig()).Reconcile(store)
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		// start returns the entry point's run function; calling it again
		// after a cancelled run is the retry.
		start func(rc *recon.Reconciler) func(context.Context) (*recon.Result, error)
	}{
		{"ReconcileContext", func(rc *recon.Reconciler) func(context.Context) (*recon.Result, error) {
			return func(ctx context.Context) (*recon.Result, error) { return rc.ReconcileContext(ctx, store) }
		}},
		{"CommitContext", func(rc *recon.Reconciler) func(context.Context) (*recon.Result, error) {
			return rc.NewSession(store).CommitContext
		}},
	}
	for _, entry := range entries {
		for _, when := range []string{"before build", "mid propagate"} {
			ctx, cancel := context.WithCancel(context.Background())
			cfg := recon.DefaultConfig()
			cfg.Obs = &obs.Observer{Counters: obs.NewCounters()}
			wantCanceled := int64(0) // nothing started, nothing to count
			if when == "before build" {
				cancel()
			} else {
				wantCanceled = 1
				cfg.Obs.Progress = &obs.Progress{Fn: func(e obs.Event) {
					if e.Phase == "propagate" && !e.Final {
						cancel()
					}
				}}
			}
			run := entry.start(recon.New(schema.PIM(), cfg))
			_, err := run(ctx)
			cancel()
			if !errors.Is(err, refrecon.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%s cancelled %s: error %v does not wrap ErrCanceled and context.Canceled", entry.name, when, err)
			}
			if got := cfg.Obs.Counters.Snapshot().Canceled; got != wantCanceled {
				t.Errorf("%s cancelled %s: Canceled counter = %d, want %d", entry.name, when, got, wantCanceled)
			}
			res, err := run(context.Background())
			if err != nil {
				t.Fatalf("%s retry after cancel %s: %v", entry.name, when, err)
			}
			if canonPartitions(res.Partitions) != canonPartitions(want.Partitions) {
				t.Errorf("%s retry after cancel %s: partitions differ from an uncancelled run", entry.name, when)
			}
			if a, b := comparableStats(res.Stats), comparableStats(want.Stats); a != b {
				t.Errorf("%s retry after cancel %s: stats %+v differ from an uncancelled run's %+v", entry.name, when, a, b)
			}
		}
	}
}
