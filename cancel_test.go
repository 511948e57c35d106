// Cancellation tests for the context-aware API: ReconcileContext and
// Session.CommitContext must honor cancellation at phase and
// propagation-round boundaries, return an error resolvable to both
// refrecon.ErrCanceled and the context's own error, and leave the Session
// usable — a retry after a cancelled commit must produce exactly the
// partitions an uncancelled run would have.
package refrecon_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"refrecon"
	"refrecon/internal/obs"
	"refrecon/internal/recon"
	"refrecon/internal/schema"
)

func TestReconcileContextPreCanceled(t *testing.T) {
	store := suite().PIM("A").Store
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := recon.New(schema.PIM(), recon.DefaultConfig()).ReconcileContext(ctx, store)
	if err == nil {
		t.Fatal("ReconcileContext with a canceled context succeeded")
	}
	if !errors.Is(err, refrecon.ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	// The store is an input, never mutated: an immediate uncancelled run
	// must succeed.
	if _, err := recon.New(schema.PIM(), recon.DefaultConfig()).Reconcile(store); err != nil {
		t.Fatalf("store unusable after canceled run: %v", err)
	}
}

func TestCommitContextCancelMidPropagate(t *testing.T) {
	store := suite().PIM("A").Store

	// The uncancelled reference outcome.
	want, err := recon.New(schema.PIM(), recon.DefaultConfig()).Reconcile(store)
	if err != nil {
		t.Fatal(err)
	}
	wantCanon := canonPartitions(want.Partitions)

	// Cancel from inside the run: the progress callback fires at every
	// propagation-round boundary, so cancelling on the first round event
	// lands mid-propagate and the engine must notice at the next boundary.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawRound := 0
	cfg := recon.DefaultConfig()
	cfg.Obs = &obs.Observer{Progress: &obs.Progress{Fn: func(e obs.Event) {
		if e.Phase == "propagate" && !e.Final && e.Round >= 1 {
			sawRound = e.Round
			cancel()
		}
	}}}
	sess := recon.New(schema.PIM(), cfg).NewSession(store)
	_, err = sess.CommitContext(ctx)
	if err == nil {
		t.Fatal("CommitContext survived mid-propagate cancellation")
	}
	if !errors.Is(err, refrecon.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled commit error %v does not wrap ErrCanceled and context.Canceled", err)
	}
	if sawRound == 0 {
		t.Fatal("cancellation trigger never fired (no propagate round event)")
	}

	// The session must remain usable: the next commit rebuilds from scratch
	// and must match the uncancelled run bit for bit.
	res, err := sess.CommitContext(context.Background())
	if err != nil {
		t.Fatalf("commit after cancellation: %v", err)
	}
	if got := canonPartitions(res.Partitions); got != wantCanon {
		t.Error("partitions after a cancelled-then-retried commit differ from an uncancelled run")
	}
}

func TestReconcileContextTraceOrdering(t *testing.T) {
	store := suite().PIM("A").Store
	cfg := recon.DefaultConfig()
	tr := obs.NewTracer()
	var events []obs.Event
	cfg.Obs = &obs.Observer{
		Trace:    tr,
		Counters: obs.NewCounters(),
		Progress: &obs.Progress{Fn: func(e obs.Event) { events = append(events, e) }},
	}
	traced, err := recon.New(schema.PIM(), cfg).ReconcileContext(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}

	// Phase spans present and strictly ordered on the timeline.
	phases := map[string]obs.TraceEvent{}
	var rounds, stages []obs.TraceEvent
	for _, e := range tr.Events() {
		switch e.Cat {
		case "phase":
			if _, dup := phases[e.Name]; dup {
				t.Fatalf("duplicate phase span %q", e.Name)
			}
			phases[e.Name] = e
		case "build":
			stages = append(stages, e)
		case "round":
			rounds = append(rounds, e)
		}
	}
	for _, name := range []string{"build", "propagate", "closure"} {
		if _, ok := phases[name]; !ok {
			t.Fatalf("missing phase span %q", name)
		}
	}
	end := func(e obs.TraceEvent) float64 { return e.TS + e.Dur }
	build, prop, clos := phases["build"], phases["propagate"], phases["closure"]
	if !(end(build) <= prop.TS && end(prop) <= clos.TS) {
		t.Errorf("phase spans out of order: build ends %v, propagate [%v,%v], closure starts %v",
			end(build), prop.TS, end(prop), clos.TS)
	}

	// The four build stages run in order inside the build span, and Stats
	// carries the same split.
	if len(stages) != 4 {
		t.Fatalf("%d build stage spans, want 4", len(stages))
	}
	at := build.TS
	for i, name := range []string{"build.enumerate", "build.score", "build.wire", "build.associations"} {
		if st := stages[i]; st.Name != name || st.TS < at || end(st) > end(build) {
			t.Errorf("stage %d is %q [%v,%v], want %q after %v inside build ending %v",
				i, st.Name, st.TS, end(st), name, at, end(build))
		}
		at = end(stages[i])
	}
	// The associations stage splits its induced requests by outcome, and the
	// memo answers some of them; re-enrichment reports even an idle scan.
	arg := func(e obs.TraceEvent, k string) int { v, _ := e.Args[k].(int); return v }
	assoc := stages[3]
	if req, found, hits, eval, kept := arg(assoc, "requests"), arg(assoc, "found"), arg(assoc, "memoHits"), arg(assoc, "evaluated"), arg(assoc, "kept"); hits == 0 || kept == 0 || kept > eval || found+hits+eval > req {
		t.Errorf("build.associations args %v: want memo hits, and found + memoHits + evaluated ≤ requests, kept ≤ evaluated", assoc.Args)
	}
	if arg(assoc, "probes") == 0 {
		t.Errorf("build.associations args %v: want the contact join's probes", assoc.Args)
	}
	reenrich := 0
	for _, e := range tr.Events() {
		if e.Name == "reenrich" {
			reenrich++
			if _, ok := e.Args["scanned"]; !ok {
				t.Errorf("reenrich span without a scanned count: %v", e.Args)
			}
		}
	}
	if reenrich != 1 {
		t.Errorf("%d reenrich spans in one commit, want 1", reenrich)
	}
	st := traced.Stats
	for _, d := range []time.Duration{st.EnumerateTime, st.ScoreTime, st.WireTime, st.AssociationsTime} {
		if d <= 0 {
			t.Errorf("a build stage took no time: %+v", st)
		}
	}
	if sum := st.EnumerateTime + st.ScoreTime + st.WireTime + st.AssociationsTime; sum > st.BuildTime {
		t.Errorf("build stages add up to %v, more than BuildTime %v", sum, st.BuildTime)
	}

	// Every round span nests inside the propagate phase span.
	if len(rounds) == 0 {
		t.Fatal("no round spans recorded")
	}
	for _, r := range rounds {
		if r.TS < prop.TS || end(r) > end(prop) {
			t.Errorf("round span %q [%v,%v] escapes propagate [%v,%v]",
				r.Name, r.TS, end(r), prop.TS, end(prop))
		}
	}

	// The progress stream sees the same structure: phases in order, rounds
	// strictly increasing within propagate.
	phaseOrder := map[string]int{"build": 0, "propagate": 1, "closure": 2}
	last, lastRound := -1, 0
	for _, e := range events {
		idx, ok := phaseOrder[e.Phase]
		if !ok {
			t.Fatalf("unknown progress phase %q", e.Phase)
		}
		if idx < last {
			t.Fatalf("progress phase %q after a later phase", e.Phase)
		}
		last = idx
		if e.Phase == "propagate" && !e.Final {
			if e.Round <= lastRound {
				t.Fatalf("round %d not strictly after round %d", e.Round, lastRound)
			}
			lastRound = e.Round
		}
	}
	if last != 2 {
		t.Fatal("progress stream never reached closure")
	}

	// The exported file is valid Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Fatal("trace JSON missing traceEvents key")
	}

	// Counters mirror the run: rounds counted, propagate work recorded.
	c := cfg.Obs.Counters.Snapshot()
	if c.Rounds == 0 || c.Steps == 0 || c.Merges == 0 {
		t.Errorf("counters not fed: %+v", c)
	}
	if int(c.Rounds) != len(rounds) {
		t.Errorf("counter rounds %d != %d round spans", c.Rounds, len(rounds))
	}
}
