package recon

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"refrecon/internal/audit"
	"refrecon/internal/datagen/cora"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// auditDatasets enumerates the generated corpora the audit tests sweep.
func auditDatasets(t *testing.T) map[string]*reference.Store {
	t.Helper()
	out := make(map[string]*reference.Store)
	for name, p := range map[string]pim.Profile{
		"pimA": pim.DatasetA(0.03),
		"pimB": pim.DatasetB(0.03),
		"pimC": pim.DatasetC(0.03),
		"pimD": pim.DatasetD(0.03),
	} {
		g, err := pim.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g.Store
	}
	g, err := cora.Generate(cora.Default(0.05))
	if err != nil {
		t.Fatal(err)
	}
	out["cora"] = g.Store
	return out
}

// TestAuditCleanOnDatasets runs the full algorithm with the invariant
// auditor enabled on every generated dataset: zero violations expected, at
// every phase boundary.
func TestAuditCleanOnDatasets(t *testing.T) {
	for name, store := range auditDatasets(t) {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Audit = true
			res, err := New(schema.PIM(), cfg).Reconcile(store)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.AuditChecks == 0 {
				t.Fatal("audit mode evaluated no checks")
			}
		})
	}
}

// TestAuditCleanWithoutConstraints covers the constraint-free auditor
// branch (merged pairs must then land in one partition).
func TestAuditCleanWithoutConstraints(t *testing.T) {
	g, err := pim.Generate(pim.DatasetB(0.04))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Audit = true
	cfg.Constraints = false
	if _, err := New(schema.PIM(), cfg).Reconcile(g.Store); err != nil {
		t.Fatal(err)
	}
}

// cloneRef deep-copies a reference so a second store can replay the same
// data (IDs are preserved by adding clones in the original order).
func cloneRef(r *reference.Reference) *reference.Reference {
	c := reference.New(r.Class)
	c.Source = r.Source
	c.Entity = r.Entity
	for _, a := range r.AtomicAttrs() {
		for _, v := range r.Atomic(a) {
			c.AddAtomic(a, v)
		}
	}
	for _, a := range r.AssocAttrs() {
		for _, tgt := range r.Assoc(a) {
			c.AddAssoc(a, tgt)
		}
	}
	return c
}

// validCuts returns the batch boundaries at which the reference prefix is
// self-contained: no association in [0, cut) points at or past cut. Only
// such prefixes pass store.Validate mid-session.
func validCuts(store *reference.Store) []int {
	maxTarget := -1
	var cuts []int
	for i, r := range store.All() {
		for _, a := range r.AssocAttrs() {
			for _, tgt := range r.Assoc(a) {
				if int(tgt) > maxTarget {
					maxTarget = int(tgt)
				}
			}
		}
		if cut := i + 1; maxTarget < cut && cut < store.Len() {
			cuts = append(cuts, cut)
		}
	}
	return cuts
}

// replayInBatches reruns the store through an incremental session split at
// the given cut points, with the auditor on, and returns the final result.
func replayInBatches(t *testing.T, store *reference.Store, cuts []int) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Audit = true
	inc := reference.NewStore()
	sess := New(schema.PIM(), cfg).NewSession(inc)
	next := 0
	for i, r := range store.All() {
		inc.Add(cloneRef(r))
		if next < len(cuts) && i+1 == cuts[next] {
			next++
			if _, err := sess.Reconcile(); err != nil {
				t.Fatalf("batch ending at %d: %v", i+1, err)
			}
		}
	}
	res, err := sess.Reconcile()
	if err != nil {
		t.Fatalf("final batch: %v", err)
	}
	return res
}

// pairAgreement counts pairwise same-entity agreement between two results
// over n references.
func pairAgreement(a, b *Result, n int) (agree, total int) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if a.SameEntity(reference.ID(i), reference.ID(j)) == b.SameEntity(reference.ID(i), reference.ID(j)) {
				agree++
			}
		}
	}
	return agree, total
}

// TestDifferentialIncrementalVsBatch is the randomized differential
// harness: every generated dataset is reconciled once as a batch and once
// through an incremental session split at randomly chosen (deterministic
// seed) self-contained cut points, with the invariant auditor running at
// every phase boundary of the session. The incremental merges must be a
// superset-consistent refinement of the batch merges — whatever the batch
// run joined stays joined — and overall pairwise agreement must be
// near-total (enrichment folds may add a handful of extra joins).
func TestDifferentialIncrementalVsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	datasets := auditDatasets(t)
	names := make([]string, 0, len(datasets))
	for name := range datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		store := datasets[name]
		t.Run(name, func(t *testing.T) {
			batch, err := New(schema.PIM(), DefaultConfig()).Reconcile(store)
			if err != nil {
				t.Fatal(err)
			}
			cuts := validCuts(store)
			if len(cuts) == 0 {
				t.Fatalf("no self-contained cut points in %d refs", store.Len())
			}
			// Two random cut points per trial, two trials per dataset.
			for trial := 0; trial < 2; trial++ {
				a, b := cuts[rng.Intn(len(cuts))], cuts[rng.Intn(len(cuts))]
				if a > b {
					a, b = b, a
				}
				chosen := []int{a}
				if b != a {
					chosen = append(chosen, b)
				}
				inc := replayInBatches(t, store, chosen)
				if rep := checkSuperset("incremental-vs-batch", batch.Assignment, inc.Assignment); !rep.Ok() {
					var msgs []string
					for i, v := range rep.Violations {
						if i == 3 {
							msgs = append(msgs, "...")
							break
						}
						msgs = append(msgs, v.String())
					}
					t.Errorf("cuts %v: batch merges lost incrementally: %s", chosen, strings.Join(msgs, "; "))
				}
				agree, total := pairAgreement(batch, inc, store.Len())
				if float64(agree) < 0.999*float64(total) {
					t.Errorf("cuts %v: pairwise agreement %d/%d below tolerance", chosen, agree, total)
				}
			}
		})
	}
}

// sessionFixture starts an audited session over a store seeded with a few
// distinctive persons and reconciles the first batch.
func sessionFixture(t *testing.T) (*Session, *reference.Store, map[string]reference.ID) {
	t.Helper()
	store := reference.NewStore()
	ids := make(map[string]reference.ID)
	add := func(label, name, email string) {
		r := reference.New(schema.ClassPerson)
		r.AddAtomic(schema.AttrName, name)
		r.AddAtomic(schema.AttrEmail, email)
		ids[label] = store.Add(r)
	}
	add("widom1", "Jennifer Widom", "widom@stanford.edu")
	add("widom2", "Widom, J.", "widom@stanford.edu")
	add("hector", "Hector Garcia-Molina", "hector@stanford.edu")
	add("vardi", "Moshe Vardi", "vardi@rice.edu")
	cfg := DefaultConfig()
	cfg.Audit = true
	sess := New(schema.PIM(), cfg).NewSession(store)
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	return sess, store, ids
}

// TestSessionEmptyBatchNoOp locks the empty-batch fix: a Reconcile call
// with no new references must return the previous result unchanged — same
// value, no re-seeded engine work, no accumulated stats or timings.
func TestSessionEmptyBatchNoOp(t *testing.T) {
	sess, _, _ := sessionFixture(t)
	first := sess.latest
	again, err := sess.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("empty batch built a new result")
	}
	if again.Stats != first.Stats {
		t.Fatalf("empty batch skewed stats:\n  before %+v\n  after  %+v", first.Stats, again.Stats)
	}
	if again.Stats.Engine.Steps != first.Stats.Engine.Steps {
		t.Fatal("empty batch re-ran the engine")
	}
}

// TestSessionRetryAfterValidateFailure locks the seen-cursor fix: a batch
// rejected by store.Validate must be incorporated in full when Reconcile is
// retried after the store is repaired, not silently stranded.
func TestSessionRetryAfterValidateFailure(t *testing.T) {
	sess, store, ids := sessionFixture(t)

	// The bad batch: a duplicate of an existing person plus an article
	// whose author link points one past the end of the store.
	dup := reference.New(schema.ClassPerson)
	dup.AddAtomic(schema.AttrName, "Jennifer Widom")
	dup.AddAtomic(schema.AttrEmail, "widom@stanford.edu")
	dupID := store.Add(dup)
	art := reference.New(schema.ClassArticle)
	art.AddAtomic(schema.AttrTitle, "Dangling reference resolution")
	missing := reference.ID(store.Len() + 1)
	art.AddAssoc(schema.AttrAuthoredBy, missing)
	store.Add(art)

	if _, err := sess.Reconcile(); err == nil {
		t.Fatal("expected a validation error for the dangling author link")
	}

	// Repair: add the missing author target (and its predecessor so the id
	// lands where the article points).
	for store.Len() <= int(missing) {
		store.Add(reference.New(schema.ClassPerson).AddAtomic(schema.AttrName, "Filler Person"))
	}
	res, err := sess.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate from the failed batch must have been incorporated on
	// retry: it merges with the original Widom references.
	if !res.SameEntity(ids["widom1"], dupID) {
		t.Fatal("reference from the failed batch was stranded (never incorporated on retry)")
	}
}

// TestSessionBatchOfAlreadyMerged feeds a batch consisting entirely of
// duplicates of already-merged references and checks the batch-run
// refinement property still holds.
func TestSessionBatchOfAlreadyMerged(t *testing.T) {
	sess, store, ids := sessionFixture(t)
	if !sess.latest.SameEntity(ids["widom1"], ids["widom2"]) {
		t.Fatal("setup: widom mentions should merge in round 1")
	}
	d1 := reference.New(schema.ClassPerson)
	d1.AddAtomic(schema.AttrName, "Jennifer Widom")
	d1.AddAtomic(schema.AttrEmail, "widom@stanford.edu")
	id1 := store.Add(d1)
	d2 := reference.New(schema.ClassPerson)
	d2.AddAtomic(schema.AttrName, "Hector Garcia-Molina")
	d2.AddAtomic(schema.AttrEmail, "hector@stanford.edu")
	id2 := store.Add(d2)

	res, err := sess.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !res.SameEntity(ids["widom1"], id1) || !res.SameEntity(ids["hector"], id2) {
		t.Fatal("duplicates of merged references should join their entities")
	}
	batch, err := New(schema.PIM(), DefaultConfig()).Reconcile(cloneStore(store))
	if err != nil {
		t.Fatal(err)
	}
	if rep := checkSuperset("already-merged", batch.Assignment, res.Assignment); !rep.Ok() {
		t.Fatalf("refinement property violated: %v", rep.Violations)
	}
}

// TestSessionInterleavedConstraintMarks adds an article whose co-author
// constraint splits a pair merged in an earlier round: the constraint must
// win, the auditor must stay clean across the merged-to-non-merge
// transition, and the result must match the batch run on the same data.
func TestSessionInterleavedConstraintMarks(t *testing.T) {
	sess, store, ids := sessionFixture(t)
	if !sess.latest.SameEntity(ids["widom1"], ids["widom2"]) {
		t.Fatal("setup: widom mentions should merge in round 1")
	}

	// Round 2: one article listing both widom mentions as distinct
	// co-authors (constraint 1 of §5.3).
	art := reference.New(schema.ClassArticle)
	art.AddAtomic(schema.AttrTitle, "On the impossibility of self-coauthorship")
	art.AddAssoc(schema.AttrAuthoredBy, ids["widom1"])
	art.AddAssoc(schema.AttrAuthoredBy, ids["widom2"])
	store.Add(art)

	res, err := sess.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if res.SameEntity(ids["widom1"], ids["widom2"]) {
		t.Fatal("co-author constraint must separate the pair it marks")
	}
	batch, err := New(schema.PIM(), DefaultConfig()).Reconcile(cloneStore(store))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.SameEntity(ids["widom1"], ids["widom2"]), batch.SameEntity(ids["widom1"], ids["widom2"]); got != want {
		t.Fatalf("incremental decision %v disagrees with batch %v", got, want)
	}
}

// cloneStore replays every reference into a fresh store (IDs preserved).
func cloneStore(store *reference.Store) *reference.Store {
	out := reference.NewStore()
	for _, r := range store.All() {
		out.Add(cloneRef(r))
	}
	return out
}

// TestAuditCatchesCorruption end-to-end: corrupting the session graph
// between batches must turn the next Reconcile into an audit error rather
// than a silently wrong partition.
func TestAuditCatchesCorruption(t *testing.T) {
	sess, store, _ := sessionFixture(t)
	corrupted := false
	sess.g.Nodes(func(n *depgraph.Node) {
		if !corrupted && n.Kind() == depgraph.RefPair && n.Status() == depgraph.Merged {
			n.SetSim(1.5)
			corrupted = true
		}
	})
	if !corrupted {
		t.Fatal("setup: no merged pair to corrupt")
	}
	store.Add(reference.New(schema.ClassPerson).AddAtomic(schema.AttrName, "New Arrival"))
	_, err := sess.Reconcile()
	if err == nil || !strings.Contains(err.Error(), "graph/sim-range") {
		t.Fatalf("expected an audit sim-range error, got %v", err)
	}
}

// checkSuperset reports the references the base run placed together that
// the refined run separates or lacks: the refined merges must be a
// superset of the base merges. Each base partition must map to a single
// refined label.
func checkSuperset(phase string, base, refined map[reference.ID]int) *audit.Report {
	r := &audit.Report{Phase: phase}
	first := make(map[int]reference.ID) // base label -> first member the refined run has
	for id, g := range base {
		r.Checks++
		lab, ok := refined[id]
		if !ok {
			r.Violations = append(r.Violations, audit.Violation{Check: "refine/missing-ref",
				Detail: fmt.Sprintf("reference %d absent from refined assignment", id)})
			continue
		}
		f, seen := first[g]
		if !seen {
			first[g] = id
		} else if refined[f] != lab {
			r.Violations = append(r.Violations, audit.Violation{Check: "refine/split",
				Detail: fmt.Sprintf("references %d and %d merged in base but split in refined run", f, id)})
		}
	}
	return r
}
