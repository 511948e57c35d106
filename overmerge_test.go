package refrecon_test

import (
	"testing"

	"refrecon/internal/datagen/catalog"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// TestOverMergeAlarm: Stats carries, without gold labels, the share of the
// worst class's references that sit in its largest partition. The catalog
// over-merge (ROADMAP item 1: nearly every listing collapses into one
// Product entity under the default row) must read as one; a healthy PIM
// run must not. Fixing item 1 moves the first assertion, on purpose.
func TestOverMergeAlarm(t *testing.T) {
	cat, err := catalog.Generate(catalog.Default(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	pimA, err := pim.Generate(pim.DatasetA(0.25))
	if err != nil {
		t.Fatal(err)
	}
	run := func(sch *schema.Schema, store *reference.Store) recon.Stats {
		res, err := recon.New(sch, recon.DefaultConfig()).Reconcile(store)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.LargestShare(res.Stats.OverMergeClass); got != res.Stats.OverMergeShare {
			t.Errorf("Stats says %s %v, LargestShare %v", res.Stats.OverMergeClass, res.Stats.OverMergeShare, got)
		}
		return res.Stats
	}
	if st := run(schema.Catalog(), cat.Store); st.OverMergeClass != schema.ClassProduct || st.OverMergeShare <= 0.9 {
		t.Errorf("catalog: over-merge alarm reads %s %.3f, want Product above 0.9", st.OverMergeClass, st.OverMergeShare)
	}
	if st := run(schema.PIM(), pimA.Store); st.OverMergeShare >= 0.1 {
		t.Errorf("PIM-A: over-merge alarm reads %s %.3f, want below 0.1", st.OverMergeClass, st.OverMergeShare)
	} else {
		t.Logf("PIM-A: %s %.3f", st.OverMergeClass, st.OverMergeShare)
	}
}
