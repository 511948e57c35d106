// Order nets: the answer should be a function of the reference set, not
// of its order or of where a session's batches were cut, and today it is
// not quite (ROADMAP item 21). TestPermutationFlips renumbers PIM-A, PIM-D
// and Cora at test scale under three fixed id permutations, with
// association targets remapped, reconciles each, and counts the
// same-entity pairs that flip against the identity order. TestSplitFlips
// feeds the biblio corpus to a session in 2, 4 and 8 batches and counts
// the pairs that flip against the one-shot run. Each count is bounded at
// the value measured when its test was added, so a change may only lower
// a bound: a change that lowers a count records the new value here, and
// one that raises it fails.
package refrecon_test

import (
	"math/rand"
	"testing"

	"refrecon/internal/datagen/biblio"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// permutationSeeds are the fixed permutations, one flip bound per seed.
var permutationSeeds = [3]int64{1, 2, 3}

// permutationFlipBounds are the flips measured at the suite's scale (0.08)
// when the net was added, against 4,155 (PIM-A), 3,037 (PIM-D) and 7,697
// (Cora) same-entity pairs in the identity order.
var permutationFlipBounds = map[string][3]int{
	"PIM-A": {53, 16, 62},
	"PIM-D": {79, 115, 128},
	"Cora":  {0, 0, 0},
}

// permuteIDs copies the store with reference ids shuffled by seed and
// association targets remapped; old[n] is the original id of new id n.
func permuteIDs(st *reference.Store, seed int64) (out *reference.Store, old []reference.ID) {
	perm := rand.New(rand.NewSource(seed)).Perm(st.Len())
	newID := make([]reference.ID, len(perm))
	old = make([]reference.ID, len(perm))
	for n, o := range perm {
		newID[o] = reference.ID(n)
		old[n] = reference.ID(o)
	}
	out = reference.NewStore()
	for _, o := range old {
		rec := st.Get(o).Record()
		for attr, ts := range rec.Assoc {
			for i, t := range ts {
				ts[i] = newID[t]
			}
			rec.Assoc[attr] = ts
		}
		out.Add(rec.Reference())
	}
	return out, old
}

// sameEntityPairs lists the result's same-entity pairs in original ids
// (old maps a result id to it; nil is the identity), smaller id first.
func sameEntityPairs(res *recon.Result, old []reference.ID) map[[2]reference.ID]bool {
	pairs := make(map[[2]reference.ID]bool)
	for _, parts := range res.Partitions {
		for _, part := range parts {
			ids := part
			if old != nil {
				ids = make([]reference.ID, len(part))
				for i, id := range part {
					ids[i] = old[id]
				}
			}
			for i, a := range ids {
				for _, b := range ids[i+1:] {
					pairs[[2]reference.ID{min(a, b), max(a, b)}] = true
				}
			}
		}
	}
	return pairs
}

// pairFlips counts the pairs in exactly one of a and b.
func pairFlips(a, b map[[2]reference.ID]bool) int {
	flips := 0
	for p := range b {
		if !a[p] {
			flips++
		}
	}
	for p := range a {
		if !b[p] {
			flips++
		}
	}
	return flips
}

func TestPermutationFlips(t *testing.T) {
	stores := map[string]*reference.Store{
		"PIM-A": suite().PIM("A").Store,
		"PIM-D": suite().PIM("D").Store,
		"Cora":  suite().Cora().Store,
	}
	reconcile := func(name string, st *reference.Store) *recon.Result {
		res, err := recon.New(schema.PIM(), recon.DefaultConfig()).Reconcile(st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	for name, bounds := range permutationFlipBounds {
		base := sameEntityPairs(reconcile(name, stores[name]), nil)
		for i, seed := range permutationSeeds {
			permuted, old := permuteIDs(stores[name], seed)
			got := sameEntityPairs(reconcile(name, permuted), old)
			flips := pairFlips(base, got)
			t.Logf("%s seed %d: %d of %d identity-order same-entity pairs flip", name, seed, flips, len(base))
			if flips > bounds[i] {
				t.Errorf("%s seed %d: %d flipped same-entity pairs, bound %d", name, seed, flips, bounds[i])
			}
		}
	}
}

// splitSizes are the biblio corpus sizes the split net runs, and
// splitWays the session splits; splitFlipBounds[size][seed-1] holds one
// bound per way, measured when the net was added against 1,270 / 1,076 /
// 1,312 (400 refs) and 2,816 / 2,698 / 2,628 (800 refs) one-shot pairs.
var (
	splitSizes      = [2]int{400, 800}
	splitWays       = [3]int{2, 4, 8}
	splitFlipBounds = map[int][3][3]int{
		400: {{16, 16, 40}, {0, 22, 27}, {36, 25, 25}},
		800: {{44, 101, 130}, {90, 101, 101}, {71, 96, 89}},
	}
)

// validCut returns the first id c >= at at which no reference before c
// links to one at or past it: a batch may end there.
func validCut(st *reference.Store, at int) int {
	for c := at; c < st.Len(); c++ {
		ok := true
		for _, r := range st.All()[:c] {
			for _, attr := range r.AssocAttrs() {
				for _, to := range r.Assoc(attr) {
					ok = ok && int(to) < c
				}
			}
		}
		if ok {
			return c
		}
	}
	return st.Len()
}

// TestSplitFlips is the split half of the order net: the biblio corpus
// (loadgen's, and mixed-biblio's) fed to one session in k batches, cut at
// the first valid cut at or past each i·n/k, against the one-shot run.
func TestSplitFlips(t *testing.T) {
	cfg := recon.DefaultConfig()
	for _, size := range splitSizes {
		for s, seed := range permutationSeeds {
			g, err := biblio.Generate(biblio.Default(size, seed))
			if err != nil {
				t.Fatal(err)
			}
			oneShot, err := recon.New(schema.PIM(), cfg).Reconcile(g.Store)
			if err != nil {
				t.Fatal(err)
			}
			base := sameEntityPairs(oneShot, nil)
			n := g.Store.Len()
			for w, k := range splitWays {
				store := reference.NewStore()
				sess := recon.New(schema.PIM(), cfg).NewSession(store)
				var res *recon.Result
				for i := 1; i <= k; i++ {
					for _, r := range g.Store.All()[store.Len():validCut(g.Store, i*n/k)] {
						store.Add(r.Record().Reference())
					}
					if res, err = sess.Reconcile(); err != nil {
						t.Fatal(err)
					}
				}
				flips := pairFlips(base, sameEntityPairs(res, nil))
				t.Logf("biblio %d seed %d, %d-way split: %d of %d one-shot same-entity pairs flip", size, seed, k, flips, len(base))
				if bound := splitFlipBounds[size][s][w]; flips > bound {
					t.Errorf("biblio %d seed %d, %d-way split: %d flipped same-entity pairs, bound %d", size, seed, k, flips, bound)
				}
			}
		}
	}
}
