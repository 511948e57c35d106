package recon

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"refrecon/internal/collective"
	"refrecon/internal/datagen/cora"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
)

// valueStores are the two corpora the value-id nets run over.
func valueStores(t *testing.T) map[string]*reference.Store {
	t.Helper()
	a, err := pim.Generate(pim.DatasetA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cora.Generate(cora.Default(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*reference.Store{"pimA": a.Store, "cora": c.Store}
}

// TestValueIDsScoreAsRawValues is the differential net of the id path:
// over every value pair of every blocked candidate pair and every pair
// node the build made, the score the builder's id-keyed cache returns for
// the two ids equals, to the bit, the score an independent library with
// the same statistics computes from the two raw strings the ids stand for.
// The independent library only ever caches what it computed from raw
// strings under the same frozen statistics.
func TestValueIDsScoreAsRawValues(t *testing.T) {
	for name, store := range valueStores(t) {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			b := newBuilder(store, schema.PIM(), cfg)
			b.incorporate(store.All())
			raw := newEvidence(schema.PIM(), cfg)
			for _, r := range store.All() {
				raw.feed(r, nil)
			}
			seen := make(map[uint64]bool)
			checked := 0
			check := func(r1, r2 *reference.Reference) {
				if r1.ID == r2.ID || seen[pairIndex(r1.ID, r2.ID)] {
					return
				}
				seen[pairIndex(r1.ID, r2.ID)] = true
				vals := b.appendVals(nil, r1, r2)
				i := 0
				for _, cmp := range b.row(r1.Class).compare {
					for _, x := range r1.Atomic(cmp.attrA) {
						for _, y := range r2.Atomic(cmp.attrB) {
							if cmp.swap {
								x, y = y, x
							}
							want := raw.lib.CompareBy(cmp.by, cmp.evidence, x, y)
							if got := b.compare(vals[i]); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s %q vs %q: id path %v, raw %v", cmp.evidence, x, y, got, want)
							}
							i++
							checked++
						}
					}
				}
				if i != len(vals) {
					t.Fatalf("pair (%d, %d): %d comparisons listed, %d by value", r1.ID, r2.ID, len(vals), i)
				}
			}
			for _, idx := range b.indexes {
				idx.Pairs(func(x, y reference.ID) {
					check(store.Get(x), store.Get(y))
				})
			}
			b.g.Nodes(func(n *depgraph.Node) {
				if n.Kind() == depgraph.RefPair {
					check(store.Get(n.RefA()), store.Get(n.RefB()))
				}
			})
			if checked == 0 {
				t.Fatal("no value pair checked")
			}
		})
	}
}

// TestMatcherOverSessionSnapshotInternsNothing pins the publish cost: a
// matcher over a session's snapshot reads the session's value rows and
// dictionary as they are. It adds no dictionary entry and makes no row of
// its own; a decoded snapshot's matcher interns its values, once.
func TestMatcherOverSessionSnapshotInternsNothing(t *testing.T) {
	store := valueStores(t)["pimA"]
	sess := New(schema.PIM(), DefaultConfig()).NewSession(store)
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lib := sess.b.lib
	before := lib.ValueID("a value no reference holds")
	m := NewMatcher(schema.PIM(), DefaultConfig(), snap)
	if after := lib.ValueID("another value no reference holds"); after != before+1 {
		t.Errorf("NewMatcher interned %d values", after-before-1)
	}
	if len(m.rows) != len(snap.rows) || &m.rows[0] != &snap.rows[0] {
		t.Error("the matcher made value rows of its own")
	}
	if m.lib.ValueID("a query value no reference holds") != simfn.NoValue {
		t.Error("a query value was interned")
	}
	blob, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dm := NewMatcher(schema.PIM(), DefaultConfig(), dec); len(dm.rows) != dec.RefCount() || dm.rows[0] == nil {
		t.Error("the decoded snapshot's matcher has no value rows")
	}
}

// TestQueriesWhileSessionCommits runs plain and collective queries against
// a published matcher while the session commits further batches, so the
// dictionary the matcher reads grows under it; run with -race. Every
// answer must be the one the matcher gave before the commits.
func TestQueriesWhileSessionCommits(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.05))
	if err != nil {
		t.Fatal(err)
	}
	full := g.Store
	cuts := validCuts(full)
	if len(cuts) < 4 {
		t.Fatalf("only %d cut points", len(cuts))
	}
	first, cfg := cuts[len(cuts)/4], DefaultConfig()
	store := reference.NewStore()
	for _, r := range full.All()[:first] {
		store.Add(cloneRef(r))
	}
	sess := New(schema.PIM(), cfg).NewSession(store)
	if _, err := sess.Reconcile(); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCollectiveMatcher(NewMatcher(schema.PIM(), cfg, snap), collective.Config{})
	var queries []Query
	for id := 0; id < snap.RefCount(); id += 7 {
		sr, _ := snap.Ref(reference.ID(id))
		queries = append(queries, queryFor(sr, true, 5))
	}
	answer := func(q Query) string {
		plain, _, err := cm.Matcher().Match(q)
		if err != nil {
			t.Error(err)
		}
		coll, _, err := cm.Match(q)
		if err != nil {
			t.Error(err)
		}
		s := ""
		for _, c := range append(plain, coll...) {
			s += fmt.Sprintf("%d:%v ", c.Entity.Canonical, c.Score)
		}
		return s
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = answer(q)
	}

	grown := sess.b.lib.ValueID("a probe value before the commits")
	var wg sync.WaitGroup
	done := make(chan struct{})
	defer wg.Wait()
	defer close(done)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for i := w; i < len(queries); i += 2 {
					if got := answer(queries[i]); got != want[i] {
						t.Errorf("query %d answered %s during commits, %s before", i, got, want[i])
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	next := first
	for _, cut := range append(cuts[len(cuts)/4+1:], full.Len()) {
		if cut-next < 40 && cut != full.Len() {
			continue
		}
		for _, r := range full.All()[next:cut] {
			store.Add(cloneRef(r))
		}
		next = cut
		if _, err := sess.Reconcile(); err != nil {
			t.Fatal(err)
		}
	}
	if after := sess.b.lib.ValueID("a probe value after the commits"); after <= grown+1 {
		t.Error("the commits interned no value")
	}
}

// TestValCompareHoldsNoPointer pins what makes the enumerated comparisons
// free for the garbage collector: their element type holds no pointer.
func TestValCompareHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if walk(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if ty := reflect.TypeOf(valCompare{}); walk(ty) {
		t.Errorf("%v holds a pointer", ty)
	}
}

// TestSessionEqualsOneShot feeds PIM-A(0.1) and Cora(0.1) to a session in
// eight self-contained batches. Every commit bumps the statistics, and the
// cached scores of the rows that read none survive it (simfn's
// Comparator.Gen): the session's final partitions must still be the
// one-shot run's.
func TestSessionEqualsOneShot(t *testing.T) {
	for name, store := range valueStores(t) {
		t.Run(name, func(t *testing.T) {
			once, err := New(schema.PIM(), DefaultConfig()).Reconcile(cloneStore(store))
			if err != nil {
				t.Fatal(err)
			}
			cuts := validCuts(store)
			var chosen []int
			for i := 1; i < 8; i++ {
				chosen = append(chosen, cuts[i*len(cuts)/8])
			}
			if got := replayInBatches(t, store, chosen); !reflect.DeepEqual(got.Partitions, once.Partitions) {
				t.Errorf("cuts %v: the session's partitions differ from the one-shot run's", chosen)
			}
		})
	}
}
