package simfn

import (
	"testing"

	"refrecon/internal/obs"
	"refrecon/internal/schema"
)

// Compare's memoized path is the hottest call in graph construction: every
// candidate pair re-scores its attribute values through the pair cache.
// Observability must not tax it — with no counters attached the only added
// cost is a nil pointer compare, and even with counters attached the hit
// path is two atomic adds. These tests pin both variants at exactly zero
// allocations so a stray interface conversion or map-key boxing can never
// creep in behind the obs wiring.

var allocSink float64

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
	}
}

func TestCompareCacheHitZeroAllocs(t *testing.T) {
	l := NewLibrary()
	// Prime the cache; the measured loop then hits it every time.
	allocSink += l.Compare(EvName, "Michael Stonebraker", "M. Stonebraker")
	allocSink += l.Compare(EvTitle, "reference reconciliation", "refernce reconcilation")
	allocSink += l.Compare("g:title", "Acme FA 7310 drill", "ACME FA-4730 Drill")
	assertZeroAllocs(t, "Compare/cache-hit", func() {
		allocSink += l.Compare(EvName, "Michael Stonebraker", "M. Stonebraker")
		allocSink += l.Compare(EvTitle, "reference reconciliation", "refernce reconcilation")
		allocSink += l.Compare("g:title", "Acme FA 7310 drill", "ACME FA-4730 Drill")
	})
}

// TestCompareIDsCacheHitZeroAllocs pins the id path graph construction
// scores through: a hit is one packed key, no string hashed.
func TestCompareIDsCacheHitZeroAllocs(t *testing.T) {
	l := NewLibrary()
	x, y := l.ValueID("Michael Stonebraker"), l.ValueID("M. Stonebraker")
	t1, t2 := l.ValueID("reference reconciliation"), l.ValueID("refernce reconcilation")
	allocSink += l.CompareIDs(ByName, x, y) + l.CompareIDs(ByTitle, t1, t2)
	assertZeroAllocs(t, "CompareIDs/cache-hit", func() {
		allocSink += l.CompareIDs(ByName, x, y) + l.CompareIDs(ByTitle, t1, t2)
	})
}

func TestCompareCacheHitZeroAllocsWithCounters(t *testing.T) {
	l := NewLibrary()
	c := obs.NewCounters()
	l.SetCounters(c)
	allocSink += l.Compare(EvName, "Michael Stonebraker", "M. Stonebraker")
	assertZeroAllocs(t, "Compare/cache-hit+counters", func() {
		allocSink += l.Compare(EvName, "Michael Stonebraker", "M. Stonebraker")
	})
	if c.SimfnCacheHits.Load() == 0 {
		t.Fatal("counters attached but no cache hits recorded")
	}
}

// Every propagation step gathers the node's evidence afresh, so Score's
// allocation count is a per-step cost. A RefPair node with up to four
// evidence labels fits Evidence's inline storage: the one allocation left
// is the Evidence itself, which escapes because the score row's tree is an
// indirect call.
func TestScoreAllocsPerStep(t *testing.T) {
	s := paperScorer()
	n := buildNode(schema.ClassPerson, map[string]float64{EvName: 0.8, EvEmail: 0.7, EvNameEmail: 0.6, EvContact: 0.5}, 2, 1)
	if allocs := testing.AllocsPerRun(200, func() { allocSink += s.Score(n) }); allocs > 1 {
		t.Errorf("Scorer.Score: %.1f allocs/op, want <= 1", allocs)
	}
}
