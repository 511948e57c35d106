package strsim

import "testing"

// The comparator hot paths run inside the propagation engine's serial loop
// and the parallel construction workers; the pooled-scratch design (see
// scratch.go) is supposed to make them allocation-free in steady state.
// These regression tests pin that at exactly zero so a stray []rune
// conversion or per-call make can never creep back in.

// allocSink defeats dead-code elimination of the measured calls.
var allocSink float64

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	// AllocsPerRun runs fn once as warm-up, which primes the scratch pool
	// and grows the buffers to their steady capacity.
	if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
	}
}

func TestLevenshteinZeroAllocs(t *testing.T) {
	assertZeroAllocs(t, "Levenshtein", func() {
		allocSink += float64(levenshtein("reference reconciliation", "refernce reconcilation"))
	})
}

func TestLevenshteinSimZeroAllocs(t *testing.T) {
	assertZeroAllocs(t, "LevenshteinSim", func() {
		allocSink += levenshteinSim("José García-Molina", "Jose Garcia Molina")
	})
}

func TestDamerauZeroAllocs(t *testing.T) {
	assertZeroAllocs(t, "DamerauLevenshtein", func() {
		allocSink += float64(damerau("michael stonebraker", "micheal stonebraker"))
	})
	assertZeroAllocs(t, "DamerauSim", func() {
		allocSink += DamerauSim("michael stonebraker", "micheal stonebraker")
	})
}

func TestJaroWinklerZeroAllocs(t *testing.T) {
	assertZeroAllocs(t, "Jaro", func() {
		allocSink += jaro("martha", "marhta")
	})
	assertZeroAllocs(t, "JaroWinkler", func() {
		allocSink += JaroWinkler("dixon", "dicksonx")
	})
	assertZeroAllocs(t, "JaroWinklerTokens", func() {
		allocSink += JaroWinklerTokens("dixon", "dicksonx") + JaroWinklerTokens("garcía", "garcia")
	})
}

// TestMongeElkanTokensZeroAllocs pins the kernel on pre-split tokens: the
// per-token best scores live in pooled scratch, and equal, ASCII and
// non-ASCII token pairs take all three inner branches.
func TestMongeElkanTokensZeroAllocs(t *testing.T) {
	ta := []string{"michael", "stonebraker", "garcía"}
	tb := []string{"stonebroker", "m", "garcia", "michael"}
	assertZeroAllocs(t, "MongeElkanTokens", func() {
		allocSink += MongeElkanTokens(ta, tb)
	})
}

func TestAlignZeroAllocs(t *testing.T) {
	assertZeroAllocs(t, "SmithWaterman", func() {
		allocSink += smithWaterman("dept of computer science stanford", "stanford computer science department")
	})
	assertZeroAllocs(t, "NeedlemanWunsch", func() {
		allocSink += needlemanWunsch("sigmod conference", "sigmod record")
	})
}
