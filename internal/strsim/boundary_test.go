package strsim

import (
	"math"
	"testing"
)

// These tests pin the clamp and NaN guards on the similarity outputs at
// their exact boundaries; the cases mirror bugs the FuzzStrsim target and
// the engine's differential harness shook out.

func TestClamp01Boundaries(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{
		{0, 0},
		{1, 1},
		{0.5, 0.5},
		{1 + 1e-16, 1}, // one-ulp TF-IDF overflow, the original bug
		{1.5, 1},
		{-1e-16, 0},
		{-2, 0},
		{math.NaN(), 0},
		{math.Inf(1), 1},
		{math.Inf(-1), 0},
	}
	for _, c := range cases {
		if got := clamp01(c.in); got != c.want {
			t.Errorf("clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCosineSelfComparisonExact pins the FuzzStrsim finding: dot and norm²
// sum the same products in different orders, so without the identity
// short-circuit a self-comparison could land one ulp below 1 — below the
// exact value-pair merge threshold.
func TestCosineSelfComparisonExact(t *testing.T) {
	c := NewCorpus()
	docs := []string{
		"the of and", // the input fuzzing found (multi-token, equal weights)
		"reference reconciliation in complex information spaces",
		"data data data integration",
	}
	for _, d := range docs {
		c.Add(d)
	}
	for _, d := range docs {
		if s := c.CosineSim(d, d); s != 1 {
			t.Errorf("CosineSim(%q, same) = %v, want exactly 1", d, s)
		}
	}
}

func TestCosineEmptyVectorBoundaries(t *testing.T) {
	c := NewCorpus()
	c.Add("some corpus content")
	// Token-free strings vectorize to nothing. (All-stopword strings do
	// NOT: ContentWords falls back to the full token list so that short
	// values like "of" stay comparable.)
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"...", "!!! ---", 1}, // both token-free: empty vs empty
		{"", "real title", 0},
		{"...", "real title", 0},
		{"the a an", "of in", 0}, // stopword fallback: disjoint token sets
	}
	for _, cs := range cases {
		if got := c.CosineSim(cs.a, cs.b); got != cs.want {
			t.Errorf("CosineSim(%q, %q) = %v, want %v", cs.a, cs.b, got, cs.want)
		}
	}
}

// TestMongeElkanHostileInner: a caller-supplied inner comparator that
// strays outside [0,1] (or returns NaN) must not leak through.
func TestMongeElkanHostileInner(t *testing.T) {
	over := func(a, b string) float64 { return 1.5 }
	if s := MongeElkan("alpha beta", "alpha beta", over); s != 1 {
		t.Errorf("MongeElkan with inner>1 = %v, want clamped 1", s)
	}
	nan := func(a, b string) float64 { return math.NaN() }
	if s := MongeElkan("alpha", "beta", nan); s != 0 {
		t.Errorf("MongeElkan with NaN inner = %v, want 0", s)
	}
	neg := func(a, b string) float64 { return -0.5 }
	if s := MongeElkan("alpha", "beta", neg); s != 0 {
		t.Errorf("MongeElkan with negative inner = %v, want 0", s)
	}
	// Zero-token inputs bypass the inner comparator entirely.
	if s := MongeElkan("", "", nan); s != 1 {
		t.Errorf("MongeElkan empty/empty = %v, want 1", s)
	}
	if s := MongeElkan("", "x", nan); s != 0 {
		t.Errorf("MongeElkan empty/non-empty = %v, want 0", s)
	}
}

func TestJaroWinklerPrefixBoundaries(t *testing.T) {
	// The Winkler boost counts at most 4 prefix runes; p is capped at 0.25
	// so the boost can never push the score past 1.
	long := "aaaaaaaaaa"
	if s := jaroWinklerP(long, long+"b", 0.25); s > 1 {
		t.Errorf("shared 10-rune prefix at p=0.25 overflowed: %v", s)
	}
	if s := jaroWinklerP("ab", "cd", -3); s != jaro("ab", "cd") {
		t.Errorf("negative p must degrade to plain Jaro: %v", s)
	}
	if got, capped := jaroWinklerP("martha", "marhta", 9), jaroWinklerP("martha", "marhta", 0.25); got != capped {
		t.Errorf("p above 0.25 must be capped: %v vs %v", got, capped)
	}
	// Four shared prefix runes and five must produce the same boost.
	four := jaroWinklerP("abcdxx", "abcdyy", 0.1)
	five := jaroWinklerP("abcdexx", "abcdeyy", 0.1)
	if five < four-0.1 { // five shares more content, so >=; never a smaller boost class
		t.Errorf("prefix cap mishandled: len4=%v len5=%v", four, five)
	}
}
