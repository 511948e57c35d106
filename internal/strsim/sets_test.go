package strsim

import (
	"testing"
	"testing/quick"
)

func TestJaccardTokens(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a b c", "a b c", 1},
		{"a b", "b c", 1.0 / 3},
		{"hello world", "goodbye moon", 0},
		{"The Database", "database the", 1},
	}
	for _, c := range cases {
		if got := JaccardTokens(c.a, c.b); !approx(got, c.want) {
			t.Errorf("JaccardTokens(%q,%q) = %f, want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardContentTokens(t *testing.T) {
	// Stopwords must not dilute the score.
	a := "The Theory of Record Linkage"
	b := "A Theory for Record Linkage"
	if got := JaccardContentTokens(a, b); !approx(got, 1) {
		t.Errorf("content jaccard = %f, want 1", got)
	}
	if got := JaccardTokens(a, b); got >= 1 {
		t.Errorf("plain jaccard should be < 1, got %f", got)
	}
}

func TestMongeElkan(t *testing.T) {
	// Token reorder should score 1 with an exact inner comparator.
	exact := func(a, b string) float64 {
		if a == b {
			return 1
		}
		return 0
	}
	if got := MongeElkan("michael stonebraker", "stonebraker michael", exact); got != 1 {
		t.Errorf("reordered tokens = %f, want 1", got)
	}
	if got := MongeElkan("", "", nil); got != 1 {
		t.Errorf("both empty = %f, want 1", got)
	}
	if got := MongeElkan("abc", "", nil); got != 0 {
		t.Errorf("one empty = %f, want 0", got)
	}
	// Default inner comparator tolerates typos.
	if got := MongeElkan("michael stonebraker", "micheal stonebraker", nil); got < 0.9 {
		t.Errorf("typo tolerance too low: %f", got)
	}
}

func TestCorpusCosine(t *testing.T) {
	c := NewCorpus()
	docs := []string{
		"query processing in distributed databases",
		"query optimization",
		"distributed query processing",
		"transaction management",
		"concurrency control in databases",
	}
	for _, d := range docs {
		c.Add(d)
	}
	if c.Docs() != len(docs) {
		t.Fatalf("Docs = %d", c.Docs())
	}
	same := c.CosineSim("distributed query processing", "distributed query processing")
	if !approx(same, 1) {
		t.Errorf("self cosine = %f, want 1", same)
	}
	far := c.CosineSim("distributed query processing", "concurrency control")
	if far != 0 {
		t.Errorf("disjoint cosine = %f, want 0", far)
	}
	near := c.CosineSim("distributed query processing", "query processing distributed")
	if !approx(near, 1) {
		t.Errorf("word order must not matter for equal multisets: %f", near)
	}
	// Rare words should matter more: sharing "concurrency" (rare) should
	// outweigh sharing "query" (common) for equally-sized titles.
	rare := c.CosineSim("concurrency theory", "concurrency practice")
	common := c.CosineSim("query theory", "query practice")
	if rare <= common {
		t.Errorf("rare-token match (%f) should beat common-token match (%f)", rare, common)
	}
}

func TestCorpusCosineEmpty(t *testing.T) {
	c := NewCorpus()
	if got := c.CosineSim("", ""); got != 1 {
		t.Errorf("empty/empty = %f", got)
	}
	if got := c.CosineSim("x", ""); got != 0 {
		t.Errorf("x/empty = %f", got)
	}
}

// comparators lists every exported [0,1] similarity for generic property
// testing.
var comparators = map[string]func(a, b string) float64{
	"LevenshteinSim": levenshteinSim,
	"DamerauSim":     DamerauSim,
	"Jaro":           jaro,
	"JaroWinkler":    JaroWinkler,
	"JaccardTokens":  JaccardTokens,
	"MongeElkan":     func(a, b string) float64 { return MongeElkan(a, b, nil) },
}

func TestComparatorsBounded(t *testing.T) {
	for name, fn := range comparators {
		fn := fn
		f := func(a, b string) bool {
			s := fn(a, b)
			return s >= 0 && s <= 1
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s not bounded: %v", name, err)
		}
	}
}

func TestComparatorsSymmetric(t *testing.T) {
	for name, fn := range comparators {
		fn := fn
		f := func(a, b string) bool { return approx(fn(a, b), fn(b, a)) }
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s not symmetric: %v", name, err)
		}
	}
}

func TestComparatorsReflexive(t *testing.T) {
	for name, fn := range comparators {
		fn := fn
		f := func(a string) bool { return approx(fn(a, a), 1) }
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s not reflexive: %v", name, err)
		}
	}
}
