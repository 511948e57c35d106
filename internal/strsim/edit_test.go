package strsim

import (
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"a", "b", 1},
		{"stonebraker", "stonbraker", 1},
		{"gumbo", "gambol", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	f := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	f := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinIdentity(t *testing.T) {
	f := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDamerauLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"ab", "ba", 1},   // one transposition
		{"abc", "acb", 1}, // transposition
		{"ca", "abc", 3},  // OSA variant: no substring moves
		{"kitten", "sitting", 3},
		{"stien", "stein", 1}, // classic name typo
	}
	for _, c := range cases {
		if got := DamerauLevenshtein(c.a, c.b); got != c.want {
			t.Errorf("DamerauLevenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauNeverWorseThanLevenshtein(t *testing.T) {
	f := func(a, b string) bool { return DamerauLevenshtein(a, b) <= Levenshtein(a, b) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSim(t *testing.T) {
	if s := LevenshteinSim("", ""); s != 1 {
		t.Errorf("empty strings should have sim 1, got %f", s)
	}
	if s := LevenshteinSim("abc", "abc"); s != 1 {
		t.Errorf("identical should be 1, got %f", s)
	}
	if s := LevenshteinSim("abc", "xyz"); s != 0 {
		t.Errorf("disjoint equal-length should be 0, got %f", s)
	}
	// Case should not matter.
	if s := LevenshteinSim("ABC", "abc"); s != 1 {
		t.Errorf("case-insensitive equality should be 1, got %f", s)
	}
}
