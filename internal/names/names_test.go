package names

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"refrecon/internal/strsim"
)

// Similarity is ParsedSimilarity over two raw name strings.
func Similarity(rawA, rawB string) float64 {
	a, b := Parse(rawA), Parse(rawB)
	return ParsedSimilarity(a, b)
}

func TestParseNaturalOrder(t *testing.T) {
	cases := []struct {
		in          string
		first, last string
		middle      []string
	}{
		{"Robert S. Epstein", "robert", "epstein", []string{"s"}},
		{"Michael Stonebraker", "michael", "stonebraker", nil},
		{"Eugene Wong", "eugene", "wong", nil},
		{"mike", "mike", "", nil},
		{"Vincent van Gogh", "vincent", "van gogh", nil},
		{"Hector Garcia-Molina", "hector", "garcia molina", nil},
		{"Jean-Pierre Serre", "jean pierre", "serre", nil},
		{"Ludwig von Beethoven", "ludwig", "von beethoven", nil},
		{"John Ronald Reuel Tolkien", "john", "tolkien", []string{"ronald", "reuel"}},
		{"", "", "", nil},
		{"  .,  ", "", "", nil},
	}
	for _, c := range cases {
		n := Parse(c.in)
		if n.First != c.first || n.Last != c.last {
			t.Errorf("Parse(%q) = first %q last %q, want %q/%q", c.in, n.First, n.Last, c.first, c.last)
		}
		if len(n.Middle) != len(c.middle) {
			t.Errorf("Parse(%q).Middle = %v, want %v", c.in, n.Middle, c.middle)
			continue
		}
		for i := range c.middle {
			if n.Middle[i] != c.middle[i] {
				t.Errorf("Parse(%q).Middle = %v, want %v", c.in, n.Middle, c.middle)
			}
		}
	}
}

func TestParseCommaOrder(t *testing.T) {
	cases := []struct {
		in          string
		first, last string
		nMiddle     int
	}{
		{"Epstein, R.S.", "r", "epstein", 1},
		{"Stonebraker, M.", "m", "stonebraker", 0},
		{"Wong, E.", "e", "wong", 0},
		{"van Gogh, Vincent", "vincent", "van gogh", 0},
		{"Garcia-Molina, H.", "h", "garcia molina", 0},
		{"Last,", "", "last", 0},
	}
	for _, c := range cases {
		n := Parse(c.in)
		if n.First != c.first || n.Last != c.last || len(n.Middle) != c.nMiddle {
			t.Errorf("Parse(%q) = %+v, want first=%q last=%q middle#%d", c.in, n, c.first, c.last, c.nMiddle)
		}
	}
}

func TestParseFusedInitials(t *testing.T) {
	n := Parse("Epstein, R.S.")
	if n.First != "r" || len(n.Middle) != 1 || n.Middle[0] != "s" {
		t.Errorf("fused initials not expanded: %+v", n)
	}
}

func TestSuffixDropped(t *testing.T) {
	n := Parse("Martin Luther King Jr.")
	if n.Last != "king" {
		t.Errorf("suffix not dropped: %+v", n)
	}
}

func TestIsFull(t *testing.T) {
	if !Parse("Michael Stonebraker").IsFull() {
		t.Error("full name not detected")
	}
	if Parse("Stonebraker, M.").IsFull() {
		t.Error("initial-only name wrongly full")
	}
	if Parse("mike").IsFull() {
		t.Error("single token wrongly full")
	}
}

func TestCompatible(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"Robert S. Epstein", "Epstein, R.S.", true},
		{"Michael Stonebraker", "Stonebraker, M.", true},
		{"Eugene Wong", "Wong, E.", true},
		{"Michael Stonebraker", "micheal stonebraker", true}, // typo
		{"Michael Stonebraker", "Matt Stonebraker", false},
		{"Michael Stonebraker", "Michael Carey", false},
		{"Eugene Wong", "Wong, J.", false},
		{"mike", "Michael Stonebraker", true}, // nickname prefix vs first
		{"", "Anyone", true},                  // empty is non-contradictory
	}
	for _, c := range cases {
		if got := Compatible(Parse(c.a), Parse(c.b)); got != c.want {
			t.Errorf("Compatible(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIncompatible(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"Matt Stonebraker", "Michael Stonebraker", true}, // same last, different first
		{"Michael Carey", "Michael Stonebraker", true},    // same first, different last
		{"Michael Stonebraker", "Stonebraker, M.", false}, // initial is not contradiction
		{"Michael Stonebraker", "Michael Stonebraker", false},
		{"mike", "Michael Stonebraker", false}, // nickname is compatible
		{"Matt", "Michael Stonebraker", true},  // §3.4's example
		{"Wong", "Eugene Wong", false},         // single token matches surname
		{"Jane Smith", "John Doe", false},      // everything differs -> not this constraint
	}
	for _, c := range cases {
		if got := Incompatible(Parse(c.a), Parse(c.b)); got != c.want {
			t.Errorf("Incompatible(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSimilarityOrdering(t *testing.T) {
	// Full agreement > abbreviated agreement > unrelated.
	full := Similarity("Michael Stonebraker", "Michael Stonebraker")
	abbrev := Similarity("Michael Stonebraker", "Stonebraker, M.")
	unrelated := Similarity("Michael Stonebraker", "Jennifer Widom")
	contradictory := Similarity("Michael Stonebraker", "Matt Stonebraker")
	if full != 1 {
		t.Errorf("exact = %f, want 1", full)
	}
	if !(abbrev > 0.7) {
		t.Errorf("abbrev = %f, want > 0.7", abbrev)
	}
	if !(abbrev < full) {
		t.Errorf("abbrev %f should be < full %f", abbrev, full)
	}
	if unrelated > 0.4 {
		t.Errorf("unrelated = %f, want <= 0.4", unrelated)
	}
	if contradictory > 0.1 {
		t.Errorf("contradictory = %f, want <= 0.1", contradictory)
	}
}

func TestSimilaritySymmetricBounded(t *testing.T) {
	f := func(a, b string) bool {
		s1, s2 := Similarity(a, b), Similarity(b, a)
		if s1 < 0 || s1 > 1 {
			return false
		}
		return abs(s1-s2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilarityReflexive(t *testing.T) {
	// Exact self-similarity is 1 except for bare given names, which are
	// deliberately non-identifying (0.78).
	f := func(a string) bool {
		s := Similarity(a, a)
		n := Parse(a)
		if n.Last == "" && len(n.Middle) == 0 && n.First != "" && !IsInitial(n.First) {
			return s == 0.78
		}
		return s == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBareGivenNameNotIdentifying(t *testing.T) {
	if s := Similarity("Angela", "Angela"); s != 0.78 {
		t.Errorf("bare given equality = %f, want 0.78", s)
	}
	if s := Similarity("mike", "Michael"); s != 0.78 {
		t.Errorf("nickname-formal bare pair = %f, want 0.78", s)
	}
	if s := Similarity("Angela", "Betty"); s > 0.4 {
		t.Errorf("different bare givens = %f, want low", s)
	}
	if s := Similarity("Angela Sanchez", "Angela Sanchez"); s != 1 {
		t.Errorf("full name equality = %f, want 1", s)
	}
}

func TestStringRoundTrip(t *testing.T) {
	n := Parse("Robert S. Epstein")
	if n.String() != "robert s epstein" {
		t.Errorf("String = %q", n.String())
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestParsedTokensMatchRetokenizing pins the parsed name's cached forms to
// what ParsedSimilarity used to recompute on every call: the Monge-Elkan
// score over the stored tokens equals the one that re-tokenises Raw, and
// the canonical string compare equals comparing String(), over every pair
// of this file's names and FuzzStrsim's seeds.
func TestParsedTokensMatchRetokenizing(t *testing.T) {
	corpus := []string{
		"Robert S. Epstein", "Michael Stonebraker", "Eugene Wong", "mike", "Vincent van Gogh",
		"Hector Garcia-Molina", "Jean-Pierre Serre", "Ludwig von Beethoven", "John Ronald Reuel Tolkien",
		"", "  .,  ", "Epstein, R.S.", "Stonebraker, M.", "Wong, E.", "van Gogh, Vincent",
		"Garcia-Molina, H.", "Last,", "Martin Luther King Jr.", "micheal stonebraker", "Matt Stonebraker",
		"Michael Carey", "Wong, J.", "Anyone", "Matt", "Wong", "Jane Smith", "John Doe", "Jennifer Widom",
		"Angela", "stonebraker", "stonebroker", "Proc. of SIGMOD", "Proceedings of the ACM SIGMOD Conference",
		"the of and", "a an the", "日本語", "日本", "x", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
		"Ångstrom straẞe", "angstrom strase",
	}
	seeds, err := filepath.Glob("../strsim/testdata/fuzz/FuzzStrsim/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzStrsim seed files: %v", err)
	}
	for _, f := range seeds {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				corpus = append(corpus, s)
			}
		}
	}
	parsed := make([]Name, len(corpus))
	for i, raw := range corpus {
		parsed[i] = Parse(raw)
	}
	for _, a := range parsed {
		for _, b := range parsed {
			if fast, slow := strsim.MongeElkanTokens(a.words, b.words), strsim.MongeElkan(a.Raw, b.Raw, nil); fast != slow {
				t.Errorf("Monge-Elkan(%q, %q) over stored tokens %v, re-tokenised %v", a.Raw, b.Raw, fast, slow)
			}
			if (a.canon == b.canon) != (a.String() == b.String()) {
				t.Errorf("canonical compare of %q and %q disagrees with String()", a.Raw, b.Raw)
			}
		}
	}
}
