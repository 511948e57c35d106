package strsim

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"refrecon/internal/tokenizer"
)

// The package's edit-distance and Jaro cores are reached here through the
// test helpers below; only their similarity forms are exported.

// levenshtein is the edit distance over raw runes (insertions, deletions
// and substitutions only): the bound Damerau must never exceed.
func levenshtein(a, b string) int {
	sc := getScratch()
	sc.ra = appendRunes(sc.ra[:0], a)
	sc.rb = appendRunes(sc.rb[:0], b)
	d := levenshteinScratch(sc, sc.ra, sc.rb)
	putScratch(sc)
	return d
}

// levenshteinSim is levenshtein as a similarity of the normalized inputs.
func levenshteinSim(a, b string) float64 {
	sc := getScratch()
	sc.ra = tokenizer.AppendNormalizedRunes(sc.ra[:0], a)
	sc.rb = tokenizer.AppendNormalizedRunes(sc.rb[:0], b)
	s := editSim(levenshteinScratch(sc, sc.ra, sc.rb), len(sc.ra), len(sc.rb))
	putScratch(sc)
	return s
}

// dpRows are the DP rows of the test-only edit and alignment cores,
// pooled so that their alloc tests hold them at zero.
type dpRows struct{ row0, row1 []int }

var dpPool = sync.Pool{New: func() any { return new(dpRows) }}

// intRow returns *buf resized to n entries without zeroing (callers
// initialize the row themselves); the backing array grows monotonically
// and is reused across calls.
func intRow(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// levenshteinScratch is the two-row Levenshtein DP on pooled rows.
func levenshteinScratch(sc *scratch, ra, rb []rune) int {
	dp := dpPool.Get().(*dpRows)
	defer dpPool.Put(dp)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	prev := intRow(&dp.row0, len(rb)+1)
	cur := intRow(&dp.row1, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// appendRunes appends the raw runes of s to dst.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// damerau is the bit-parallel Damerau kernel over raw runes.
func damerau(a, b string) int {
	sc := getScratch()
	sc.ra = appendRunes(sc.ra[:0], a)
	sc.rb = appendRunes(sc.rb[:0], b)
	d := damerauScratch(sc, sc.ra, sc.rb)
	putScratch(sc)
	return d
}

// jaro is the Jaro similarity of the normalized inputs, without Winkler's
// prefix boost.
func jaro(a, b string) float64 {
	sc := getScratch()
	sc.ra = tokenizer.AppendNormalizedRunes(sc.ra[:0], a)
	sc.rb = tokenizer.AppendNormalizedRunes(sc.rb[:0], b)
	s := jaroScratch(sc, sc.ra, sc.rb)
	putScratch(sc)
	return s
}

// TestDamerauKernelExact checks the bit-parallel kernel against the full
// DP matrix on 200k deterministic random pairs: lengths 0-200 runes, with
// the block edges 63/64/65 and 127/128/129 drawn often and half the pairs
// a typo'd copy, so both strings span the same blocks; alphabets of two
// or three letters, so matches, runs and transpositions are dense; and
// alphabets mixing in non-ASCII runes, which take the match table's slow
// lookup. The pooled scratch is shared by every call, as in production.
func TestDamerauKernelExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alphabets := [][]rune{
		[]rune("ab"), []rune("abc"), []rune("aé"), []rune("a日é"),
		[]rune("abcdefghijklmnopqrstuvwxyz "), []rune("xyzß本ÅΩ"),
	}
	edges := []int{0, 1, 2, 63, 64, 65, 127, 128, 129}
	// Short strings dominate, as in the data, and keep the naive DP cheap.
	length := func() int {
		if rng.Intn(8) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Intn(rng.Intn(rng.Intn(201)+1) + 1)
	}
	str := func(alpha []rune, n int) string {
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(rs)
	}
	pairs := 200000
	if testing.Short() {
		pairs = 20000
	}
	for i := 0; i < pairs; i++ {
		alpha := alphabets[rng.Intn(len(alphabets))]
		a := str(alpha, length())
		var b string
		if rng.Intn(2) == 0 {
			b = str(alpha, length())
		} else {
			// A typo'd copy: adjacent swaps, substitutions and indels.
			rs := []rune(a)
			for k := rng.Intn(6); k > 0 && len(rs) > 1; k-- {
				j := rng.Intn(len(rs) - 1)
				switch rng.Intn(4) {
				case 0:
					rs[j], rs[j+1] = rs[j+1], rs[j]
				case 1:
					rs[j] = alpha[rng.Intn(len(alpha))]
				case 2:
					rs = append(rs[:j], rs[j+1:]...)
				default:
					rs = append(rs[:j], append([]rune{alpha[rng.Intn(len(alpha))]}, rs[j:]...)...)
				}
			}
			b = string(rs)
		}
		if got, want := damerau(a, b), naiveDamerau(a, b); got != want {
			t.Fatalf("damerau(%q, %q) = %d, naive %d", a, b, got, want)
		}
	}
}

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
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	f := func(a, b string) bool { return levenshtein(a, b) == levenshtein(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	f := func(a, b, c string) bool {
		return levenshtein(a, c) <= levenshtein(a, b)+levenshtein(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinIdentity(t *testing.T) {
	f := func(a string) bool { return levenshtein(a, a) == 0 }
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
		if got := damerau(c.a, c.b); got != c.want {
			t.Errorf("DamerauLevenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauNeverWorseThanLevenshtein(t *testing.T) {
	f := func(a, b string) bool { return damerau(a, b) <= levenshtein(a, b) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSim(t *testing.T) {
	if s := levenshteinSim("", ""); s != 1 {
		t.Errorf("empty strings should have sim 1, got %f", s)
	}
	if s := levenshteinSim("abc", "abc"); s != 1 {
		t.Errorf("identical should be 1, got %f", s)
	}
	if s := levenshteinSim("abc", "xyz"); s != 0 {
		t.Errorf("disjoint equal-length should be 0, got %f", s)
	}
	// Case should not matter.
	if s := levenshteinSim("ABC", "abc"); s != 1 {
		t.Errorf("case-insensitive equality should be 1, got %f", s)
	}
}
