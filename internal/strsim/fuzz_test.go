package strsim

import (
	"math"
	"testing"

	"refrecon/internal/tokenizer"
)

// FuzzStrsim property-checks every similarity metric in the package: each
// must be symmetric, bounded in [0,1], free of NaN, and score equal inputs
// as 1. The optimized scratch-pooled implementations are additionally
// cross-checked against naive map/matrix references, so a buffer-reuse bug
// cannot silently change scores. Seed corpus in testdata/fuzz/FuzzStrsim/.

// metric names a comparator under test.
type metric struct {
	name string
	fn   func(a, b string) float64
}

func strsimMetrics() []metric {
	// A shared corpus gives the TF-IDF comparators non-trivial weights
	// while staying deterministic across fuzz iterations.
	c := NewCorpus()
	for _, doc := range []string{
		"reference reconciliation in complex information spaces",
		"fast algorithms for mining association rules",
		"a relational model of data for large shared data banks",
	} {
		c.Add(doc)
	}
	return []metric{
		{"Jaro", jaro},
		{"JaroWinkler", JaroWinkler},
		{"JaroWinklerP0.25", func(a, b string) float64 { return jaroWinklerP(a, b, 0.25) }},
		{"LevenshteinSim", levenshteinSim},
		{"DamerauSim", DamerauSim},
		{"SmithWaterman", smithWaterman},
		{"NeedlemanWunsch", needlemanWunsch},
		{"JaccardTokens", JaccardTokens},
		{"JaccardContentTokens", JaccardContentTokens},
		{"MongeElkan", func(a, b string) float64 { return MongeElkan(a, b, nil) }},
		{"CosineSim", c.CosineSim},
		{"EmptyCorpusCosine", NewCorpus().CosineSim},
	}
}

// naiveLevenshtein is the textbook full-matrix edit distance over raw runes.
func naiveLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	d := make([][]int, len(ra)+1)
	for i := range d {
		d[i] = make([]int, len(rb)+1)
		d[i][0] = i
	}
	for j := 0; j <= len(rb); j++ {
		d[0][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
		}
	}
	return d[len(ra)][len(rb)]
}

// naiveDamerau is the full-matrix optimal-string-alignment distance.
func naiveDamerau(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	w := len(rb) + 1
	d := make([]int, (len(ra)+1)*w) // d[i*w+j]: distance of ra[:i] and rb[:j]
	for i := 0; i <= len(ra); i++ {
		d[i*w] = i
	}
	for j := 0; j <= len(rb); j++ {
		d[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d[i*w+j] = min(d[(i-1)*w+j]+1, d[i*w+j-1]+1, d[(i-1)*w+j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := d[(i-2)*w+j-2] + 1; t < d[i*w+j] {
					d[i*w+j] = t
				}
			}
		}
	}
	return d[len(ra)*w+len(rb)]
}

// naiveJaccardTokens recomputes JaccardTokens with map-based sets.
func naiveJaccardTokens(a, b string) float64 {
	sa, sb := toSet(tokenizer.Words(a)), toSet(tokenizer.Words(b))
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

// naiveJaro recomputes Jaro with freshly allocated match flags, mirroring
// the scratch implementation's arithmetic exactly.
func naiveJaro(a, b string) float64 {
	ra := []rune(tokenizer.Normalize(a))
	rb := []rune(tokenizer.Normalize(b))
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	aM, bM := make([]bool, la), make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo, hi := max(0, i-window), min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if bM[j] || ra[i] != rb[j] {
				continue
			}
			aM[i], bM[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions, j := 0, 0
	for i := 0; i < la; i++ {
		if !aM[i] {
			continue
		}
		for !bM[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// naiveMongeElkan is the two-pass Monge-Elkan: each direction re-scores
// every token pair with JaroWinkler, and the directions are averaged.
func naiveMongeElkan(a, b string) float64 {
	ta, tb := tokenizer.Words(a), tokenizer.Words(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	dir := func(ta, tb []string) float64 {
		sum := 0.0
		for _, x := range ta {
			best := 0.0
			for _, y := range tb {
				if s := JaroWinkler(x, y); s > best {
					best = s
				}
			}
			sum += best
		}
		return sum / float64(len(ta))
	}
	return clamp01((dir(ta, tb) + dir(tb, ta)) / 2)
}

func FuzzStrsim(f *testing.F) {
	f.Add("", "")
	f.Add("stonebraker", "stonebroker")
	f.Add("Michael Stonebraker", "Stonebraker, M.")
	f.Add("Proc. of SIGMOD", "Proceedings of the ACM SIGMOD Conference")
	f.Add("the of and", "a an the") // stopwords only
	f.Add("日本語", "日本")
	f.Add("x", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	// Words output that a second normalization would change: the Angstrom
	// sign and capital sharp s lower-case into the fold table.
	f.Add("\u212bngstrom stra\u1e9ee", "angstrom strase")
	f.Fuzz(func(t *testing.T, a, b string) {
		// Very long adversarial inputs make the O(n*m) comparators slow
		// without exercising new code paths.
		if len(a) > 256 || len(b) > 256 {
			t.Skip()
		}
		for _, m := range strsimMetrics() {
			ab, ba := m.fn(a, b), m.fn(b, a)
			if math.IsNaN(ab) || ab < 0 || ab > 1 {
				t.Fatalf("%s(%q, %q) = %v out of [0,1]", m.name, a, b, ab)
			}
			if ab != ba {
				t.Fatalf("%s not symmetric: (%q,%q)=%v but (%q,%q)=%v", m.name, a, b, ab, b, a, ba)
			}
			if self := m.fn(a, a); self != 1 {
				t.Fatalf("%s(%q, %q) = %v, want 1 for equal inputs", m.name, a, a, self)
			}
		}

		// Optimized implementations vs naive references.
		if got, want := levenshtein(a, b), naiveLevenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, naive %d", a, b, got, want)
		}
		if got, want := damerau(a, b), naiveDamerau(a, b); got != want {
			t.Fatalf("DamerauLevenshtein(%q, %q) = %d, naive %d", a, b, got, want)
		}
		if got, want := JaccardTokens(a, b), naiveJaccardTokens(a, b); got != want {
			t.Fatalf("JaccardTokens(%q, %q) = %v, naive %v", a, b, got, want)
		}
		if got, want := jaro(a, b), naiveJaro(a, b); got != want {
			t.Fatalf("Jaro(%q, %q) = %v, naive %v", a, b, got, want)
		}
		// One pass over the token pairs, read in both directions, must be
		// the two-pass loop to the bit.
		want := math.Float64bits(naiveMongeElkan(a, b))
		if got := MongeElkan(a, b, nil); math.Float64bits(got) != want {
			t.Fatalf("MongeElkan(%q, %q) = %v, naive %v", a, b, got, naiveMongeElkan(a, b))
		}
		if got := MongeElkanTokens(tokenizer.Words(a), tokenizer.Words(b)); math.Float64bits(got) != want {
			t.Fatalf("MongeElkanTokens(%q, %q) = %v, naive %v", a, b, got, naiveMongeElkan(a, b))
		}

		// The token path skips normalization where it is the identity; on
		// Words output it must be the normalizing path to the bit.
		for _, x := range tokenizer.Words(a) {
			for _, y := range tokenizer.Words(b) {
				if got, want := JaroWinklerTokens(x, y), JaroWinkler(x, y); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("JaroWinklerTokens(%q, %q) = %v, JaroWinkler %v", x, y, got, want)
				}
			}
		}

		// Distance-family invariants.
		lev := levenshtein(a, b)
		dam := damerau(a, b)
		if dam > lev {
			t.Fatalf("Damerau %d exceeds Levenshtein %d for (%q, %q)", dam, lev, a, b)
		}
		if la, lb := len([]rune(a)), len([]rune(b)); lev > max(la, lb) {
			t.Fatalf("Levenshtein %d exceeds max length for (%q, %q)", lev, a, b)
		}
	})
}
