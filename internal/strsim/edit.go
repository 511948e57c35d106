// Package strsim implements the string similarity measures used as the
// elementary evidence in reference reconciliation: edit-distance families
// (Levenshtein, Damerau), the Jaro and Jaro-Winkler measures popular in
// record linkage, token-set measures (Jaccard, Dice, overlap), character
// n-gram similarity, TF-IDF weighted cosine, and the Monge-Elkan hybrid.
//
// Every exported similarity function returns a score in [0, 1], is
// symmetric in its arguments, and returns 1 for equal inputs. Scores are
// computed over normalized forms (see package tokenizer), so callers may
// pass raw strings.
//
// The comparators are allocation-free in steady state: rune conversions
// and dynamic-programming rows live in pooled scratch buffers (see
// scratch.go), a property the alloc regression tests enforce.
package strsim

import (
	"refrecon/internal/tokenizer"
)

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-rune insertions, deletions, and substitutions required to
// transform one into the other. The computation is case-sensitive and
// operates on the raw rune sequences; use LevenshteinSim for a normalized
// similarity.
func Levenshtein(a, b string) int {
	sc := getScratch()
	sc.ra = appendRunes(sc.ra[:0], a)
	sc.rb = appendRunes(sc.rb[:0], b)
	d := levenshteinScratch(sc, sc.ra, sc.rb)
	putScratch(sc)
	return d
}

func levenshteinScratch(sc *scratch, ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Keep the shorter string in rb to bound the row width.
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	prev := intRow(&sc.row0, len(rb)+1)
	cur := intRow(&sc.row1, len(rb)+1)
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

// DamerauLevenshtein returns the edit distance allowing adjacent-rune
// transpositions in addition to insert/delete/substitute (the "optimal
// string alignment" variant). Transpositions are the dominant typo class in
// person names, so this distance is preferred for name comparison.
func DamerauLevenshtein(a, b string) int {
	sc := getScratch()
	sc.ra = appendRunes(sc.ra[:0], a)
	sc.rb = appendRunes(sc.rb[:0], b)
	d := damerauScratch(sc, sc.ra, sc.rb)
	putScratch(sc)
	return d
}

func damerauScratch(sc *scratch, ra, rb []rune) int {
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Three rolling rows: i-2, i-1, i.
	prev2 := intRow(&sc.row0, lb+1)
	prev := intRow(&sc.row1, lb+1)
	cur := intRow(&sc.row2, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < cur[j] {
					cur[j] = t
				}
			}
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// LevenshteinSim converts edit distance into a similarity in [0, 1]:
// 1 - dist/max(len). Inputs are normalized first. Two empty strings are
// considered identical (similarity 1).
func LevenshteinSim(a, b string) float64 {
	sc := getScratch()
	sc.ra = tokenizer.AppendNormalizedRunes(sc.ra[:0], a)
	sc.rb = tokenizer.AppendNormalizedRunes(sc.rb[:0], b)
	s := editSim(levenshteinScratch(sc, sc.ra, sc.rb), len(sc.ra), len(sc.rb))
	putScratch(sc)
	return s
}

// DamerauSim is LevenshteinSim using the Damerau-Levenshtein distance.
func DamerauSim(a, b string) float64 {
	sc := getScratch()
	sc.ra = tokenizer.AppendNormalizedRunes(sc.ra[:0], a)
	sc.rb = tokenizer.AppendNormalizedRunes(sc.rb[:0], b)
	s := editSim(damerauScratch(sc, sc.ra, sc.rb), len(sc.ra), len(sc.rb))
	putScratch(sc)
	return s
}

func editSim(dist, la, lb int) float64 {
	if la == 0 && lb == 0 {
		return 1
	}
	return 1 - float64(dist)/float64(max(la, lb))
}
