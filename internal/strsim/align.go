package strsim

import (
	"refrecon/internal/tokenizer"
)

// SmithWaterman returns the local-alignment similarity of the normalized
// forms of a and b, in [0,1]: the best-scoring contiguous alignment
// (match +2, mismatch -1, gap -1) divided by the maximum possible score
// (2 x the shorter length). Local alignment excels when one string embeds
// a distorted copy of the other ("Dept. of Computer Science, Stanford"
// vs "Stanford Computer Science Department").
func SmithWaterman(a, b string) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.ra = tokenizer.AppendNormalizedRunes(sc.ra[:0], a)
	sc.rb = tokenizer.AppendNormalizedRunes(sc.rb[:0], b)
	ra, rb := sc.ra, sc.rb
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	const (
		match    = 2
		mismatch = -1
		gap      = -1
	)
	prev := intRow(&sc.row0, len(rb)+1)
	cur := intRow(&sc.row1, len(rb)+1)
	for j := range prev {
		prev[j] = 0
	}
	for j := range cur {
		cur[j] = 0
	}
	best := 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			sub := mismatch
			if ra[i-1] == rb[j-1] {
				sub = match
			}
			v := prev[j-1] + sub
			if x := prev[j] + gap; x > v {
				v = x
			}
			if x := cur[j-1] + gap; x > v {
				v = x
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	short := len(ra)
	if len(rb) < short {
		short = len(rb)
	}
	return float64(best) / float64(match*short)
}

// NeedlemanWunsch returns the global-alignment similarity of the
// normalized forms of a and b, in [0,1]: the optimal end-to-end alignment
// score (match +1, mismatch -1, gap -1) rescaled from [-maxLen, maxLen].
// Unlike Levenshtein it rewards matches rather than only counting errors.
func NeedlemanWunsch(a, b string) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.ra = tokenizer.AppendNormalizedRunes(sc.ra[:0], a)
	sc.rb = tokenizer.AppendNormalizedRunes(sc.rb[:0], b)
	ra, rb := sc.ra, sc.rb
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	const (
		match    = 1
		mismatch = -1
		gap      = -1
	)
	prev := intRow(&sc.row0, len(rb)+1)
	cur := intRow(&sc.row1, len(rb)+1)
	for j := range prev {
		prev[j] = j * gap
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i * gap
		for j := 1; j <= len(rb); j++ {
			sub := mismatch
			if ra[i-1] == rb[j-1] {
				sub = match
			}
			v := prev[j-1] + sub
			if x := prev[j] + gap; x > v {
				v = x
			}
			if x := cur[j-1] + gap; x > v {
				v = x
			}
			cur[j] = v
		}
		prev, cur = cur, prev
	}
	score := prev[len(rb)]
	maxLen := len(ra)
	if len(rb) > maxLen {
		maxLen = len(rb)
	}
	return (float64(score) + float64(maxLen)) / (2 * float64(maxLen))
}
