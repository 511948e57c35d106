package strsim

import (
	"testing"
	"testing/quick"

	"refrecon/internal/tokenizer"
)

// The alignment similarities have no caller outside this package's tests;
// they live here, on pooled scratch like the exported comparators.

// smithWaterman returns the local-alignment similarity of the normalized
// forms of a and b, in [0,1]: the best-scoring contiguous alignment
// (match +2, mismatch -1, gap -1) divided by the maximum possible score
// (2 x the shorter length). Local alignment excels when one string embeds
// a distorted copy of the other ("Dept. of Computer Science, Stanford"
// vs "Stanford Computer Science Department").
func smithWaterman(a, b string) float64 {
	sc, dp := getScratch(), dpPool.Get().(*dpRows)
	defer putScratch(sc)
	defer dpPool.Put(dp)
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
	prev := intRow(&dp.row0, len(rb)+1)
	cur := intRow(&dp.row1, len(rb)+1)
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

// needlemanWunsch returns the global-alignment similarity of the
// normalized forms of a and b, in [0,1]: the optimal end-to-end alignment
// score (match +1, mismatch -1, gap -1) rescaled from [-maxLen, maxLen].
// Unlike Levenshtein it rewards matches rather than only counting errors.
func needlemanWunsch(a, b string) float64 {
	sc, dp := getScratch(), dpPool.Get().(*dpRows)
	defer putScratch(sc)
	defer dpPool.Put(dp)
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
	prev := intRow(&dp.row0, len(rb)+1)
	cur := intRow(&dp.row1, len(rb)+1)
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

func TestSmithWaterman(t *testing.T) {
	if s := smithWaterman("", ""); s != 1 {
		t.Errorf("empty/empty = %f", s)
	}
	if s := smithWaterman("abc", ""); s != 0 {
		t.Errorf("one empty = %f", s)
	}
	if s := smithWaterman("stanford", "stanford"); s != 1 {
		t.Errorf("identical = %f", s)
	}
	// Local alignment: embedded substring scores highly.
	embedded := smithWaterman("stanford", "dept of computer science stanford university")
	if embedded != 1 {
		t.Errorf("embedded exact substring = %f, want 1", embedded)
	}
	far := smithWaterman("stanford", "qqqqqqqq")
	if far > 0.3 {
		t.Errorf("unrelated = %f", far)
	}
}

func TestSmithWatermanBoundedSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		s := smithWaterman(a, b)
		return s >= 0 && s <= 1 && approx(s, smithWaterman(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNeedlemanWunsch(t *testing.T) {
	if s := needlemanWunsch("", ""); s != 1 {
		t.Errorf("empty/empty = %f", s)
	}
	if s := needlemanWunsch("abcd", "abcd"); s != 1 {
		t.Errorf("identical = %f", s)
	}
	// One substitution in four characters: score 3*1 + 1*(-1) = 2;
	// rescaled (2+4)/8 = 0.75.
	if s := needlemanWunsch("abcd", "abxd"); !approx(s, 0.75) {
		t.Errorf("one substitution = %f, want 0.75", s)
	}
	// Global alignment punishes embedding, unlike Smith-Waterman.
	sw := smithWaterman("stanford", "dept of computer science stanford university")
	nw := needlemanWunsch("stanford", "dept of computer science stanford university")
	if !(nw < sw) {
		t.Errorf("NW %f should be below SW %f for embedded strings", nw, sw)
	}
}

func TestNeedlemanWunschBoundedSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		s := needlemanWunsch(a, b)
		return s >= 0 && s <= 1 && approx(s, needlemanWunsch(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
