package strsim

import (
	"testing"
	"testing/quick"
)

func TestSmithWaterman(t *testing.T) {
	if s := SmithWaterman("", ""); s != 1 {
		t.Errorf("empty/empty = %f", s)
	}
	if s := SmithWaterman("abc", ""); s != 0 {
		t.Errorf("one empty = %f", s)
	}
	if s := SmithWaterman("stanford", "stanford"); s != 1 {
		t.Errorf("identical = %f", s)
	}
	// Local alignment: embedded substring scores highly.
	embedded := SmithWaterman("stanford", "dept of computer science stanford university")
	if embedded != 1 {
		t.Errorf("embedded exact substring = %f, want 1", embedded)
	}
	far := SmithWaterman("stanford", "qqqqqqqq")
	if far > 0.3 {
		t.Errorf("unrelated = %f", far)
	}
}

func TestSmithWatermanBoundedSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		s := SmithWaterman(a, b)
		return s >= 0 && s <= 1 && approx(s, SmithWaterman(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNeedlemanWunsch(t *testing.T) {
	if s := NeedlemanWunsch("", ""); s != 1 {
		t.Errorf("empty/empty = %f", s)
	}
	if s := NeedlemanWunsch("abcd", "abcd"); s != 1 {
		t.Errorf("identical = %f", s)
	}
	// One substitution in four characters: score 3*1 + 1*(-1) = 2;
	// rescaled (2+4)/8 = 0.75.
	if s := NeedlemanWunsch("abcd", "abxd"); !approx(s, 0.75) {
		t.Errorf("one substitution = %f, want 0.75", s)
	}
	// Global alignment punishes embedding, unlike Smith-Waterman.
	sw := SmithWaterman("stanford", "dept of computer science stanford university")
	nw := NeedlemanWunsch("stanford", "dept of computer science stanford university")
	if !(nw < sw) {
		t.Errorf("NW %f should be below SW %f for embedded strings", nw, sw)
	}
}

func TestNeedlemanWunschBoundedSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		s := NeedlemanWunsch(a, b)
		return s >= 0 && s <= 1 && approx(s, NeedlemanWunsch(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
