package extract

import (
	"reflect"
	"testing"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func TestParseCitationClassic(t *testing.T) {
	c, ok := ParseCitation("R. Agrawal and R. Srikant. Fast algorithms for mining association rules. In Proc. VLDB, Santiago, 1994, pp. 487-499.")
	if !ok {
		t.Fatal("parse failed")
	}
	if !reflect.DeepEqual(c.Authors, []string{"R. Agrawal", "R. Srikant"}) {
		t.Errorf("authors = %v", c.Authors)
	}
	if c.Title != "Fast algorithms for mining association rules" {
		t.Errorf("title = %q", c.Title)
	}
	if c.Year != "1994" {
		t.Errorf("year = %q", c.Year)
	}
	if c.Pages != "487-499" {
		t.Errorf("pages = %q", c.Pages)
	}
	if c.Venue == "" || c.Venue[:4] != "Proc" {
		t.Errorf("venue = %q", c.Venue)
	}
}

func TestParseCitationCommaAuthors(t *testing.T) {
	c, ok := ParseCitation("Dong, X., Halevy, A. and Madhavan, J. Reference reconciliation in complex information spaces. In Proceedings of SIGMOD, 2005.")
	if !ok {
		t.Fatal("parse failed")
	}
	want := []string{"Dong, X.", "Halevy, A.", "Madhavan, J."}
	if !reflect.DeepEqual(c.Authors, want) {
		t.Errorf("authors = %v, want %v", c.Authors, want)
	}
	if c.Title != "Reference reconciliation in complex information spaces" {
		t.Errorf("title = %q", c.Title)
	}
	if c.Year != "2005" {
		t.Errorf("year = %q", c.Year)
	}
}

func TestParseCitationNoAuthors(t *testing.T) {
	// A title-first string (no author-shaped lead segment).
	c, ok := ParseCitation("The art of computer programming. Addison-Wesley, 1968.")
	if !ok {
		t.Fatal("parse failed")
	}
	if len(c.Authors) != 0 {
		t.Errorf("authors = %v, want none", c.Authors)
	}
	if c.Title != "The art of computer programming" {
		t.Errorf("title = %q", c.Title)
	}
}

func TestParseCitationRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "   ", "single segment without periods"} {
		if _, ok := ParseCitation(s); ok {
			t.Errorf("ParseCitation(%q) should fail", s)
		}
	}
}

func TestAddCitation(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	c, ok := ParseCitation("Y. Freund and R. E. Schapire. Experiments with a new boosting algorithm. In Proc. ICML, 1996, pp. 148-156.")
	if !ok {
		t.Fatal("parse failed")
	}
	refs, added := acc.AddCitation(c)
	if !added {
		t.Fatal("AddCitation rejected a titled citation")
	}
	if len(refs.Authors) != 2 || refs.Venue < 0 {
		t.Fatalf("refs = %+v", refs)
	}
	art := store.Get(refs.Article)
	if art.Source != SourceCitation || art.FirstAtomic(schema.AttrPages) != "148-156" {
		t.Errorf("article = %v src=%s", art, art.Source)
	}
	if got := store.Get(refs.Authors[0]).Assoc(schema.AttrCoAuthor); len(got) != 1 {
		t.Errorf("coauthors = %v", got)
	}
	if err := store.Validate(schema.PIM(), 0); err != nil {
		t.Errorf("store invalid: %v", err)
	}

	if _, added := acc.AddCitation(Citation{}); added {
		t.Error("titleless citation should be rejected")
	}
}

// TestCitationRoundTripReconciles parses two citation variants of one
// paper and checks the full pipeline reconciles them.
func TestCitationRoundTripReconciles(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	c1, ok1 := ParseCitation("Y. Freund and R. E. Schapire. Experiments with a new boosting algorithm. In Proc. ICML, 1996, pp. 148-156.")
	c2, ok2 := ParseCitation("Freund, Y. and Schapire, R. Experiments with a new boosting algorithm. Machine Learning Conference, 1996.")
	if !ok1 || !ok2 {
		t.Fatal("parse failed")
	}
	r1, _ := acc.AddCitation(c1)
	r2, _ := acc.AddCitation(c2)
	if r1.Article == r2.Article {
		t.Fatal("distinct mentions must be distinct references")
	}
	// Same title and year: the articles should reconcile downstream; here
	// we only validate the extraction structure feeds the reconciler.
	if err := store.Validate(schema.PIM(), 0); err != nil {
		t.Fatal(err)
	}
}
