package cora

import (
	"testing"

	"refrecon/internal/schema"
)

func TestGenerateValidates(t *testing.T) {
	g, err := Generate(Default(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Store.Validate(schema.Cora(), 0); err != nil {
		// Cora schema omits year on Article; the extractor emits a PIM
		// store, so validate against PIM instead.
		if err2 := g.Store.Validate(schema.PIM(), 0); err2 != nil {
			t.Fatalf("store invalid under PIM schema too: %v", err2)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	g, err := Generate(Default(1.0))
	if err != nil {
		t.Fatal(err)
	}
	store := g.Store
	articles := len(store.ByClass(schema.ClassArticle))
	persons := len(store.ByClass(schema.ClassPerson))
	venues := len(store.ByClass(schema.ClassVenue))
	if articles != 1295 {
		t.Errorf("articles = %d, want 1295 citations", articles)
	}
	// Total references should land near Table 1's 6107.
	total := store.Len()
	if total < 4500 || total > 8000 {
		t.Errorf("total refs = %d, want ~6107", total)
	}
	// Article entities: every generated paper should be cited at least
	// once at full scale (skewed weights, 1295 draws over 112 papers make
	// missing a paper unlikely but possible; accept >= 100).
	ents := make(map[string]bool)
	for _, id := range store.ByClass(schema.ClassArticle) {
		ents[store.Get(id).Entity] = true
	}
	if len(ents) < 100 || len(ents) > 112 {
		t.Errorf("article entities = %d, want ~112", len(ents))
	}
	// Citation skew: the most cited paper should dominate.
	counts := make(map[string]int)
	for _, id := range store.ByClass(schema.ClassArticle) {
		counts[store.Get(id).Entity]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 40 {
		t.Errorf("most-cited paper has %d citations, want >= 40 (skewed)", max)
	}
	if persons == 0 || venues == 0 {
		t.Errorf("persons=%d venues=%d", persons, venues)
	}
	// All references labeled.
	for _, r := range store.All() {
		if r.Entity == "" {
			t.Fatalf("unlabeled: %v", r)
		}
	}
}

func TestGenerateFreeText(t *testing.T) {
	p := Default(0.5)
	p.FreeText = true
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Store.Validate(schema.PIM(), 0); err != nil {
		t.Fatal(err)
	}
	articles := len(g.Store.ByClass(schema.ClassArticle))
	want := p.scaled(p.Citations)
	// The heuristic parser may drop a few hopeless strings, but must
	// extract the overwhelming majority.
	if articles < want*9/10 {
		t.Errorf("extracted %d of %d citations", articles, want)
	}
	// Most person references carry gold labels; a small unlabeled tail
	// from author mis-splits is expected extraction noise.
	labeled, total := 0, 0
	for _, id := range g.Store.ByClass(schema.ClassPerson) {
		total++
		if g.Store.Get(id).Entity != "" {
			labeled++
		}
	}
	if total == 0 || labeled < total*85/100 {
		t.Errorf("labeled %d of %d persons", labeled, total)
	}
	// Venues must be present with edition labels.
	venues := len(g.Store.ByClass(schema.ClassVenue))
	if venues < articles/2 {
		t.Errorf("venues = %d for %d articles", venues, articles)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, _ := Generate(Default(0.1))
	g2, _ := Generate(Default(0.1))
	if g1.Store.Len() != g2.Store.Len() {
		t.Fatalf("nondeterministic: %d vs %d", g1.Store.Len(), g2.Store.Len())
	}
	for i := range g1.Store.All() {
		if g1.Store.All()[i].String() != g2.Store.All()[i].String() {
			t.Fatalf("reference %d differs", i)
		}
	}
}

func TestWrongVenuesExist(t *testing.T) {
	g, err := Generate(Default(1.0))
	if err != nil {
		t.Fatal(err)
	}
	// Some pairs of citations of the same paper must name different venue
	// entities (the Cora noise §5.4 discusses).
	venueOf := make(map[string]map[string]bool)
	for _, id := range g.Store.ByClass(schema.ClassArticle) {
		art := g.Store.Get(id)
		for _, vid := range art.Assoc(schema.AttrPublishedIn) {
			v := g.Store.Get(vid)
			if venueOf[art.Entity] == nil {
				venueOf[art.Entity] = make(map[string]bool)
			}
			venueOf[art.Entity][v.Entity] = true
		}
	}
	multi := 0
	for _, vs := range venueOf {
		if len(vs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("expected some papers with citations naming different venues")
	}
}
