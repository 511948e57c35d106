package catalog

import (
	"fmt"
	"strings"
	"testing"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func fingerprint(s *reference.Store) string {
	var b strings.Builder
	for _, r := range s.All() {
		fmt.Fprintf(&b, "%d|%s|%s|%s", r.ID, r.Class, r.Source, r.Entity)
		for _, a := range r.AtomicAttrs() {
			fmt.Fprintf(&b, "|%s=%v", a, r.Atomic(a))
		}
		for _, a := range r.AssocAttrs() {
			fmt.Fprintf(&b, "|%s->%v", a, r.Assoc(a))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Default(500, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Default(500, 5))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a.Store) != fingerprint(b.Store) {
		t.Fatal("same profile produced different corpora")
	}
	c, err := Generate(Default(500, 6))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a.Store) == fingerprint(c.Store) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestGenerateTargetAndValidity(t *testing.T) {
	g, err := Generate(Default(800, 2))
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Store.Len(); n < 800 || n > 802 {
		t.Fatalf("got %d refs, want 800..802", n)
	}
	if err := g.Store.Validate(schema.Catalog(), 0); err != nil {
		t.Fatalf("generated corpus violates Catalog schema: %v", err)
	}
	for _, r := range g.Store.All() {
		if r.Entity == "" {
			t.Fatalf("reference %d has no gold label", r.ID)
		}
	}
	if len(g.Store.ByClass(schema.ClassProduct)) == 0 || len(g.Store.ByClass(schema.ClassManufacturer)) == 0 {
		t.Fatal("missing a class")
	}
}

func TestDuplicatesAcrossStorefronts(t *testing.T) {
	g, err := Generate(Default(1200, 9))
	if err != nil {
		t.Fatal(err)
	}
	// The same product entity must appear from multiple storefronts, and
	// with varied renderings.
	bySources := make(map[string]map[string]bool)
	titles := make(map[string]map[string]bool)
	for _, id := range g.Store.ByClass(schema.ClassProduct) {
		r := g.Store.Get(id)
		if bySources[r.Entity] == nil {
			bySources[r.Entity] = make(map[string]bool)
			titles[r.Entity] = make(map[string]bool)
		}
		bySources[r.Entity][r.Source] = true
		titles[r.Entity][r.FirstAtomic(schema.AttrTitle)] = true
	}
	dup, varied := 0, 0
	for e, srcs := range bySources {
		if len(srcs) > 1 {
			dup++
		}
		if len(titles[e]) > 1 {
			varied++
		}
	}
	if dup == 0 {
		t.Fatal("no product listed by more than one storefront")
	}
	if varied == 0 {
		t.Fatal("no product rendered under more than one title")
	}
}
