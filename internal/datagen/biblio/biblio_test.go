package biblio

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
		fmt.Fprintf(&b, "%d|%s|%s", r.ID, r.Class, r.Entity)
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
	a, err := Generate(Default(600, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Default(600, 7))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a.Store) != fingerprint(b.Store) {
		t.Fatal("same profile produced different corpora")
	}
	c, err := Generate(Default(600, 8))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a.Store) == fingerprint(c.Store) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestGenerateTargetAndValidity(t *testing.T) {
	g, err := Generate(Default(1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	// A citation record adds at most 1 article + 3 authors + 1 venue, so
	// the realized count overshoots the target by less than one record.
	if n := g.Store.Len(); n < 1000 || n > 1005 {
		t.Fatalf("got %d refs, want 1000..1005", n)
	}
	if err := g.Store.Validate(schema.PIM(), 0); err != nil {
		t.Fatalf("generated corpus violates PIM schema: %v", err)
	}
	classes := make(map[string]int)
	for _, r := range g.Store.All() {
		if r.Entity == "" {
			t.Fatalf("reference %d has no gold label", r.ID)
		}
		classes[r.Class]++
	}
	for _, c := range []string{schema.ClassArticle, schema.ClassPerson, schema.ClassVenue} {
		if classes[c] == 0 {
			t.Fatalf("no %s references generated", c)
		}
	}
	if g.Citations < 100 {
		t.Fatalf("implausibly few citations: %d", g.Citations)
	}
}

func TestNoiseActuallyVaries(t *testing.T) {
	g, err := Generate(Default(2000, 11))
	if err != nil {
		t.Fatal(err)
	}
	// Group person renderings by gold entity; a noisy corpus must present
	// at least some authors under more than one spelling.
	spellings := make(map[string]map[string]bool)
	for _, r := range g.Store.All() {
		if r.Class != schema.ClassPerson {
			continue
		}
		m := spellings[r.Entity]
		if m == nil {
			m = make(map[string]bool)
			spellings[r.Entity] = m
		}
		for _, v := range r.Atomic(schema.AttrName) {
			m[v] = true
		}
	}
	varied := 0
	for _, m := range spellings {
		if len(m) > 1 {
			varied++
		}
	}
	if varied == 0 {
		t.Fatal("no author appears under multiple spellings; noise model inert")
	}
}
