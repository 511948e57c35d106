package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"refrecon/internal/extract"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func sample() *Dataset {
	s := reference.NewStore()
	p1 := reference.New(schema.ClassPerson)
	p1.Source = extract.SourceEmail
	p1.Entity = "P1"
	p1.AddAtomic(schema.AttrName, "Alice")
	p1.AddAtomic(schema.AttrEmail, "alice@x.edu")
	s.Add(p1)
	p2 := reference.New(schema.ClassPerson)
	p2.Source = extract.SourceBibTeX
	p2.Entity = "P1"
	p2.AddAtomic(schema.AttrName, "Alice Smith")
	s.Add(p2)
	p3 := reference.New(schema.ClassPerson)
	p3.Source = extract.SourceEmail
	p3.Entity = "P2"
	p3.AddAtomic(schema.AttrEmail, "bob@x.edu")
	s.Add(p3)
	p1.AddAssoc(schema.AttrEmailContact, p3.ID)
	p3.AddAssoc(schema.AttrEmailContact, p1.ID)
	p2.AddAssoc(schema.AttrCoAuthor, p1.ID) // link across sources

	a := reference.New(schema.ClassArticle)
	a.Entity = "A1"
	a.Source = extract.SourceBibTeX
	a.AddAtomic(schema.AttrTitle, "A title")
	a.AddAssoc(schema.AttrAuthoredBy, p2.ID)
	s.Add(a)
	return &Dataset{Name: "T", Store: s}
}

func TestEntityCount(t *testing.T) {
	d := sample()
	if got := d.EntityCount(schema.ClassPerson); got != 2 {
		t.Errorf("person entities = %d", got)
	}
	if got := d.EntityCount(schema.ClassArticle); got != 1 {
		t.Errorf("article entities = %d", got)
	}
}

func TestPEmailSubset(t *testing.T) {
	sub := sample().PEmail()
	if sub.Store.Len() != 2 {
		t.Fatalf("PEmail len = %d", sub.Store.Len())
	}
	for _, r := range sub.Store.All() {
		if r.Class != schema.ClassPerson || r.Source != extract.SourceEmail {
			t.Errorf("wrong ref in PEmail: %v", r)
		}
	}
	// Contact link between the two email persons must survive remapping.
	r0 := sub.Store.Get(0)
	if got := r0.Assoc(schema.AttrEmailContact); len(got) != 1 || got[0] != 1 {
		t.Errorf("remapped contacts = %v", got)
	}
	if !strings.Contains(sub.Name, "PEmail") {
		t.Errorf("subset name = %q", sub.Name)
	}
}

func TestPArticleSubset(t *testing.T) {
	sub := sample().PArticle()
	if sub.Store.Len() != 2 { // bibtex person + article
		t.Fatalf("PArticle len = %d", sub.Store.Len())
	}
	// The coAuthor link to the dropped email person must be removed.
	for _, r := range sub.Store.All() {
		if r.Class == schema.ClassPerson {
			if got := r.Assoc(schema.AttrCoAuthor); len(got) != 0 {
				t.Errorf("dangling link survived: %v", got)
			}
		}
		if r.Class == schema.ClassArticle {
			if got := r.Assoc(schema.AttrAuthoredBy); len(got) != 1 {
				t.Errorf("article lost its author: %v", got)
			}
		}
	}
	if err := sub.Store.Validate(schema.PIM()); err != nil {
		t.Errorf("subset invalid: %v", err)
	}
}

// TestJSONRoundTrip pins the dataset file form as lossless: every
// reference comes back with the same record, whatever its values hold.
func TestJSONRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Dataset)
	}{
		{"sample", func(*Dataset) {}},
		{"multi-valued", func(d *Dataset) {
			d.Store.Get(0).AddAtomic(schema.AttrEmail, "a@y.org")
			d.Store.Get(0).AddAtomic(schema.AttrName, "A. Smith")
		}},
		{"commas", func(d *Dataset) { d.Store.Get(0).AddAtomic(schema.AttrName, "Liddell, Alice") }},
		{"separator", func(d *Dataset) { d.Store.Get(3).AddAtomic(schema.AttrTitle, "Graphs | Networks") }},
		{"quote-newline", func(d *Dataset) { d.Store.Get(3).AddAtomic(schema.AttrTitle, "A \"quoted\"\ntitle") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := sample()
			tc.edit(d)
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if back.Name != d.Name || back.Store.Len() != d.Store.Len() {
				t.Fatalf("round trip mismatch: %s %d", back.Name, back.Store.Len())
			}
			for i := 0; i < d.Store.Len(); i++ {
				a := d.Store.Get(reference.ID(i)).Record()
				b := back.Store.Get(reference.ID(i)).Record()
				if !reflect.DeepEqual(a, b) {
					t.Errorf("ref %d: wrote %+v, read %+v", i, a, b)
				}
			}
			if err := back.Store.Validate(schema.PIM()); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"name":"x","references":[{"id":5,"class":"Person"}]}`)); err == nil {
		t.Error("non-dense ids should fail")
	}
}
