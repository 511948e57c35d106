package schema

import (
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	// Duplicate class names.
	_, err := New(&Class{Name: "A"}, &Class{Name: "A"})
	if err == nil || !strings.Contains(err.Error(), "duplicate class") {
		t.Errorf("want duplicate-class error, got %v", err)
	}
	// Empty class name.
	if _, err := New(&Class{}); err == nil {
		t.Error("want empty-name error")
	}
	// Unknown association target.
	_, err = New(&Class{Name: "A", Attrs: []Attribute{{Name: "x", Kind: Association, Target: "Nope"}}})
	if err == nil || !strings.Contains(err.Error(), "unknown class") {
		t.Errorf("want unknown-target error, got %v", err)
	}
	// Duplicate attribute.
	_, err = New(&Class{Name: "A", Attrs: []Attribute{{Name: "x"}, {Name: "x"}}})
	if err == nil || !strings.Contains(err.Error(), "duplicate attribute") {
		t.Errorf("want duplicate-attribute error, got %v", err)
	}
	// Empty attribute name.
	if _, err := New(&Class{Name: "A", Attrs: []Attribute{{}}}); err == nil {
		t.Error("want empty-attribute error")
	}
	// Valid self-referencing schema.
	s, err := New(&Class{Name: "P", Attrs: []Attribute{{Name: "friend", Kind: Association, Target: "P"}}})
	if err != nil || s == nil {
		t.Errorf("self-reference should validate: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid schema")
		}
	}()
	MustNew(&Class{Name: "A"}, &Class{Name: "A"})
}

func TestPIMSchema(t *testing.T) {
	s := PIM()
	person, ok := s.Class(ClassPerson)
	if !ok {
		t.Fatal("no Person class")
	}
	if got := len(person.AtomicAttrs()); got != 2 {
		t.Errorf("Person atomic attrs = %d, want 2", got)
	}
	if got := len(person.AssocAttrs()); got != 2 {
		t.Errorf("Person assoc attrs = %d, want 2", got)
	}
	co, ok := person.Attr(AttrCoAuthor)
	if !ok || co.Kind != Association || co.Target != ClassPerson {
		t.Errorf("coAuthor attr wrong: %+v ok=%v", co, ok)
	}
	article, _ := s.Class(ClassArticle)
	if article.Rank <= person.Rank {
		t.Error("Article must rank after Person for computation ordering")
	}
	if _, ok := s.Class(ClassVenue); !ok {
		t.Error("no Venue class")
	}
}

func TestCoraSchema(t *testing.T) {
	s := Cora()
	person, _ := s.Class(ClassPerson)
	if _, ok := person.Attr(AttrEmail); ok {
		t.Error("Cora Person should not have email")
	}
	article, _ := s.Class(ClassArticle)
	if _, ok := article.Attr(AttrYear); ok {
		t.Error("Cora Article should not have year (it lives on Venue)")
	}
}

func TestClassesOrderedByRank(t *testing.T) {
	s := PIM()
	cs := s.Classes()
	if len(cs) != 3 {
		t.Fatalf("classes = %d", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Rank > cs[i].Rank {
			t.Errorf("classes not rank-ordered: %v", cs)
		}
	}
	if cs[len(cs)-1].Name != ClassArticle {
		t.Errorf("Article should come last, got %s", cs[len(cs)-1].Name)
	}
}

func TestAttrKindString(t *testing.T) {
	if Atomic.String() != "atomic" || Association.String() != "association" {
		t.Error("AttrKind.String wrong")
	}
}

func TestNameAttr(t *testing.T) {
	atomic := func(names ...string) []Attribute {
		var out []Attribute
		for _, n := range names {
			out = append(out, Attribute{Name: n, Kind: Atomic})
		}
		return out
	}
	for _, tc := range []struct {
		attrs []Attribute
		want  string
	}{
		{atomic("code", "title", "name"), AttrName},
		{atomic("code", "title"), AttrTitle},
		{atomic("zeta", "alpha"), "zeta"},
		{[]Attribute{{Name: AttrName, Kind: Association, Target: "X"}, {Name: "code", Kind: Atomic}}, "code"},
		{nil, ""},
	} {
		if got := (&Class{Name: "X", Attrs: tc.attrs}).NameAttr(); got != tc.want {
			t.Errorf("NameAttr(%v) = %q, want %q", tc.attrs, got, tc.want)
		}
	}
}
