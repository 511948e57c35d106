// Package schema models the class structure of an information space.
//
// A schema declares a set of classes, each with atomic attributes (string
// values) and association attributes (links to other references). The
// reconciler is schema-driven: which attribute pairs are comparable, which
// associations propagate reconciliation decisions, and with what dependency
// strength, are all declared here rather than hard-coded.
package schema

import (
	"fmt"
	"sort"
)

// AttrKind distinguishes atomic attributes from association attributes.
type AttrKind uint8

const (
	// Atomic attributes hold simple values such as strings and integers.
	Atomic AttrKind = iota
	// Association attributes hold links to other references.
	Association
)

func (k AttrKind) String() string {
	if k == Association {
		return "association"
	}
	return "atomic"
}

// Attribute describes one attribute of a class.
type Attribute struct {
	Name   string
	Kind   AttrKind
	Target string // class the links point at; associations only
}

// Class describes one class of references.
type Class struct {
	Name  string
	Attrs []Attribute
	// Rank orders similarity computation: classes with lower rank are
	// compared before classes that depend on them (persons and venues
	// before articles). See §3.2's recomputation-order heuristic.
	Rank int
}

// Attr returns the attribute with the given name, or false.
func (c *Class) Attr(name string) (Attribute, bool) {
	for _, a := range c.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// AtomicAttrs returns the class's atomic attributes in declaration order.
func (c *Class) AtomicAttrs() []Attribute {
	var out []Attribute
	for _, a := range c.Attrs {
		if a.Kind == Atomic {
			out = append(out, a)
		}
	}
	return out
}

// AssocAttrs returns the class's association attributes in declaration
// order.
func (c *Class) AssocAttrs() []Attribute {
	var out []Attribute
	for _, a := range c.Attrs {
		if a.Kind == Association {
			out = append(out, a)
		}
	}
	return out
}

// NameAttr returns the class's name-like attribute — the one a free-text
// query binds to, an entity is labelled by and autocomplete indexes: name,
// then title, then the first declared atomic attribute ("" for a class
// with none).
func (c *Class) NameAttr() string {
	pick := ""
	for _, a := range c.Attrs {
		switch {
		case a.Kind != Atomic:
		case a.Name == AttrName:
			return AttrName
		case a.Name == AttrTitle, pick == "":
			pick = a.Name
		}
	}
	return pick
}

// Schema is a set of classes.
type Schema struct {
	classes map[string]*Class
}

// New builds a schema from the given classes, validating that association
// targets exist and names are unique.
func New(classes ...*Class) (*Schema, error) {
	s := &Schema{classes: make(map[string]*Class, len(classes))}
	for _, c := range classes {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: class with empty name")
		}
		if _, dup := s.classes[c.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate class %q", c.Name)
		}
		seen := make(map[string]bool)
		for _, a := range c.Attrs {
			if a.Name == "" {
				return nil, fmt.Errorf("schema: class %q has attribute with empty name", c.Name)
			}
			if seen[a.Name] {
				return nil, fmt.Errorf("schema: class %q has duplicate attribute %q", c.Name, a.Name)
			}
			seen[a.Name] = true
		}
		s.classes[c.Name] = c
	}
	for _, c := range s.classes {
		for _, a := range c.Attrs {
			if a.Kind == Association {
				if _, ok := s.classes[a.Target]; !ok {
					return nil, fmt.Errorf("schema: class %q attribute %q targets unknown class %q", c.Name, a.Name, a.Target)
				}
			}
		}
	}
	return s, nil
}

// MustNew is New that panics on error; for statically-known schemas.
func MustNew(classes ...*Class) *Schema {
	s, err := New(classes...)
	if err != nil {
		panic(err)
	}
	return s
}

// Class returns the named class, or false.
func (s *Schema) Class(name string) (*Class, bool) {
	c, ok := s.classes[name]
	return c, ok
}

// Classes returns all classes ordered by rank, then name.
func (s *Schema) Classes() []*Class {
	out := make([]*Class, 0, len(s.classes))
	for _, c := range s.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Canonical class and attribute names used by the built-in PIM and Cora
// schemas.
const (
	ClassPerson  = "Person"
	ClassArticle = "Article"
	ClassVenue   = "Venue"

	AttrName         = "name"
	AttrEmail        = "email"
	AttrCoAuthor     = "coAuthor"
	AttrEmailContact = "emailContact"
	AttrTitle        = "title"
	AttrYear         = "year"
	AttrPages        = "pages"
	AttrLocation     = "location"
	AttrAuthoredBy   = "authoredBy"
	AttrPublishedIn  = "publishedIn"
)

// PIM returns the personal-information-management schema of Figure 1(a),
// with conferences and journals merged into a single Venue class as in the
// paper's experiments (§5.1).
func PIM() *Schema {
	person := &Class{
		Name: ClassPerson,
		Rank: 0,
		Attrs: []Attribute{
			{Name: AttrName, Kind: Atomic},
			{Name: AttrEmail, Kind: Atomic},
			{Name: AttrCoAuthor, Kind: Association, Target: ClassPerson},
			{Name: AttrEmailContact, Kind: Association, Target: ClassPerson},
		},
	}
	venue := &Class{
		Name: ClassVenue,
		Rank: 0,
		Attrs: []Attribute{
			{Name: AttrName, Kind: Atomic},
			{Name: AttrYear, Kind: Atomic},
			{Name: AttrLocation, Kind: Atomic},
		},
	}
	article := &Class{
		Name: ClassArticle,
		Rank: 1,
		Attrs: []Attribute{
			{Name: AttrTitle, Kind: Atomic},
			{Name: AttrYear, Kind: Atomic},
			{Name: AttrPages, Kind: Atomic},
			{Name: AttrAuthoredBy, Kind: Association, Target: ClassPerson},
			{Name: AttrPublishedIn, Kind: Association, Target: ClassVenue},
		},
	}
	return MustNew(person, venue, article)
}

// Cora returns the citation schema of Figure 5: Person(name, *coAuthor),
// Article(title, pages, *authoredBy, *publishedIn), Venue(name, year,
// location).
func Cora() *Schema {
	person := &Class{
		Name: ClassPerson,
		Rank: 0,
		Attrs: []Attribute{
			{Name: AttrName, Kind: Atomic},
			{Name: AttrCoAuthor, Kind: Association, Target: ClassPerson},
		},
	}
	venue := &Class{
		Name: ClassVenue,
		Rank: 0,
		Attrs: []Attribute{
			{Name: AttrName, Kind: Atomic},
			{Name: AttrYear, Kind: Atomic},
			{Name: AttrLocation, Kind: Atomic},
		},
	}
	article := &Class{
		Name: ClassArticle,
		Rank: 1,
		Attrs: []Attribute{
			{Name: AttrTitle, Kind: Atomic},
			{Name: AttrPages, Kind: Atomic},
			{Name: AttrAuthoredBy, Kind: Association, Target: ClassPerson},
			{Name: AttrPublishedIn, Kind: Association, Target: ClassVenue},
		},
	}
	return MustNew(person, venue, article)
}

// Canonical class and attribute names of the product-catalog schema (the
// online-catalog scenario from the paper's introduction, grown from
// examples/products into a servable information space).
const (
	ClassProduct      = "Product"
	ClassManufacturer = "Manufacturer"

	AttrModel   = "model"
	AttrCountry = "country"
	AttrMadeBy  = "madeBy"
)

// Catalog returns the product-catalog schema: products carry a title and a
// model designation and link to their manufacturer, which in turn carries
// a name and a country. Manufacturers rank below products so they are
// compared first, exactly as venues rank below articles in the PIM schema.
func Catalog() *Schema {
	maker := &Class{
		Name: ClassManufacturer,
		Rank: 0,
		Attrs: []Attribute{
			{Name: AttrName, Kind: Atomic},
			{Name: AttrCountry, Kind: Atomic},
		},
	}
	product := &Class{
		Name: ClassProduct,
		Rank: 1,
		Attrs: []Attribute{
			{Name: AttrTitle, Kind: Atomic},
			{Name: AttrModel, Kind: Atomic},
			{Name: AttrMadeBy, Kind: Association, Target: ClassManufacturer},
		},
	}
	return MustNew(maker, product)
}
