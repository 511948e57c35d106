// Package reference defines the Reference type — a partial description of a
// real-world entity extracted from some source — and the Store that holds a
// dataset's references.
//
// A reference carries a (possibly empty) *set* of values for each attribute
// of its class. Multi-valued attributes are fundamental to the paper's
// setting: a person legitimately has several email addresses and several
// name spellings, so value disagreement is never by itself negative
// evidence.
package reference

import (
	"fmt"
	"sort"

	"refrecon/internal/schema"
)

// ID identifies a reference within a Store. IDs are dense, starting at 0.
type ID int

// Reference is one extracted reference.
type Reference struct {
	ID     ID
	Class  string
	Source string // provenance label: "email", "bibtex", "citation", ...
	// Entity is the gold-standard entity label when known (datasets built
	// by the generators carry it; real extractions leave it empty). It is
	// never consulted by the reconciler — only by evaluation.
	Entity string

	atomic map[string][]string
	assoc  map[string][]ID
}

// New creates a reference of the given class. The ID is assigned when the
// reference is added to a Store.
func New(class string) *Reference {
	return &Reference{
		ID:     -1,
		Class:  class,
		atomic: make(map[string][]string),
		assoc:  make(map[string][]ID),
	}
}

// View returns a read-only reference over existing attribute maps without
// copying them, so that an immutable snapshot can hand its stored values to
// code written against Reference. The maps must never change afterwards;
// a view must not be mutated (AddAtomic, AddAssoc) or added to a Store.
func View(id ID, class string, atomic map[string][]string, assoc map[string][]ID) Reference {
	return Reference{ID: id, Class: class, atomic: atomic, assoc: assoc}
}

// AddAtomic appends a value to the named atomic attribute, skipping empty
// strings and exact duplicates.
func (r *Reference) AddAtomic(attr, value string) *Reference {
	if value == "" {
		return r
	}
	for _, v := range r.atomic[attr] {
		if v == value {
			return r
		}
	}
	r.atomic[attr] = append(r.atomic[attr], value)
	return r
}

// AddAssoc appends a link to the named association attribute, skipping
// duplicates and negative ids.
func (r *Reference) AddAssoc(attr string, target ID) *Reference {
	if target < 0 {
		return r
	}
	for _, t := range r.assoc[attr] {
		if t == target {
			return r
		}
	}
	r.assoc[attr] = append(r.assoc[attr], target)
	return r
}

// Atomic returns the values of the named atomic attribute (nil when
// absent). The returned slice must not be mutated.
func (r *Reference) Atomic(attr string) []string { return r.atomic[attr] }

// FirstAtomic returns the first value of the attribute, or "".
func (r *Reference) FirstAtomic(attr string) string {
	if vs := r.atomic[attr]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Assoc returns the links of the named association attribute (nil when
// absent). The returned slice must not be mutated.
func (r *Reference) Assoc(attr string) []ID { return r.assoc[attr] }

// AtomicAttrs returns the names of atomic attributes that have at least one
// value, sorted.
func (r *Reference) AtomicAttrs() []string {
	out := make([]string, 0, len(r.atomic))
	for a := range r.atomic {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// AssocAttrs returns the names of association attributes that have at least
// one link, sorted.
func (r *Reference) AssocAttrs() []string {
	out := make([]string, 0, len(r.assoc))
	for a := range r.assoc {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// IsEmpty reports whether the reference carries no attribute values at all.
func (r *Reference) IsEmpty() bool { return len(r.atomic) == 0 && len(r.assoc) == 0 }

// String renders a compact debugging representation.
func (r *Reference) String() string {
	return fmt.Sprintf("%s#%d%v", r.Class, r.ID, r.atomic)
}

// Store holds the references of one dataset and assigns their IDs.
type Store struct {
	refs    []*Reference
	byClass map[string][]ID
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byClass: make(map[string][]ID)}
}

// Add assigns the next ID to r and records it. It panics if r was already
// added to a store.
func (s *Store) Add(r *Reference) ID {
	if r.ID >= 0 {
		panic(fmt.Sprintf("reference: %v already added", r))
	}
	r.ID = ID(len(s.refs))
	s.refs = append(s.refs, r)
	s.byClass[r.Class] = append(s.byClass[r.Class], r.ID)
	return r.ID
}

// Len returns the number of references.
func (s *Store) Len() int { return len(s.refs) }

// Get returns the reference with the given id. It panics on out-of-range
// ids, which always indicate a programming error.
func (s *Store) Get(id ID) *Reference { return s.refs[id] }

// All returns the references in ID order. The slice must not be mutated.
func (s *Store) All() []*Reference { return s.refs }

// ByClass returns the IDs of the class's references in insertion order.
func (s *Store) ByClass(class string) []ID { return s.byClass[class] }

// Classes returns the class names present, sorted.
func (s *Store) Classes() []string {
	out := make([]string, 0, len(s.byClass))
	for c := range s.byClass {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Validate checks every reference against the schema: classes must exist,
// attributes must be declared with the right kind, and association targets
// must be in range and of the declared target class.
func (s *Store) Validate(sch *schema.Schema) error {
	for _, r := range s.refs {
		c, ok := sch.Class(r.Class)
		if !ok {
			return fmt.Errorf("reference %d: unknown class %q", r.ID, r.Class)
		}
		for attr := range r.atomic {
			a, ok := c.Attr(attr)
			if !ok {
				return fmt.Errorf("reference %d (%s): unknown attribute %q", r.ID, r.Class, attr)
			}
			if a.Kind != schema.Atomic {
				return fmt.Errorf("reference %d (%s): attribute %q is not atomic", r.ID, r.Class, attr)
			}
		}
		for attr, targets := range r.assoc {
			a, ok := c.Attr(attr)
			if !ok {
				return fmt.Errorf("reference %d (%s): unknown attribute %q", r.ID, r.Class, attr)
			}
			if a.Kind != schema.Association {
				return fmt.Errorf("reference %d (%s): attribute %q is not an association", r.ID, r.Class, attr)
			}
			for _, t := range targets {
				if int(t) >= len(s.refs) {
					return fmt.Errorf("reference %d (%s): attribute %q links to out-of-range id %d", r.ID, r.Class, attr, t)
				}
				if got := s.refs[t].Class; got != a.Target {
					return fmt.Errorf("reference %d (%s): attribute %q links to class %q, want %q", r.ID, r.Class, attr, got, a.Target)
				}
			}
		}
	}
	return nil
}
