// Package reference defines the Reference type — a partial description of a
// real-world entity extracted from some source — the Store that holds a
// dataset's references, and the Record form a reference takes whenever it
// crosses a layer boundary (a file, an ingest batch, a log, a snapshot).
//
// A reference carries a (possibly empty) *set* of values for each attribute
// of its class. Multi-valued attributes are fundamental to the paper's
// setting: a person legitimately has several email addresses and several
// name spellings, so value disagreement is never by itself negative
// evidence.
package reference

import (
	"bytes"
	"encoding/json"
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

// Admit is the one admission check, the door every batch of records takes
// into a store (a dataset file, an ingest body, a replayed log record):
// Record.Check on every record, association targets resolved into the
// store followed by the batch itself. It adds nothing — the caller appends
// each record's Reference once the batch is admitted whole — and names
// the first refused record by the id it would have taken.
func (s *Store) Admit(sch *schema.Schema, batch []Record) error {
	classOf := func(id ID) (string, bool) {
		switch {
		case id < 0 || int(id) >= len(s.refs)+len(batch):
			return "", false
		case int(id) < len(s.refs):
			return s.refs[id].Class, true
		}
		return batch[int(id)-len(s.refs)].Class, true
	}
	for i := range batch {
		if err := batch[i].Check(sch, classOf); err != nil {
			return fmt.Errorf("reference %d: %w", len(s.refs)+i, err)
		}
	}
	return nil
}

// Validate admits the store's references from id from on as one batch
// behind the ones before them. The store only appends, and a reference's
// validity depends only on itself and its targets' classes, so checking
// each appended suffix once checks the whole store.
func (s *Store) Validate(sch *schema.Schema, from int) error {
	batch := make([]Record, 0, len(s.refs)-from)
	for _, r := range s.refs[from:] {
		// A transient record over the reference's own maps: no copy.
		batch = append(batch, Record{Class: r.Class, Atomic: r.atomic, Assoc: r.assoc})
	}
	return (&Store{refs: s.refs[:from]}).Admit(sch, batch)
}

// Batch is the body form of a record batch: a dataset file and an /ingest
// body are both this envelope, or a bare JSON array of its records.
type Batch struct {
	Name       string   `json:"name,omitempty"`
	References []Record `json:"references"`
}

// DecodeBatch is the one decoder of a batch body: either shape, and at
// least one record.
func DecodeBatch(data []byte) (Batch, error) {
	var b Batch
	var err error
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		err = json.Unmarshal(data, &b.References)
	} else {
		err = json.Unmarshal(data, &b)
	}
	if err != nil {
		return Batch{}, fmt.Errorf("body must be {\"references\": [...]} or a JSON array of references: %w", err)
	}
	if len(b.References) == 0 {
		return Batch{}, fmt.Errorf("no references")
	}
	return b, nil
}

// Record is the exported form of a reference, the paper's §2 shape written
// down once: a class plus a set of values per atomic and per association
// attribute. It is what crosses every layer boundary — a dataset file's
// "references" array, an ingest batch, a write-ahead-log payload, and a
// snapshot's stored references are all []Record — so a dataset file can be
// POSTed to the service's /ingest verbatim. ID is informational on the way
// in (a store assigns dense ids itself); association targets are ids in
// the store the record lands in.
type Record struct {
	ID     ID                  `json:"id,omitempty"`
	Class  string              `json:"class"`
	Source string              `json:"source,omitempty"`
	Entity string              `json:"entity,omitempty"`
	Atomic map[string][]string `json:"atomic,omitempty"`
	Assoc  map[string][]ID     `json:"assoc,omitempty"`
}

// Record returns the reference's record form. It is a deep copy: nothing
// in it aliases the reference.
func (r *Reference) Record() Record {
	rec := Record{ID: r.ID, Class: r.Class, Source: r.Source, Entity: r.Entity}
	if len(r.atomic) > 0 {
		rec.Atomic = make(map[string][]string, len(r.atomic))
		for a, vs := range r.atomic {
			rec.Atomic[a] = append([]string(nil), vs...)
		}
	}
	if len(r.assoc) > 0 {
		rec.Assoc = make(map[string][]ID, len(r.assoc))
		for a, ts := range r.assoc {
			rec.Assoc[a] = append([]ID(nil), ts...)
		}
	}
	return rec
}

// Reference is Record's inverse: a fresh reference, not yet in any store
// (its ID is unassigned whatever the record's says), built with AddAtomic
// and AddAssoc — empty values and exact duplicates are dropped, value
// order is kept. A negative or out-of-range target is refused at the door
// (Store.Admit), never dropped.
func (rec Record) Reference() *Reference {
	r := New(rec.Class)
	r.Source = rec.Source
	r.Entity = rec.Entity
	for attr, vs := range rec.Atomic {
		for _, v := range vs {
			r.AddAtomic(attr, v)
		}
	}
	for attr, ts := range rec.Assoc {
		for _, t := range ts {
			r.AddAssoc(attr, t)
		}
	}
	return r
}

// Check is the one schema check: the class must exist, every attribute
// must be declared with the kind it is used as, and every association
// target must resolve — through classOf, which knows the id space the
// record lives in (a store, a store plus the batch being added, a
// snapshot) — to a reference of the declared target class. When a record
// has several violations, which one is reported is unspecified.
func (rec Record) Check(sch *schema.Schema, classOf func(ID) (string, bool)) error {
	c, ok := sch.Class(rec.Class)
	if !ok {
		return fmt.Errorf("unknown class %q", rec.Class)
	}
	for attr := range rec.Atomic {
		a, ok := c.Attr(attr)
		if !ok {
			return fmt.Errorf("class %q: unknown attribute %q", rec.Class, attr)
		}
		if a.Kind != schema.Atomic {
			return fmt.Errorf("class %q: attribute %q is not atomic", rec.Class, attr)
		}
	}
	for attr, targets := range rec.Assoc {
		a, ok := c.Attr(attr)
		if !ok {
			return fmt.Errorf("class %q: unknown attribute %q", rec.Class, attr)
		}
		if a.Kind != schema.Association {
			return fmt.Errorf("class %q: attribute %q is not an association", rec.Class, attr)
		}
		for _, t := range targets {
			got, ok := classOf(t)
			if !ok {
				return fmt.Errorf("class %q: attribute %q links to out-of-range id %d", rec.Class, attr, t)
			}
			if got != a.Target {
				return fmt.Errorf("class %q: attribute %q links to class %q (id %d), want %q", rec.Class, attr, got, t, a.Target)
			}
		}
	}
	return nil
}
