package reference

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"refrecon/internal/schema"
)

func TestAddAtomicDedup(t *testing.T) {
	r := New(schema.ClassPerson)
	r.AddAtomic("name", "Eugene Wong").AddAtomic("name", "Eugene Wong").AddAtomic("name", "")
	if got := r.Atomic("name"); len(got) != 1 || got[0] != "Eugene Wong" {
		t.Errorf("Atomic(name) = %v", got)
	}
	if r.FirstAtomic("name") != "Eugene Wong" {
		t.Errorf("FirstAtomic = %q", r.FirstAtomic("name"))
	}
	if r.FirstAtomic("missing") != "" {
		t.Error("missing attribute should yield empty string")
	}
}

func TestAddAssocDedup(t *testing.T) {
	r := New(schema.ClassPerson)
	r.AddAssoc("coAuthor", 3).AddAssoc("coAuthor", 3).AddAssoc("coAuthor", -1)
	if got := r.Assoc("coAuthor"); len(got) != 1 || got[0] != 3 {
		t.Errorf("Assoc = %v", got)
	}
}

func TestIsEmpty(t *testing.T) {
	r := New(schema.ClassPerson)
	if !r.IsEmpty() {
		t.Error("fresh reference should be empty")
	}
	r.AddAtomic("name", "x")
	if r.IsEmpty() {
		t.Error("reference with a value should not be empty")
	}
}

func TestAttrLists(t *testing.T) {
	r := New(schema.ClassPerson)
	r.AddAtomic("name", "x").AddAtomic("email", "y").AddAssoc("coAuthor", 1)
	if got := r.AtomicAttrs(); len(got) != 2 || got[0] != "email" || got[1] != "name" {
		t.Errorf("AtomicAttrs = %v", got)
	}
	if got := r.AssocAttrs(); len(got) != 1 || got[0] != "coAuthor" {
		t.Errorf("AssocAttrs = %v", got)
	}
}

func TestStoreAddAssignsDenseIDs(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		r := New(schema.ClassPerson)
		if id := s.Add(r); id != ID(i) || r.ID != ID(i) {
			t.Fatalf("id %d assigned as %d", i, id)
		}
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.ByClass(schema.ClassPerson); len(got) != 5 {
		t.Errorf("ByClass = %v", got)
	}
	if got := s.Classes(); len(got) != 1 || got[0] != schema.ClassPerson {
		t.Errorf("Classes = %v", got)
	}
}

func TestStoreAddTwicePanics(t *testing.T) {
	s := NewStore()
	r := New(schema.ClassPerson)
	s.Add(r)
	defer func() {
		if recover() == nil {
			t.Error("adding twice should panic")
		}
	}()
	s.Add(r)
}

func TestValidate(t *testing.T) {
	sch := schema.PIM()
	s := NewStore()
	p := New(schema.ClassPerson)
	p.AddAtomic(schema.AttrName, "Eugene Wong")
	s.Add(p)
	a := New(schema.ClassArticle)
	a.AddAtomic(schema.AttrTitle, "Distributed query processing")
	a.AddAssoc(schema.AttrAuthoredBy, p.ID)
	s.Add(a)
	if err := s.Validate(sch, 0); err != nil {
		t.Errorf("valid store rejected: %v", err)
	}

	// Unknown class.
	bad := NewStore()
	bad.Add(New("Martian"))
	if err := bad.Validate(sch, 0); err == nil || !strings.Contains(err.Error(), "unknown class") {
		t.Errorf("want unknown-class error, got %v", err)
	}

	// Unknown atomic attribute.
	bad2 := NewStore()
	q := New(schema.ClassPerson)
	q.AddAtomic("shoeSize", "42")
	bad2.Add(q)
	if err := bad2.Validate(sch, 0); err == nil || !strings.Contains(err.Error(), "unknown attribute") {
		t.Errorf("want unknown-attribute error, got %v", err)
	}

	// Atomic attribute used as association.
	bad3 := NewStore()
	q3 := New(schema.ClassPerson)
	q3.AddAssoc(schema.AttrName, 0)
	bad3.Add(q3)
	if err := bad3.Validate(sch, 0); err == nil || !strings.Contains(err.Error(), "not an association") {
		t.Errorf("want not-an-association error, got %v", err)
	}

	// Association to the wrong class.
	bad4 := NewStore()
	v := New(schema.ClassVenue)
	bad4.Add(v)
	art := New(schema.ClassArticle)
	art.AddAssoc(schema.AttrAuthoredBy, v.ID) // authors must be persons
	bad4.Add(art)
	if err := bad4.Validate(sch, 0); err == nil || !strings.Contains(err.Error(), "links to class") {
		t.Errorf("want wrong-target-class error, got %v", err)
	}

	// Out-of-range link.
	bad5 := NewStore()
	art5 := New(schema.ClassArticle)
	art5.AddAssoc(schema.AttrAuthoredBy, 99)
	bad5.Add(art5)
	if err := bad5.Validate(sch, 0); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Errorf("want out-of-range error, got %v", err)
	}
}

// TestAdmit pins the one door: a batch is checked whole against the store
// followed by the batch itself, nothing is added, and what Reference
// would silently drop — a negative target — is refused instead.
func TestAdmit(t *testing.T) {
	sch := schema.PIM()
	s := NewStore()
	s.Add(New(schema.ClassPerson).AddAtomic(schema.AttrName, "Eugene Wong"))
	art := Record{Class: schema.ClassArticle, Atomic: map[string][]string{schema.AttrTitle: {"Query processing"}},
		Assoc: map[string][]ID{schema.AttrAuthoredBy: {0, 2}}}
	person := Record{Class: schema.ClassPerson, Atomic: map[string][]string{schema.AttrName: {"Karel Youssefi"}}}
	if err := s.Admit(sch, []Record{art, person}); err != nil {
		t.Fatalf("a forward link into the batch refused: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Admit added to the store: %d references", s.Len())
	}
	if err := s.Admit(sch, []Record{art}); err == nil || !strings.Contains(err.Error(), "reference 1: ") {
		t.Errorf("a link past the batch: %v, want reference 1 refused", err)
	}
	neg := Record{Class: schema.ClassPerson, Assoc: map[string][]ID{schema.AttrCoAuthor: {-3}}}
	if err := s.Admit(sch, []Record{person, neg}); err == nil || !strings.Contains(err.Error(), "reference 2: ") ||
		!strings.Contains(err.Error(), `"coAuthor" links to out-of-range id -3`) {
		t.Errorf("negative target: %v, want a refusal naming reference 2 and the attribute", err)
	}

	// Validate checks only the suffix from the given id: the prefix passed
	// its own check when it was appended.
	bad := NewStore()
	bad.Add(New("Martian"))
	bad.Add(New(schema.ClassPerson))
	if err := bad.Validate(sch, 1); err != nil {
		t.Errorf("suffix from 1: %v", err)
	}
	if err := bad.Validate(sch, 0); err == nil || !strings.Contains(err.Error(), "reference 0: ") {
		t.Errorf("suffix from 0: %v, want reference 0 refused", err)
	}
}

// randomReference draws a reference with a few multi-valued atomic and
// association attributes, the way extraction produces them (no empty
// values, no duplicates, no negative targets — AddAtomic and AddAssoc
// enforce that).
func randomReference(rng *rand.Rand) *Reference {
	r := New([]string{schema.ClassPerson, schema.ClassArticle, schema.ClassVenue}[rng.Intn(3)])
	r.Source = []string{"", "email", "bibtex"}[rng.Intn(3)]
	r.Entity = []string{"", "E1", "E2"}[rng.Intn(3)]
	for a := rng.Intn(4); a > 0; a-- {
		attr := fmt.Sprintf("attr%d", rng.Intn(5))
		for v := 1 + rng.Intn(3); v > 0; v-- {
			r.AddAtomic(attr, fmt.Sprintf("value %d é\"\n", rng.Intn(6)))
		}
	}
	for a := rng.Intn(3); a > 0; a-- {
		attr := fmt.Sprintf("link%d", rng.Intn(3))
		for v := 1 + rng.Intn(3); v > 0; v-- {
			r.AddAssoc(attr, ID(rng.Intn(50)))
		}
	}
	return r
}

// TestRecordRoundTrip is the property behind every layer boundary:
// Reference → Record → Reference loses nothing (values keep their order),
// whether the record crosses in memory, as JSON (dataset files, ingest
// bodies, the write-ahead log) or as gob (snapshot checkpoints), and the
// record shares no memory with the reference it came from.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	store := NewStore()
	for i := 0; i < 300; i++ {
		r := randomReference(rng)
		store.Add(r)
		rec := r.Record()
		if rec.ID != r.ID {
			t.Fatalf("record id = %d, want %d", rec.ID, r.ID)
		}

		viaJSON, viaGob := Record{}, Record{}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &viaJSON); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]Record{"memory": rec, "json": viaJSON, "gob": viaGob} {
			if !reflect.DeepEqual(got, rec) {
				t.Fatalf("ref %d via %s: record %+v, want %+v", i, name, got, rec)
			}
			back := got.Reference()
			if back.ID != -1 {
				t.Fatalf("ref %d via %s: rebuilt reference has id %d, want unassigned", i, name, back.ID)
			}
			back.ID = r.ID
			if !reflect.DeepEqual(back, r) {
				t.Fatalf("ref %d via %s: rebuilt %+v, want %+v", i, name, back, r)
			}
		}

		for _, vs := range rec.Atomic {
			vs[0] = "mutated"
		}
		for _, ts := range rec.Assoc {
			ts[0] = -7
		}
		if !reflect.DeepEqual(r.Record(), viaJSON) {
			t.Fatalf("ref %d: mutating its record changed the reference", i)
		}
	}
}

// TestRecordReferenceNormalizes pins the AddAtomic/AddAssoc semantics of
// the way in: outside input may repeat values or carry empty ones.
func TestRecordReferenceNormalizes(t *testing.T) {
	r := Record{
		ID:     9,
		Class:  schema.ClassPerson,
		Atomic: map[string][]string{"name": {"A", "", "B", "A"}, "email": {}},
		Assoc:  map[string][]ID{"coAuthor": {3, -1, 3, 2}},
	}.Reference()
	if got := r.Atomic("name"); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("name = %v, want [A B]", got)
	}
	if got := r.AtomicAttrs(); len(got) != 1 {
		t.Errorf("atomic attrs = %v, want only name (an attribute without values is absent)", got)
	}
	if got := r.Assoc("coAuthor"); !reflect.DeepEqual(got, []ID{3, 2}) {
		t.Errorf("coAuthor = %v, want [3 2]", got)
	}
}
