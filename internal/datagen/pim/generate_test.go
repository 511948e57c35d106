package pim

import (
	"testing"

	"refrecon/internal/schema"
)

// Profiles returns the four paper datasets at the given scale.
func Profiles(scale float64) []Profile {
	return []Profile{DatasetA(scale), DatasetB(scale), DatasetC(scale), DatasetD(scale)}
}

func TestGenerateValidates(t *testing.T) {
	for _, p := range Profiles(0.05) {
		g, err := Generate(p)
		if err != nil {
			t.Fatalf("dataset %s: %v", p.Name, err)
		}
		if err := g.Store.Validate(schema.PIM(), 0); err != nil {
			t.Errorf("dataset %s invalid: %v", p.Name, err)
		}
		if g.Store.Len() == 0 {
			t.Errorf("dataset %s empty", p.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, err := Generate(DatasetA(0.05))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(DatasetA(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if g1.Store.Len() != g2.Store.Len() {
		t.Fatalf("nondeterministic sizes: %d vs %d", g1.Store.Len(), g2.Store.Len())
	}
	for i := 0; i < g1.Store.Len(); i++ {
		r1 := g1.Store.All()[i]
		r2 := g2.Store.All()[i]
		if r1.Class != r2.Class || r1.Entity != r2.Entity || r1.String() != r2.String() {
			t.Fatalf("reference %d differs: %v vs %v", i, r1, r2)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	g, err := Generate(DatasetA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	store := g.Store
	persons := len(store.ByClass(schema.ClassPerson))
	articles := len(store.ByClass(schema.ClassArticle))
	venues := len(store.ByClass(schema.ClassVenue))
	if persons == 0 || articles == 0 || venues == 0 {
		t.Fatalf("classes missing: %d/%d/%d", persons, articles, venues)
	}
	// Every reference must be labeled.
	entities := make(map[string]int)
	for _, r := range store.All() {
		if r.Entity == "" {
			t.Fatalf("unlabeled reference: %v", r)
		}
		if r.Class == schema.ClassPerson {
			entities[r.Entity]++
		}
	}
	// The reference-to-entity ratio should be well above 1 (the paper's
	// Table 1 averages 11.8; at small scale we accept anything >= 2).
	ratio := float64(persons) / float64(len(entities))
	if ratio < 2 {
		t.Errorf("person ref/entity ratio = %.1f, want >= 2", ratio)
	}
	// The owner must be the most-referenced person.
	if n := entities["P00000"]; n < 5 {
		t.Errorf("owner has only %d references", n)
	}
	// Both sources must be represented.
	bySource := make(map[string]int)
	for _, id := range store.ByClass(schema.ClassPerson) {
		bySource[store.Get(id).Source]++
	}
	if bySource["email"] == 0 || bySource["bibtex"] == 0 {
		t.Errorf("sources = %v", bySource)
	}
}

func TestDatasetDOwnerNameChange(t *testing.T) {
	g, err := Generate(DatasetD(0.1))
	if err != nil {
		t.Fatal(err)
	}
	// Collect the owner's distinct email servers and surnames: the change
	// must yield two different accounts on one shared server.
	accounts := make(map[string]bool)
	for _, id := range g.Store.ByClass(schema.ClassPerson) {
		r := g.Store.Get(id)
		if r.Entity != "P00000" {
			continue
		}
		for _, e := range r.Atomic(schema.AttrEmail) {
			accounts[e] = true
		}
	}
	servers := make(map[string][]string)
	for a := range accounts {
		for i := len(a) - 1; i >= 0; i-- {
			if a[i] == '@' {
				servers[a[i+1:]] = append(servers[a[i+1:]], a[:i])
				break
			}
		}
	}
	conflicted := false
	for _, locals := range servers {
		if len(locals) > 1 {
			conflicted = true
		}
	}
	if !conflicted {
		t.Error("dataset D owner should have two accounts on one server")
	}
}

func TestDatasetCNameCollisions(t *testing.T) {
	g, err := Generate(DatasetC(0.2))
	if err != nil {
		t.Fatal(err)
	}
	// There must exist two distinct entities sharing an exact full name.
	nameToEntity := make(map[string]map[string]bool)
	for _, id := range g.Store.ByClass(schema.ClassPerson) {
		r := g.Store.Get(id)
		for _, n := range r.Atomic(schema.AttrName) {
			if nameToEntity[n] == nil {
				nameToEntity[n] = make(map[string]bool)
			}
			nameToEntity[n][r.Entity] = true
		}
	}
	collision := false
	for _, ents := range nameToEntity {
		if len(ents) > 1 {
			collision = true
			break
		}
	}
	if !collision {
		t.Error("dataset C should contain exact-name collisions")
	}
}

func TestScaledCounts(t *testing.T) {
	p := DatasetA(0.5)
	if got := p.scaled(1000); got != 500 {
		t.Errorf("scaled(1000) at 0.5 = %d", got)
	}
	p.Scale = 0
	if got := p.scaled(1000); got != 1000 {
		t.Errorf("scale 0 should mean 1.0: %d", got)
	}
	p.Scale = 0.0001
	if got := p.scaled(10); got != 1 {
		t.Errorf("tiny scale should clamp to 1: %d", got)
	}
}
