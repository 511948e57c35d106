package extract

import (
	"testing"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// AddMailbox exposes single-mailbox extraction (e.g. for address books).
func (a *Accumulator) AddMailbox(mb Mailbox) reference.ID { return a.emailPerson(mb) }

func TestAddMessageDedupAndContacts(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	m, err := ParseMessage(sampleMsg)
	if err != nil {
		t.Fatal(err)
	}
	ids := acc.AddMessage(m)
	if len(ids) != 4 {
		t.Fatalf("ids = %v", ids)
	}
	from := store.Get(ids[0])
	if from.FirstAtomic(schema.AttrName) != "Michael Stonebraker" {
		t.Errorf("from name = %q", from.FirstAtomic(schema.AttrName))
	}
	if got := from.Assoc(schema.AttrEmailContact); len(got) != 3 {
		t.Errorf("from contacts = %v", got)
	}
	// Recipients point back at the sender.
	if got := store.Get(ids[1]).Assoc(schema.AttrEmailContact); len(got) != 1 || got[0] != ids[0] {
		t.Errorf("recipient contacts = %v", got)
	}

	// Adding the same message again must not create new references.
	before := store.Len()
	again := acc.AddMessage(m)
	if store.Len() != before {
		t.Errorf("re-adding grew the store: %d -> %d", before, store.Len())
	}
	for i := range ids {
		if again[i] != ids[i] {
			t.Errorf("presentation dedup broken at %d: %v vs %v", i, again, ids)
		}
	}

	// A different presentation of the same address is a new reference.
	m2 := Message{From: Mailbox{Name: "M. Stonebraker", Email: "stonebraker@csail.mit.edu"}}
	ids2 := acc.AddMessage(m2)
	if ids2[0] == ids[0] {
		t.Error("different display name should be a distinct reference")
	}
}

func TestAddMessageEmptyMailbox(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	ids := acc.AddMessage(Message{From: Mailbox{}, To: []Mailbox{{Email: "a@b.c"}}})
	if ids[0] != -1 {
		t.Errorf("empty from should be -1, got %d", ids[0])
	}
	if store.Len() != 1 {
		t.Errorf("store len = %d", store.Len())
	}
}

func TestAddBibEntry(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	entries, err := ParseBibTeX(sampleBib)
	if err != nil {
		t.Fatal(err)
	}
	refs := acc.AddBibEntry(entries[0])
	if len(refs.Authors) != 3 {
		t.Fatalf("authors = %v", refs.Authors)
	}
	art := store.Get(refs.Article)
	if art.FirstAtomic(schema.AttrTitle) == "" || len(art.Assoc(schema.AttrAuthoredBy)) != 3 {
		t.Errorf("article = %v", art)
	}
	if refs.Venue < 0 {
		t.Fatal("venue missing")
	}
	venue := store.Get(refs.Venue)
	if venue.FirstAtomic(schema.AttrName) != "ACM Conference on Management of Data" {
		t.Errorf("venue name = %q", venue.FirstAtomic(schema.AttrName))
	}
	if venue.FirstAtomic(schema.AttrLocation) != "Austin, Texas" {
		t.Errorf("venue location = %q", venue.FirstAtomic(schema.AttrLocation))
	}
	// Co-author links are pairwise and exclude self.
	p := store.Get(refs.Authors[0])
	if got := p.Assoc(schema.AttrCoAuthor); len(got) != 2 {
		t.Errorf("coauthors = %v", got)
	}
	// BibTeX persons are NOT deduplicated across entries.
	refs2 := acc.AddBibEntry(entries[0])
	if refs2.Authors[0] == refs.Authors[0] {
		t.Error("bibtex authors must be per-mention references")
	}
	// The whole store must validate against the PIM schema.
	if err := store.Validate(schema.PIM()); err != nil {
		t.Errorf("extracted store invalid: %v", err)
	}
}

func TestAddBibTeXDocument(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	refs, err := acc.AddBibTeX(sampleBib)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 {
		t.Fatalf("refs = %d", len(refs))
	}
	// Entry 3 has no venue.
	if refs[2].Venue != -1 {
		t.Errorf("bookless venue = %d", refs[2].Venue)
	}
	if _, err := acc.AddBibTeX("@bad{"); err == nil {
		t.Error("syntax error should propagate")
	}
}

func TestSourcesLabeled(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	id := acc.AddMailbox(Mailbox{Name: "A", Email: "a@b.c"})
	if store.Get(id).Source != SourceEmail {
		t.Error("email source label missing")
	}
	refs, _ := acc.AddBibTeX(`@article{k, author = {A B}, title = {T}}`)
	if store.Get(refs[0].Article).Source != SourceBibTeX {
		t.Error("bibtex source label missing")
	}
}
