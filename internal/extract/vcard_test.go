package extract

import (
	"strings"
	"testing"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

const sampleVCards = `BEGIN:VCARD
VERSION:3.0
N:Stonebraker;Michael;;;
FN:Michael Stonebraker
EMAIL;TYPE=work:stonebraker@csail.mit.edu
EMAIL;TYPE=home:mike@postgres.org
END:VCARD
BEGIN:VCARD
VERSION:3.0
FN:Eugene
 Wong
EMAIL:eugene@berkeley.edu
END:VCARD
BEGIN:VCARD
VERSION:3.0
N:Widom;Jennifer;;;
END:VCARD
`

// AddVCard extracts one person reference from a card: display name plus
// every email address (a multi-valued attribute — precisely the situation
// the paper's §2.2 highlights). Cards with no identity yield -1.
func (a *Accumulator) AddVCard(v VCard) reference.ID {
	name := strings.TrimSpace(v.DisplayName())
	if name == "" && len(v.Emails) == 0 {
		return -1
	}
	r := reference.New(schema.ClassPerson)
	r.Source = SourceContacts
	r.AddAtomic(schema.AttrName, name)
	for _, e := range v.Emails {
		r.AddAtomic(schema.AttrEmail, e)
	}
	return a.store.Add(r)
}

func TestParseVCards(t *testing.T) {
	cards, err := ParseVCards(sampleVCards)
	if err != nil {
		t.Fatal(err)
	}
	if len(cards) != 3 {
		t.Fatalf("cards = %d", len(cards))
	}
	c0 := cards[0]
	if c0.FormattedName != "Michael Stonebraker" || c0.Name != "Michael Stonebraker" {
		t.Errorf("card 0 names: %+v", c0)
	}
	if len(c0.Emails) != 2 || c0.Emails[0] != "stonebraker@csail.mit.edu" {
		t.Errorf("card 0 emails: %v", c0.Emails)
	}
	// Folded FN line unfolds.
	if cards[1].DisplayName() != "EugeneWong" && cards[1].DisplayName() != "Eugene Wong" {
		t.Errorf("folded FN = %q", cards[1].DisplayName())
	}
	// N-only card reassembles "First Last".
	if cards[2].DisplayName() != "Jennifer Widom" {
		t.Errorf("card 2 name = %q", cards[2].DisplayName())
	}
}

func TestParseVCardsErrors(t *testing.T) {
	if _, err := ParseVCards("END:VCARD\n"); err == nil {
		t.Error("END without BEGIN should fail")
	}
	if _, err := ParseVCards("BEGIN:VCARD\nFN:X\n"); err == nil {
		t.Error("unterminated card should fail")
	}
	if _, err := ParseVCards("BEGIN:VCARD\nBEGIN:VCARD\n"); err == nil {
		t.Error("nested BEGIN should fail")
	}
	// Empty and junk input parse to zero cards.
	if cards, err := ParseVCards("random text\nwithout colons\n"); err != nil || len(cards) != 0 {
		t.Errorf("junk = %v, %v", cards, err)
	}
}

func TestAddVCard(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	cards, err := ParseVCards(sampleVCards)
	if err != nil {
		t.Fatal(err)
	}
	id := acc.AddVCard(cards[0])
	r := store.Get(id)
	if r.Source != SourceContacts {
		t.Errorf("source = %q", r.Source)
	}
	if got := r.Atomic(schema.AttrEmail); len(got) != 2 {
		t.Errorf("emails = %v (multi-valued attribute expected)", got)
	}
	if acc.AddVCard(VCard{}) != -1 {
		t.Error("empty card should yield -1")
	}
	if err := store.Validate(schema.PIM()); err != nil {
		t.Error(err)
	}
}

// TestVCardBridgesAccounts shows the reconciliation value of contacts: a
// card carrying both of a person's addresses joins their otherwise
// unlinkable email references.
func TestVCardBridgesAccounts(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	a := acc.AddMailbox(Mailbox{Name: "M. Stonebraker", Email: "stonebraker@csail.mit.edu"})
	b := acc.AddMailbox(Mailbox{Name: "", Email: "mike@postgres.org"})
	cards, _ := ParseVCards(sampleVCards)
	c := acc.AddVCard(cards[0])
	if a == b || b == c || a == c {
		t.Fatal("three distinct references expected")
	}
	if !strings.Contains(store.Get(c).String(), "postgres.org") {
		t.Fatal("card should carry the second address")
	}
}
