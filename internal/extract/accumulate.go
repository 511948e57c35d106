package extract

import (
	"strings"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/tokenizer"
)

// Source labels recorded on extracted references, used by the evaluation
// to form the PEmail/PArticle subsets of §5.3.
const (
	SourceEmail    = "email"
	SourceBibTeX   = "bibtex"
	SourceCitation = "citation"
	SourceContacts = "contacts"
)

// Accumulator turns parsed messages and BibTeX entries into references in
// a Store.
//
// Person references from email are deduplicated on the exact
// (display name, address) presentation: the same header across a thousand
// messages contributes one reference whose contact list keeps growing.
// Person references from BibTeX author lists are per-mention — "Wong, E."
// in two different entries may be two different people, so each mention
// must stay a separate reference.
type Accumulator struct {
	store *reference.Store
	// emailPersons dedupes email-extracted persons by presentation.
	emailPersons map[string]reference.ID
}

// NewAccumulator returns an accumulator writing into store.
func NewAccumulator(store *reference.Store) *Accumulator {
	return &Accumulator{store: store, emailPersons: make(map[string]reference.ID)}
}

// Store returns the underlying store.
func (a *Accumulator) Store() *reference.Store { return a.store }

// AddMessage extracts person references from a message's headers: one per
// mailbox (deduplicated by presentation), with emailContact links between
// the sender and every recipient in both directions. It returns the person
// reference ids in header order: From first, then To, then Cc — so a
// caller that knows the true identities (the data generator) can label
// them.
func (a *Accumulator) AddMessage(m Message) []reference.ID {
	boxes := make([]Mailbox, 0, 1+len(m.To)+len(m.Cc))
	boxes = append(boxes, m.From)
	boxes = append(boxes, m.To...)
	boxes = append(boxes, m.Cc...)
	ids := make([]reference.ID, len(boxes))
	for i, mb := range boxes {
		ids[i] = a.emailPerson(mb)
	}
	from := ids[0]
	for _, rcpt := range ids[1:] {
		if rcpt == from || rcpt < 0 || from < 0 {
			continue
		}
		a.store.Get(from).AddAssoc(schema.AttrEmailContact, rcpt)
		a.store.Get(rcpt).AddAssoc(schema.AttrEmailContact, from)
	}
	return ids
}

// emailPerson returns the reference for a mailbox presentation, creating
// it on first sight. A mailbox with neither name nor address yields -1.
func (a *Accumulator) emailPerson(mb Mailbox) reference.ID {
	name := strings.TrimSpace(mb.Name)
	email := strings.TrimSpace(mb.Email)
	if name == "" && email == "" {
		return -1
	}
	key := tokenizer.Normalize(name) + "\x00" + tokenizer.Normalize(email)
	if id, ok := a.emailPersons[key]; ok {
		return id
	}
	r := reference.New(schema.ClassPerson)
	r.Source = SourceEmail
	r.AddAtomic(schema.AttrName, name)
	r.AddAtomic(schema.AttrEmail, email)
	id := a.store.Add(r)
	a.emailPersons[key] = id
	return id
}

// BibRefs identifies the references extracted from one BibTeX entry.
type BibRefs struct {
	Article reference.ID
	Authors []reference.ID
	Venue   reference.ID // -1 when the entry has no venue field
}

// AddBibEntry extracts an article, its authors (with pairwise coAuthor
// links), and its venue from one entry.
func (a *Accumulator) AddBibEntry(e BibEntry) BibRefs {
	art := reference.New(schema.ClassArticle)
	art.Source = SourceBibTeX
	art.AddAtomic(schema.AttrTitle, e.Field("title"))
	art.AddAtomic(schema.AttrYear, e.Field("year"))
	art.AddAtomic(schema.AttrPages, e.Field("pages"))
	artID := a.store.Add(art)

	out := BibRefs{Article: artID, Venue: -1}
	for _, author := range e.Authors() {
		p := reference.New(schema.ClassPerson)
		p.Source = SourceBibTeX
		p.AddAtomic(schema.AttrName, author)
		out.Authors = append(out.Authors, a.store.Add(p))
	}
	for i, pi := range out.Authors {
		art.AddAssoc(schema.AttrAuthoredBy, pi)
		for j, pj := range out.Authors {
			if i != j {
				a.store.Get(pi).AddAssoc(schema.AttrCoAuthor, pj)
			}
		}
	}
	if vn := e.VenueName(); vn != "" {
		v := reference.New(schema.ClassVenue)
		v.Source = SourceBibTeX
		v.AddAtomic(schema.AttrName, vn)
		v.AddAtomic(schema.AttrYear, e.Field("year"))
		v.AddAtomic(schema.AttrLocation, e.Field("address"))
		out.Venue = a.store.Add(v)
		art.AddAssoc(schema.AttrPublishedIn, out.Venue)
	}
	return out
}

// AddBibTeX parses a whole BibTeX document and adds every entry.
func (a *Accumulator) AddBibTeX(src string) ([]BibRefs, error) {
	entries, err := ParseBibTeX(src)
	if err != nil {
		return nil, err
	}
	out := make([]BibRefs, 0, len(entries))
	for _, e := range entries {
		out = append(out, a.AddBibEntry(e))
	}
	return out, nil
}

// AddCitation extracts an article, its authors, and its venue from a
// segmented free-text citation (see ParseCitation). The second return
// value is false when the citation is missing a title and nothing was
// added.
func (a *Accumulator) AddCitation(c Citation) (BibRefs, bool) {
	if strings.TrimSpace(c.Title) == "" {
		return BibRefs{Article: -1, Venue: -1}, false
	}
	art := reference.New(schema.ClassArticle)
	art.Source = SourceCitation
	art.AddAtomic(schema.AttrTitle, c.Title)
	art.AddAtomic(schema.AttrYear, c.Year)
	art.AddAtomic(schema.AttrPages, c.Pages)
	out := BibRefs{Article: a.store.Add(art), Venue: -1}
	for _, author := range c.Authors {
		p := reference.New(schema.ClassPerson)
		p.Source = SourceCitation
		p.AddAtomic(schema.AttrName, author)
		out.Authors = append(out.Authors, a.store.Add(p))
	}
	for i, pi := range out.Authors {
		art.AddAssoc(schema.AttrAuthoredBy, pi)
		for j, pj := range out.Authors {
			if i != j {
				a.store.Get(pi).AddAssoc(schema.AttrCoAuthor, pj)
			}
		}
	}
	if strings.TrimSpace(c.Venue) != "" {
		v := reference.New(schema.ClassVenue)
		v.Source = SourceCitation
		v.AddAtomic(schema.AttrName, c.Venue)
		v.AddAtomic(schema.AttrYear, c.Year)
		out.Venue = a.store.Add(v)
		art.AddAssoc(schema.AttrPublishedIn, out.Venue)
	}
	return out, true
}
