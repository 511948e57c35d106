package pim

import (
	"fmt"
	"strings"

	"refrecon/internal/extract"
	"refrecon/internal/names"
	"refrecon/internal/schema"
)

// renderBibliography renders each article's citations as BibTeX text,
// parses them through the real extractor, and labels the resulting
// references.
func (w *world) renderBibliography(acc *extract.Accumulator) error {
	store := acc.Store()
	for _, a := range w.articles {
		cites := 1 + w.rng.Intn(max(1, w.p.MaxCitations))
		for c := 0; c < cites; c++ {
			text := w.renderBibEntry(a, c)
			refs, err := acc.AddBibTeX(text)
			if err != nil {
				return fmt.Errorf("pim: generated invalid bibtex: %w\n%s", err, text)
			}
			if len(refs) != 1 {
				return fmt.Errorf("pim: expected 1 entry, got %d", len(refs))
			}
			r := refs[0]
			store.Get(r.Article).Entity = a.label
			for i, pid := range r.Authors {
				store.Get(pid).Entity = w.persons[a.authors[i]].label
			}
			if r.Venue >= 0 {
				// A venue reference denotes an *edition* (SIGMOD'78, not
				// SIGMOD): the gold entity is venue plus the article's
				// true year.
				store.Get(r.Venue).Entity = fmt.Sprintf("V%03d-%d", a.venue, a.year)
			}
		}
	}
	return nil
}

// renderBibEntry renders one citation of an article with realistic noise:
// per-citation author name formats, venue alias choice, occasional title
// perturbation and year jitter.
func (w *world) renderBibEntry(a *articleEntity, cite int) string {
	var authors []string
	for _, idx := range a.authors {
		authors = append(authors, w.citationName(w.persons[idx], a.year))
	}
	title := a.title
	if w.rng.Float64() < w.p.TitleNoiseRate {
		title = w.perturbTitle(title)
	}
	// Personal bibtex files are well curated (the paper's explanation for
	// the flat Article row of Table 2), so year errors are very rare. Each
	// wrong year plants a cross-edition venue merge that alias learning
	// then amplifies, so this rate directly controls venue precision.
	year := a.year
	if w.rng.Float64() < 0.001 {
		year += 1 - 2*w.rng.Intn(2) // off-by-one either way
	}
	pages := a.pages
	switch w.rng.Intn(10) {
	case 0:
		pages = "pp. " + strings.ReplaceAll(pages, "-", "--")
	case 1:
		pages = ""
	}
	v := venuePool[a.venue]
	venue := v.canonical
	if w.rng.Float64() < 0.75 {
		venue = v.aliases[w.rng.Intn(len(v.aliases))]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "@inproceedings{%s-%d,\n", strings.ToLower(a.label), cite)
	fmt.Fprintf(&b, "  author = {%s},\n", strings.Join(authors, " and "))
	fmt.Fprintf(&b, "  title = {%s},\n", title)
	fmt.Fprintf(&b, "  booktitle = {%s},\n", venue)
	fmt.Fprintf(&b, "  year = {%d},\n", year)
	if pages != "" {
		fmt.Fprintf(&b, "  pages = {%s},\n", pages)
	}
	if loc := editionLocation(a.venue, a.year); loc != "" && w.rng.Float64() < 0.5 {
		fmt.Fprintf(&b, "  address = {%s},\n", loc)
	}
	b.WriteString("}\n")
	return b.String()
}

// citationName renders a person's name in citation style. The owner's
// post-change name is used for articles written after the change.
func (w *world) citationName(e *entity, year int) string {
	first, middle, last := e.first, e.middle, e.last
	if e.changed && year >= w.changeYear() {
		// Post-change bibliography entries carry the new surname.
		last = names.Parse(e.changedVariants[0]).Last
		last = titleCase(last)
	}
	// Bibliography author lists are almost always initialed — the very
	// sparsity that makes citation-extracted person references hard to
	// reconcile without association evidence (Table 3's PArticle subset).
	fi := string(first[0])
	switch w.rng.Intn(12) {
	case 0: // "Last, First" — the rare fully-spelled form
		return last + ", " + first
	case 1, 2, 3: // "F. Last"
		if middle != "" && w.rng.Intn(2) == 0 {
			return fi + ". " + middle + ". " + last
		}
		return fi + ". " + last
	default: // "Last, F." — the dominant citation format
		if middle != "" && w.rng.Intn(2) == 0 {
			return last + ", " + fi + "." + middle + "."
		}
		return last + ", " + fi + "."
	}
}

func (w *world) changeYear() int { return 1990 + 8 } // mid-corpus

func (w *world) perturbTitle(title string) string {
	words := strings.Fields(title)
	switch w.rng.Intn(3) {
	case 0: // drop the last word
		if len(words) > 3 {
			return strings.Join(words[:len(words)-1], " ")
		}
	case 1: // typo somewhere
		return typo(w.rng, title)
	case 2: // lowercase (normalization hides this; keeps text realistic)
		return strings.ToLower(title)
	}
	return title
}

// renderMail renders the message corpus through the extractor, labeling
// every mailbox reference.
func (w *world) renderMail(acc *extract.Accumulator) error {
	store := acc.Store()
	total := w.p.scaled(w.p.Messages)
	changePoint := total / 2
	realPersons := 0
	for _, e := range w.persons {
		if !e.isList {
			realPersons++
		}
	}
	lists := len(w.persons) - realPersons
	for i := 0; i < total; i++ {
		postChange := i >= changePoint
		// The owner sends or receives most mail: the dataset owner is the
		// most popular entity, which is why dataset D's split is so
		// costly (§5.3).
		senderIdx := 0
		if w.rng.Float64() > 0.45 {
			senderIdx = w.rng.Intn(realPersons)
		}
		sender := w.persons[senderIdx]
		nRcpt := 1 + w.rng.Intn(3)
		rcpts := []int{}
		seen := map[int]bool{senderIdx: true}
		if senderIdx != 0 && w.rng.Float64() < 0.7 {
			rcpts = append(rcpts, 0) // the owner
			seen[0] = true
		}
		for len(rcpts) < nRcpt {
			var j int
			if len(sender.circle) > 0 && w.rng.Float64() < 0.8 {
				j = sender.circle[w.rng.Intn(len(sender.circle))]
			} else {
				j = w.rng.Intn(realPersons)
			}
			if seen[j] {
				if len(seen) >= realPersons {
					break
				}
				continue
			}
			seen[j] = true
			rcpts = append(rcpts, j)
		}
		// Occasionally a mailing list is a recipient.
		if lists > 0 && w.rng.Float64() < 0.12 {
			rcpts = append(rcpts, realPersons+w.rng.Intn(lists))
		}

		msg := extract.Message{
			From:    w.mailbox(sender, postChange),
			Subject: fmt.Sprintf("Re: %s", w.pick(titleNouns)),
			Date:    fmt.Sprintf("Mon, %d Mar %d 10:00:00 -0800", 1+i%28, 1998+i%7),
			ID:      fmt.Sprintf("msg-%d@%s", i, "mailer.example.org"),
		}
		ents := []*entity{sender}
		nCc := 0
		if len(rcpts) > 1 && w.rng.Float64() < 0.3 {
			nCc = 1
		}
		for k, idx := range rcpts {
			e := w.persons[idx]
			mb := w.mailbox(e, postChange)
			if k >= len(rcpts)-nCc {
				msg.Cc = append(msg.Cc, mb)
			} else {
				msg.To = append(msg.To, mb)
			}
			ents = append(ents, e)
		}
		parsed, err := extract.ParseMessage(extract.RenderMessage(msg))
		if err != nil {
			return fmt.Errorf("pim: generated invalid message: %w", err)
		}
		ids := acc.AddMessage(parsed)
		if len(ids) != len(ents) {
			return fmt.Errorf("pim: extracted %d mailboxes, expected %d", len(ids), len(ents))
		}
		for k, id := range ids {
			if id >= 0 {
				store.Get(id).Entity = ents[k].label
			}
		}
	}
	return nil
}

// mailbox renders one presentation of a person: a sampled name variant
// (possibly none) and a sampled account. Dataset D's owner presents her
// changed name and same-server account after the change point.
func (w *world) mailbox(e *entity, postChange bool) extract.Mailbox {
	variants, accounts := e.variants, e.accounts
	if e.changed && postChange {
		variants, accounts = e.changedVariants, e.changedAccounts
	}
	acct := accounts[w.rng.Intn(len(accounts))]
	mb := extract.Mailbox{Email: acct.key()}
	if w.rng.Float64() >= w.p.NoNameRate {
		mb.Name = variants[w.rng.Intn(len(variants))]
	}
	return mb
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// Validate is a convenience wrapper checking the generated store against
// the PIM schema.
func (g *Generated) Validate() error {
	return g.Store.Validate(schema.PIM())
}
