package recon

import (
	"strings"

	"refrecon/internal/emailaddr"
	"refrecon/internal/names"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/tokenizer"
)

// BlockingKeys exposes the canopy key function for analysis and ablation
// tooling (see internal/experiments).
func BlockingKeys(r *reference.Reference, emit func(string)) { blockingKeys(r, emit) }

// blockingKeys emits the canopy keys a reference exposes: those of its
// class's row (model.go). Two references become a candidate pair iff they
// share at least one key (the paper's pruning of the dependency graph,
// §3.1/§6). Keys are designed so that every evidence source can fire:
// person references meet through surnames, email accounts, *and*
// surname-vs-account-name cross keys, so the Name&Email evidence has
// candidates to work on.
func blockingKeys(r *reference.Reference, keys func(string)) {
	// Without a schema at hand, the attributes the reference carries stand
	// in for its class's declaration (only the default row reads it).
	c := &schema.Class{Name: r.Class}
	for _, a := range r.AtomicAttrs() {
		c.Attrs = append(c.Attrs, schema.Attribute{Name: a})
	}
	modelFor(c).blockingKeys(r, keys)
}

func (m *classModel) blockingKeys(r *reference.Reference, keys func(string)) {
	for i := range m.compare {
		if cmp := &m.compare[i]; cmp.keys != nil {
			for _, v := range r.Atomic(cmp.attrA) {
				cmp.keys(cmp.attrA, v, keys)
			}
		}
	}
}

// The key functions each take one attribute value; the rows say which
// attribute feeds which. wordKeys serves any attribute.
func wordKeys(attr, v string, keys func(string)) {
	for _, tok := range tokenizer.ContentWords(v) {
		keys("g:" + attr + ":" + tok)
	}
}

func emailKeys(_, raw string, keys func(string)) {
	addr, ok := emailaddr.Parse(raw)
	if !ok {
		return
	}
	keys("pe:" + addr.Key())
	for _, tok := range addr.LocalTokens() {
		if len(tok) >= 3 {
			keys("pl:" + tok)
		}
	}
}

func personNameKeys(_, raw string, keys func(string)) {
	n := names.Parse(raw)
	last := strings.ReplaceAll(n.Last, " ", "")
	if last != "" {
		keys("pn:" + last)
		// Cross key: surnames routinely serve as account names, so a
		// name-only reference can meet an email-only reference.
		keys("pl:" + last)
		if n.First != "" {
			keys("pl:" + string(n.First[0]) + last)
			keys("pl:" + n.First + last)
		}
	}
	if n.First != "" && !names.IsInitial(n.First) {
		formal := names.Formal(n.First)
		if last == "" {
			// Single-token names ("mike") block on the token and its
			// formal expansion so nicknames meet accounts and full
			// names.
			keys("pl:" + n.First)
			keys("pl:" + formal)
		}
		keys("pfn:" + formal)
	}
}

func venueNameKeys(_, v string, keys func(string)) {
	words := tokenizer.ContentWords(v)
	for _, tok := range words {
		keys("vt:" + tok)
	}
	// Acronym keys bridge "VLDB" and "Very Large Data Bases".
	if len(words) == 1 && len(words[0]) >= 2 && len(words[0]) <= 8 {
		keys("va:" + words[0])
	}
	if len(words) >= 2 {
		var ini strings.Builder
		for _, w := range words {
			ini.WriteByte(w[0])
		}
		keys("va:" + ini.String())
	}
}

func titleKeys(_, v string, keys func(string)) {
	words := tokenizer.ContentWords(v)
	for _, tok := range words {
		if len(tok) >= 3 {
			keys("at:" + tok)
		}
	}
	// Prefix key: robust to one-token noise deeper in the title.
	if len(words) >= 2 {
		keys("ap:" + strings.Join(words[:2], " "))
	}
}
