// Package dataset bundles a reference store with its provenance and
// provides the subset operations the paper's evaluation needs (§5.3 splits
// each PIM dataset into PEmail and PArticle person subsets) plus JSON
// serialization for dumping and reloading corpora.
package dataset

import (
	"encoding/json"
	"fmt"
	"io"

	"refrecon/internal/extract"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// Dataset is a named, labeled reference store.
type Dataset struct {
	Name  string
	Store *reference.Store
}

// EntityCount returns the number of distinct gold entities of a class
// (references with empty labels are ignored).
func (d *Dataset) EntityCount(class string) int {
	seen := make(map[string]bool)
	for _, id := range d.Store.ByClass(class) {
		if e := d.Store.Get(id).Entity; e != "" {
			seen[e] = true
		}
	}
	return len(seen)
}

// filter builds a new dataset containing the references accepted by keep,
// with ids remapped densely and association links to dropped references
// removed.
func (d *Dataset) filter(name string, keep func(*reference.Reference) bool) *Dataset {
	mapping := make(map[reference.ID]reference.ID)
	for _, r := range d.Store.All() {
		if keep(r) {
			mapping[r.ID] = reference.ID(len(mapping))
		}
	}
	out := reference.NewStore()
	for _, r := range d.Store.All() {
		if _, ok := mapping[r.ID]; !ok {
			continue
		}
		rec := r.Record()
		for attr, targets := range rec.Assoc {
			kept := targets[:0]
			for _, t := range targets {
				if nt, ok := mapping[t]; ok {
					kept = append(kept, nt)
				}
			}
			rec.Assoc[attr] = kept
		}
		out.Add(rec.Reference())
	}
	return &Dataset{Name: name, Store: out}
}

// PEmail returns the §5.3 email subset: only the person references
// extracted from email, with their mutual contact links. It is a
// single-class information space with rich associations.
func (d *Dataset) PEmail() *Dataset {
	return d.filter(d.Name+"/PEmail", func(r *reference.Reference) bool {
		return r.Class == schema.ClassPerson && r.Source == extract.SourceEmail
	})
}

// PArticle returns the §5.3 article subset: everything except the
// email-extracted persons — the bibliography world of name-only person
// references, articles, and venues.
func (d *Dataset) PArticle() *Dataset {
	return d.filter(d.Name+"/PArticle", func(r *reference.Reference) bool {
		return !(r.Class == schema.ClassPerson && r.Source == extract.SourceEmail)
	})
}

// WriteJSON serializes the dataset in the file form, a reference.Batch:
// the store's records under its name, so the file is an ingest batch
// (serve's POST /ingest takes it verbatim).
func (d *Dataset) WriteJSON(w io.Writer) error {
	out := reference.Batch{Name: d.Name}
	for _, r := range d.Store.All() {
		out.References = append(out.References, r.Record())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadJSON reads a dataset file through the door an ingest batch takes:
// reference.DecodeBatch, then Admit into an empty store. Ids are assigned
// in file order; a record's "id" is informational, as on /ingest.
func ReadJSON(r io.Reader, sch *schema.Schema) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	b, err := reference.DecodeBatch(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	store := reference.NewStore()
	if err := store.Admit(sch, b.References); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	for _, rec := range b.References {
		store.Add(rec.Reference())
	}
	return &Dataset{Name: b.Name, Store: store}, nil
}
