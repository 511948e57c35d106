// Package dataset bundles a reference store with its provenance and
// provides the subset operations the paper's evaluation needs (§5.3 splits
// each PIM dataset into PEmail and PArticle person subsets) plus JSON
// serialization for dumping and reloading corpora.
package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

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

// jsonDataset is the file form: the store's records under a name. The
// "references" array is an ingest batch (serve's POST /ingest takes it
// verbatim).
type jsonDataset struct {
	Name string             `json:"name"`
	Refs []reference.Record `json:"references"`
}

// WriteJSON serializes the dataset.
func (d *Dataset) WriteJSON(w io.Writer) error {
	out := jsonDataset{Name: d.Name}
	for _, r := range d.Store.All() {
		out.Refs = append(out.Refs, r.Record())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadJSON deserializes a dataset written by WriteJSON. References must be
// listed with dense ids in order.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var in jsonDataset
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	sort.Slice(in.Refs, func(i, j int) bool { return in.Refs[i].ID < in.Refs[j].ID })
	store := reference.NewStore()
	for i, rec := range in.Refs {
		if int(rec.ID) != i {
			return nil, fmt.Errorf("dataset: non-dense reference id %d at position %d", rec.ID, i)
		}
		store.Add(rec.Reference())
	}
	return &Dataset{Name: in.Name, Store: store}, nil
}
