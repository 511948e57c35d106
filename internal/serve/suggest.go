package serve

// The OpenRefine suggest/preview/data-extension surface (Delpeuch's
// survey): prefix autocomplete over the published snapshot's entity
// labels, an HTML flyout per entity, and bulk property extraction for
// already-reconciled ids. Everything here reads one published View, so
// results are coherent with the reconcile endpoint at the same snapshot
// version.

import (
	"fmt"
	"html"
	"sort"
	"strconv"
	"strings"

	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// Flyout dimensions advertised in the manifest preview block.
const (
	previewWidth  = 430
	previewHeight = 300
)

// suggestEntry indexes one lowercased label form of one entity.
type suggestEntry struct {
	key string
	ent *recon.Entity
}

// suggestIndex returns the view's autocomplete index, building it on
// first use. Each entity is indexed under every value of its class's
// name-like attribute (plus its display name), lowercased, so "A. Smith"
// and "Alice Smith" both complete to the same entity.
func (v *View) suggestIndex(sch *schema.Schema) []suggestEntry {
	v.suggestOnce.Do(func() {
		var idx []suggestEntry
		for _, ent := range v.Snapshot.Entities() {
			seen := make(map[string]bool, 4)
			add := func(label string) {
				k := strings.ToLower(strings.TrimSpace(label))
				if k == "" || seen[k] {
					return
				}
				seen[k] = true
				idx = append(idx, suggestEntry{key: k, ent: ent})
			}
			add(ent.Name())
			if c, ok := sch.Class(ent.Class); ok {
				for _, val := range ent.Atomic[c.NameAttr()] {
					add(val)
				}
			}
		}
		sort.Slice(idx, func(i, j int) bool {
			if idx[i].key != idx[j].key {
				return idx[i].key < idx[j].key
			}
			return idx[i].ent.Canonical < idx[j].ent.Canonical
		})
		v.suggestIdx = idx
	})
	return v.suggestIdx
}

// suggest resolves a prefix-autocomplete request against the view the
// request loaded: case-insensitive prefix match over entity labels,
// deduplicated by entity, in label order. A limit <= 0 takes the service
// default.
func (s *Service) suggest(v *View, prefix string, limit int) SuggestResult {
	s.met.suggests.Add(1)
	out := SuggestResult{Result: []SuggestCandidate{}}
	p := strings.ToLower(strings.TrimSpace(prefix))
	if p == "" {
		return out
	}
	if limit <= 0 {
		limit = defaultLimit
	}
	idx := v.suggestIndex(s.cfg.Schema)
	seen := make(map[reference.ID]bool)
	for i := sort.Search(len(idx), func(i int) bool { return idx[i].key >= p }); i < len(idx); i++ {
		if !strings.HasPrefix(idx[i].key, p) {
			break
		}
		ent := idx[i].ent
		if seen[ent.Canonical] {
			continue
		}
		seen[ent.Canonical] = true
		out.Result = append(out.Result, SuggestCandidate{
			ID:          strconv.Itoa(int(ent.Canonical)),
			Name:        ent.Name(),
			Description: fmt.Sprintf("%s · %d refs", ent.Class, len(ent.Members)),
		})
		if len(out.Result) >= limit {
			break
		}
	}
	return out
}

// extend resolves a data-extension request against the view the request
// loaded: for each requested entity id (a canonical reference id from a
// reconcile response) and property id, the unioned member-attribute values
// from the snapshot. Unknown ids get an empty row and unknown property ids
// an empty cell — extension follows reconciliation, so holes are expected,
// not errors.
func (s *Service) extend(v *View, req ExtendRequest) ExtendResponse {
	s.met.extends.Add(1)
	snap := v.Snapshot
	out := ExtendResponse{
		Meta: make([]TypeRef, 0, len(req.Properties)),
		Rows: make(map[string]map[string][]ExtendValue, len(req.IDs)),
	}
	for _, p := range req.Properties {
		out.Meta = append(out.Meta, TypeRef{ID: p.ID, Name: p.ID})
	}
	for _, ids := range req.IDs {
		row := make(map[string][]ExtendValue, len(req.Properties))
		var ent *recon.Entity
		if n, err := strconv.Atoi(ids); err == nil && n >= 0 && n < snap.RefCount() {
			ent = snap.EntityOf(reference.ID(n))
		}
		for _, p := range req.Properties {
			cells := []ExtendValue{}
			if ent != nil {
				for _, val := range ent.Atomic[p.ID] {
					cells = append(cells, ExtendValue{Str: val})
				}
			}
			row[p.ID] = cells
		}
		out.Rows[ids] = row
	}
	return out
}

// ProposeProperties lists the extendable (atomic) properties of a type
// for the manifest's propose_properties service. Unknown types propose
// nothing rather than failing — OpenRefine probes this endpoint with
// whatever type the user last reconciled against.
func (s *Service) ProposeProperties(typ string) ProposeDoc {
	doc := ProposeDoc{Type: typ, Properties: []TypeRef{}}
	c, ok := s.cfg.Schema.Class(typ)
	if !ok {
		return doc
	}
	for _, a := range c.AtomicAttrs() {
		doc.Properties = append(doc.Properties, TypeRef{ID: a.Name, Name: a.Name})
	}
	return doc
}

// previewHTML renders the entity flyout document.
func previewHTML(ent *recon.Entity, version int) string {
	var b strings.Builder
	b.WriteString("<html><head><meta charset=\"utf-8\" /></head><body style=\"margin:6px;font:12px sans-serif\">")
	fmt.Fprintf(&b, "<p><strong>%s</strong> <span style=\"color:#555\">(%s, entity %d, %d refs, snapshot v%d)</span></p>",
		html.EscapeString(ent.Name()), html.EscapeString(ent.Class), ent.Canonical, len(ent.Members), version)
	attrs := make([]string, 0, len(ent.Atomic))
	for a := range ent.Atomic {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	b.WriteString("<table>")
	for _, a := range attrs {
		fmt.Fprintf(&b, "<tr><td style=\"color:#555;vertical-align:top\">%s</td><td>%s</td></tr>",
			html.EscapeString(a), html.EscapeString(strings.Join(ent.Atomic[a], "; ")))
	}
	b.WriteString("</table></body></html>")
	return b.String()
}
