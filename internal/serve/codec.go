package serve

// Wire types for the OpenRefine reconciliation API (protocol version 0.2,
// after Delpeuch's survey of reconciliation services) plus the service's
// own ingest/entity/explain documents. JSONP callbacks (deprecated in 0.2)
// are not supported.

import (
	"encoding/json"
	"strconv"

	"refrecon/internal/recon"
	"refrecon/internal/reference"
)

// TypeRef names one reconciliation type (a schema class).
type TypeRef struct {
	ID   string `json:"id"`
	Name string `json:"name"`
}

// Manifest is the service manifest served at /.
type Manifest struct {
	Versions        []string            `json:"versions"`
	Name            string              `json:"name"`
	IdentifierSpace string              `json:"identifierSpace"`
	SchemaSpace     string              `json:"schemaSpace"`
	DefaultTypes    []TypeRef           `json:"defaultTypes"`
	View            *ManifestView       `json:"view,omitempty"`
	Preview         *ManifestPreview    `json:"preview,omitempty"`
	Suggest         *SuggestManifest    `json:"suggest,omitempty"`
	Extend          *ExtendManifest     `json:"extend,omitempty"`
	Collective      *CollectiveManifest `json:"collective,omitempty"`
}

// ManifestPreview tells clients where to fetch the HTML flyout for an
// entity id and how large to render it.
type ManifestPreview struct {
	URL    string `json:"url"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
}

// SuggestService locates one suggest-family service endpoint.
type SuggestService struct {
	ServiceURL  string `json:"service_url"`
	ServicePath string `json:"service_path"`
}

// SuggestManifest advertises the entity autocomplete service.
type SuggestManifest struct {
	Entity *SuggestService `json:"entity,omitempty"`
}

// ExtendManifest advertises data extension: propose_properties is the
// property-discovery endpoint OpenRefine calls before extending.
type ExtendManifest struct {
	ProposeProperties *SuggestService `json:"propose_properties,omitempty"`
}

// CollectiveManifest advertises the query modes the service accepts and
// the server-side budget defaults of the collective mode (per-query knobs
// can only lower them).
type CollectiveManifest struct {
	Modes        []string `json:"modes"`
	MaxNodes     int      `json:"maxNodes"`
	MaxHops      int      `json:"maxHops"`
	MaxNeighbors int      `json:"maxNeighbors"`
	BudgetMS     float64  `json:"budgetMs"`
}

// ManifestView tells clients how to deep-link an entity id.
type ManifestView struct {
	URL string `json:"url"`
}

// Query modes accepted by the reconcile endpoint.
const (
	// ModeAttribute is the default: attribute-only entity scoring.
	ModeAttribute = "attribute"
	// ModeCollective runs query-time collective reconciliation — bounded
	// expand-and-resolve over the snapshot's relational neighborhood —
	// and degrades to attribute-only scoring when a budget is exhausted.
	ModeCollective = "collective"
)

// ReconQuery is one entry of a reconcile batch.
type ReconQuery struct {
	// Query is the free-text query, matched against the class's name-like
	// attribute.
	Query string `json:"query"`
	// Type restricts the query to one class; empty queries every class.
	Type string `json:"type,omitempty"`
	// Limit bounds the number of candidates returned.
	Limit int `json:"limit,omitempty"`
	// Properties carry additional attribute constraints; PID is the
	// attribute name. In collective mode a PID naming an association
	// attribute carries stored reference ids instead of values.
	Properties []QueryProperty `json:"properties,omitempty"`
	// Mode selects the scoring path: "" or "attribute" for attribute-only
	// scoring, "collective" for query-time collective reconciliation.
	Mode string `json:"mode,omitempty"`
	// MaxNodes, MaxHops, and BudgetMS lower the server's collective
	// budgets for this query (they can never raise them). Zero keeps the
	// server default. Ignored outside collective mode.
	MaxNodes int     `json:"maxNodes,omitempty"`
	MaxHops  int     `json:"maxHops,omitempty"`
	BudgetMS float64 `json:"budgetMs,omitempty"`
}

// QueryProperty is one property constraint of a query.
type QueryProperty struct {
	PID string          `json:"pid"`
	V   json.RawMessage `json:"v"`
}

// values flattens the property value into strings: a scalar, an array of
// scalars, or an object with an "id" field are all accepted.
func (p QueryProperty) values() []string {
	var out []string
	add := func(raw json.RawMessage) {
		var s string
		if err := json.Unmarshal(raw, &s); err == nil {
			if s != "" {
				out = append(out, s)
			}
			return
		}
		var n float64
		if err := json.Unmarshal(raw, &n); err == nil {
			out = append(out, strconv.FormatFloat(n, 'f', -1, 64))
			return
		}
		var obj struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &obj); err == nil && obj.ID != "" {
			out = append(out, obj.ID)
		}
	}
	if len(p.V) == 0 {
		return nil
	}
	var arr []json.RawMessage
	if err := json.Unmarshal(p.V, &arr); err == nil {
		for _, el := range arr {
			add(el)
		}
		return out
	}
	add(p.V)
	return out
}

// ReconCandidate is one candidate in a reconcile result.
type ReconCandidate struct {
	ID    string    `json:"id"`
	Name  string    `json:"name"`
	Type  []TypeRef `json:"type"`
	Score float64   `json:"score"`
	Match bool      `json:"match"`
}

// ReconResult is the per-query result envelope.
type ReconResult struct {
	Result []ReconCandidate `json:"result"`
}

// SuggestCandidate is one entity autocomplete hit.
type SuggestCandidate struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

// SuggestResult is the /suggest/entity response envelope.
type SuggestResult struct {
	Result []SuggestCandidate `json:"result"`
}

// ExtendRequest is the data-extension payload: entity ids from earlier
// reconcile responses plus the property ids to fetch for each.
type ExtendRequest struct {
	IDs        []string         `json:"ids"`
	Properties []ExtendProperty `json:"properties"`
}

// ExtendProperty names one requested property.
type ExtendProperty struct {
	ID string `json:"id"`
}

// ExtendValue is one property value cell; this service only serves string
// values.
type ExtendValue struct {
	Str string `json:"str"`
}

// ExtendResponse is the data-extension response: meta echoes the
// requested properties, rows maps entity id → property id → values.
type ExtendResponse struct {
	Meta []TypeRef                           `json:"meta"`
	Rows map[string]map[string][]ExtendValue `json:"rows"`
}

// ProposeDoc is the /properties (propose_properties) response.
type ProposeDoc struct {
	Type       string    `json:"type"`
	Properties []TypeRef `json:"properties"`
}

// toWire renders recon candidates into the protocol shape. Scores are
// scaled to [0, 100], the convention most OpenRefine services follow.
func toWire(cands []recon.Candidate) ReconResult {
	out := ReconResult{Result: make([]ReconCandidate, 0, len(cands))}
	for _, c := range cands {
		out.Result = append(out.Result, ReconCandidate{
			ID:    strconv.Itoa(int(c.Entity.Canonical)),
			Name:  c.Entity.Name(),
			Type:  []TypeRef{{ID: c.Entity.Class, Name: c.Entity.Class}},
			Score: c.Score * 100,
			Match: c.Match,
		})
	}
	return out
}

// IngestRef is one reference in an ingest batch: the record form every
// layer shares (reference.Record), so a dataset file's "references" array
// (cmd/pimgen, dataset.WriteJSON) can be POSTed to /ingest verbatim. The
// "id" field is ignored — the service assigns dense ids — but association
// targets must be expressed in final id space (prior store size + position
// for intra-batch links, which a verbatim dataset file ingested into an
// empty service satisfies).
type IngestRef = reference.Record

// ToIngestRef renders a reference for ingest: its record without the id,
// which belongs to the store it came from.
func ToIngestRef(r *reference.Reference) IngestRef {
	rec := r.Record()
	rec.ID = 0
	return rec
}

// IngestResponse reports one applied batch.
type IngestResponse struct {
	Added           int          `json:"added"`
	FirstID         reference.ID `json:"firstId"`
	LastID          reference.ID `json:"lastId"`
	SnapshotVersion int          `json:"snapshotVersion"`
	References      int          `json:"references"`
	ElapsedMS       float64      `json:"elapsedMs"`
}

// EntityDoc is the /entity/{id} document.
type EntityDoc struct {
	ID              string              `json:"id"`
	Name            string              `json:"name"`
	Type            []TypeRef           `json:"type"`
	Canonical       reference.ID        `json:"canonical"`
	Members         []reference.ID      `json:"members"`
	Atomic          map[string][]string `json:"atomic"`
	SnapshotVersion int                 `json:"snapshotVersion"`
}

// ExplainDoc is the /explain/{a}/{b} document: the structured explanation
// plus its human-readable rendering.
type ExplainDoc struct {
	A               reference.ID         `json:"a"`
	B               reference.ID         `json:"b"`
	Same            bool                 `json:"same"`
	Path            []recon.PairDecision `json:"path,omitempty"`
	Direct          *recon.PairDecision  `json:"direct,omitempty"`
	Rendered        string               `json:"rendered"`
	SnapshotVersion int                  `json:"snapshotVersion"`
}

// errorDoc is the error envelope for non-2xx responses.
type errorDoc struct {
	Error string `json:"error"`
}
