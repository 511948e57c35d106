// Package loadgen builds and replays deterministic mixed ingest+query
// workloads against a reconciliation service — the standing proof behind
// the "heavy traffic" north star and the regression gate for every
// scaling PR. A workload is fully materialized up front from a seeded
// generator (same seed ⇒ identical request stream, byte for byte), then
// replayed by a pool of closed-loop clients or an open-loop arrival
// process while a single writer feeds ingest batches in order, paced by
// query progress.
package loadgen

import (
	"fmt"
	"math/rand"

	"refrecon/internal/datagen/biblio"
	"refrecon/internal/datagen/catalog"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/serve"
)

// Config parameterizes workload generation. The zero value is invalid;
// start from Defaults.
type Config struct {
	// Dataset selects the corpus generator: "biblio" (noisy bibliographic
	// references over the PIM schema) or "catalog" (multi-storefront
	// product catalog over schema.Catalog()).
	Dataset string
	// Refs is the corpus size in references.
	Refs int
	// Queries is the number of reconcile queries in the stream.
	Queries int
	// Seed drives corpus generation, query sampling, and interleaving.
	Seed int64
	// BatchSize is the target ingest batch size; batches extend past it
	// when splitting would strand an intra-record association link.
	BatchSize int
	// Collective is the fraction of queries issued in collective mode.
	Collective float64
	// Properties is the fraction of queries that carry property filters
	// lifted from the sampled reference's other attributes.
	Properties float64
	// Typeless is the fraction of queries sent without a type (full class
	// fan-out on the server).
	Typeless float64
	// UnknownPID is the fraction of property-carrying queries that also
	// include a pid foreign to every class — the spec says servers ignore
	// these, and the replayer counts any resulting error against the
	// server.
	UnknownPID float64
}

// Defaults returns the standard mixed workload over the dataset.
func Defaults(dataset string, refs, queries int, seed int64) Config {
	return Config{
		Dataset:    dataset,
		Refs:       refs,
		Queries:    queries,
		Seed:       seed,
		BatchSize:  256,
		Collective: 0.25,
		Properties: 0.5,
		Typeless:   0.1,
		UnknownPID: 0.05,
	}
}

// Workload is one materialized request stream.
type Workload struct {
	Config Config
	// Schema is the schema the serving side must run.
	Schema *schema.Schema
	// Batches are the ingest batches, in issue order. Association targets
	// are expressed in final id space; batch boundaries never strand a
	// link (every target id is below the issuing batch's end).
	Batches [][]serve.IngestRef
	// IngestAt[i] is the number of completed queries after which batch i
	// is issued; batch 0 is always issued before any query.
	IngestAt []int
	// Queries is the query stream in issue order.
	Queries []serve.ReconQuery
	// Gold maps each query index to the sampled reference's entity label
	// (informational; the replayer does not score accuracy).
	Gold []string
}

// SchemaFor maps a dataset name to the schema it is generated over.
func SchemaFor(dataset string) (*schema.Schema, error) {
	switch dataset {
	case "biblio":
		return schema.PIM(), nil
	case "catalog":
		return schema.Catalog(), nil
	default:
		return nil, fmt.Errorf("loadgen: unknown dataset %q (want biblio or catalog)", dataset)
	}
}

// Build materializes the workload: it generates the corpus, cuts it into
// ingest batches, and samples the query stream. Everything is driven by
// Config.Seed — the same config always produces the identical workload.
func Build(cfg Config) (*Workload, error) {
	if cfg.Refs < 1 || cfg.Queries < 0 {
		return nil, fmt.Errorf("loadgen: bad sizes (refs %d, queries %d)", cfg.Refs, cfg.Queries)
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 256
	}
	sch, err := SchemaFor(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	var store *reference.Store
	switch cfg.Dataset {
	case "biblio":
		g, err := biblio.Generate(biblio.Default(cfg.Refs, cfg.Seed))
		if err != nil {
			return nil, err
		}
		store = g.Store
	case "catalog":
		g, err := catalog.Generate(catalog.Default(cfg.Refs, cfg.Seed))
		if err != nil {
			return nil, err
		}
		store = g.Store
	}

	w := &Workload{Config: cfg, Schema: sch}
	w.cutBatches(store, cfg.BatchSize)
	w.sampleQueries(store, sch)
	return w, nil
}

// cutBatches slices the store into ingest batches of roughly BatchSize,
// extending a batch whenever one of its references links forward past the
// tentative boundary (the serve API requires association targets to be
// resolvable within the prefix ingested so far plus the batch itself).
func (w *Workload) cutBatches(store *reference.Store, batchSize int) {
	refs := store.All()
	for start := 0; start < len(refs); {
		end := start + batchSize
		if end > len(refs) {
			end = len(refs)
		}
		// Grow until no reference in [start, end) links to an id >= end.
		for {
			grown := end
			for i := start; i < end; i++ {
				for _, attr := range refs[i].AssocAttrs() {
					for _, t := range refs[i].Assoc(attr) {
						if int(t) >= grown {
							grown = int(t) + 1
						}
					}
				}
			}
			if grown == end {
				break
			}
			end = grown
		}
		batch := make([]serve.IngestRef, 0, end-start)
		for i := start; i < end; i++ {
			batch = append(batch, serve.ToIngestRef(refs[i]))
		}
		w.Batches = append(w.Batches, batch)
		start = end
	}
}

// sampleQueries builds the query stream. Batch 0 is issued up front; the
// remaining batches are spread evenly across the query timeline, and each
// query samples a reference from the prefix already scheduled for ingest
// at its position, so queries mostly hit resolvable data while ingest
// runs concurrently.
func (w *Workload) sampleQueries(store *reference.Store, sch *schema.Schema) {
	cfg := w.Config
	rng := rand.New(rand.NewSource(cfg.Seed + 0x10adee))

	// Ingest schedule: batch 0 before any query, the rest evenly spaced
	// across the query timeline.
	w.IngestAt = make([]int, len(w.Batches))
	for i := 1; i < len(w.Batches); i++ {
		w.IngestAt[i] = i * cfg.Queries / len(w.Batches)
	}
	// covered[q] = store prefix length scheduled at or before query q.
	batchEnd := make([]int, len(w.Batches))
	sum := 0
	for i, b := range w.Batches {
		sum += len(b)
		batchEnd[i] = sum
	}

	w.Queries = make([]serve.ReconQuery, 0, cfg.Queries)
	w.Gold = make([]string, 0, cfg.Queries)
	for qi := 0; qi < cfg.Queries; qi++ {
		prefix := batchEnd[0]
		for i := 1; i < len(w.Batches); i++ {
			if w.IngestAt[i] <= qi {
				prefix = batchEnd[i]
			}
		}
		r := store.Get(reference.ID(rng.Intn(prefix)))
		w.Queries = append(w.Queries, w.buildQuery(rng, sch, r))
		w.Gold = append(w.Gold, r.Entity)
	}
}

// buildQuery renders one reconcile query from a sampled reference: free
// text from the class's name-like attribute, optional property filters
// from its other atomic attributes (plus association-id evidence in
// collective mode), and the mode/type mix the config asks for.
func (w *Workload) buildQuery(rng *rand.Rand, sch *schema.Schema, r *reference.Reference) serve.ReconQuery {
	cfg := w.Config
	c, _ := sch.Class(r.Class)
	q := serve.ReconQuery{Type: r.Class}
	if rng.Float64() < cfg.Typeless {
		q.Type = ""
	}
	name := c.NameAttr()
	q.Query = r.FirstAtomic(name)
	if q.Query == "" {
		// A reference with no name-like value (e.g. a dropped field):
		// fall back to any atomic value it has.
		for _, a := range r.AtomicAttrs() {
			if v := r.FirstAtomic(a); v != "" {
				q.Query = v
				break
			}
		}
	}
	collective := rng.Float64() < cfg.Collective
	if collective {
		q.Mode = serve.ModeCollective
	}
	if rng.Float64() < cfg.Properties {
		for _, a := range r.AtomicAttrs() {
			if a == name {
				continue
			}
			for _, v := range r.Atomic(a) {
				q.Properties = append(q.Properties, serve.QueryProperty{PID: a, V: jsonString(v)})
			}
		}
		if collective {
			// Association evidence: the reference's own link targets, in
			// final id space — exactly what a client holding previously
			// reconciled rows would send.
			for _, a := range r.AssocAttrs() {
				for _, t := range r.Assoc(a) {
					q.Properties = append(q.Properties, serve.QueryProperty{PID: a, V: jsonString(fmt.Sprintf("%d", t))})
				}
			}
		}
		if rng.Float64() < cfg.UnknownPID {
			q.Properties = append(q.Properties, serve.QueryProperty{PID: "x-loadgen-unknown", V: jsonString("ignored")})
		}
	}
	return q
}

// jsonString renders a JSON string literal for a QueryProperty value.
func jsonString(s string) []byte {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		switch b := s[i]; {
		case b == '"' || b == '\\':
			out = append(out, '\\', b)
		case b < 0x20:
			out = append(out, []byte(fmt.Sprintf("\\u%04x", b))...)
		default:
			out = append(out, b)
		}
	}
	return append(out, '"')
}
