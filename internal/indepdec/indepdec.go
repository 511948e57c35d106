// Package indepdec implements the INDEPDEC baseline of §5.2: a candidate
// standard reference reconciliation approach in the spirit of merge/purge
// [21] and canopy-based reference matching [27].
//
// INDEPDEC compares each pair of same-class references by their atomic
// attributes *independently* — names with names, emails with emails — and
// combines the scores into a single similarity with the *same* similarity
// functions and thresholds as DepGraph. It never compares values across
// attributes, never consults associations, never propagates or enriches,
// and enforces no constraints. The final partition is the transitive
// closure of above-threshold pairs.
package indepdec

import (
	"fmt"
	"runtime"
	"sync"

	"refrecon/internal/blocking"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
	"refrecon/internal/tokenizer"
	"refrecon/internal/unionfind"
)

// Config holds the baseline's parameters. These mirror the DepGraph
// settings so the comparison isolates the algorithmic difference (§5.2:
// "we use the same similarity functions and thresholds for INDEPDEC and
// DEPGRAPH").
type Config struct {
	// MergeThreshold is the pair merge threshold (default 0.85).
	MergeThreshold float64
	// BucketCap bounds blocking bucket sizes (0 = unlimited).
	BucketCap int
	// Workers sets the parallelism of pair scoring. Pair comparisons are
	// independent, so the baseline scores them on a worker pool; the
	// result is deterministic regardless of worker count. 0 means
	// GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the published settings.
func DefaultConfig() Config {
	return Config{MergeThreshold: 0.85, BucketCap: 512}
}

// Result is the baseline's output, shaped like recon.Result.
type Result struct {
	Partitions map[string][][]reference.ID
	Assignment map[reference.ID]int
	// ComparedPairs counts candidate pairs scored.
	ComparedPairs int
}

// PartitionCount returns the number of partitions for a class.
func (r *Result) PartitionCount(class string) int { return len(r.Partitions[class]) }

// SameEntity reports whether two references landed in the same partition.
func (r *Result) SameEntity(a, b reference.ID) bool {
	pa, okA := r.Assignment[a]
	pb, okB := r.Assignment[b]
	return okA && okB && pa == pb
}

// Reconciler is the INDEPDEC baseline.
type Reconciler struct {
	sch *schema.Schema
	cfg Config
}

// New returns a baseline reconciler.
func New(sch *schema.Schema, cfg Config) *Reconciler {
	if cfg.MergeThreshold == 0 {
		cfg.MergeThreshold = 0.85
	}
	return &Reconciler{sch: sch, cfg: cfg}
}

// attrCompare is one same-attribute comparison and its evidence label.
type attrCompare struct{ attr, evidence string }

// attrEvidence lists, per class, the same-attribute comparisons and the
// score row that combines them.
var attrEvidence = map[string]struct {
	score   *simfn.ClassScore
	compare []attrCompare
}{
	schema.ClassPerson: {simfn.ScorePerson, []attrCompare{
		{schema.AttrName, simfn.EvName},
		{schema.AttrEmail, simfn.EvEmail},
	}},
	schema.ClassArticle: {simfn.ScoreArticle, []attrCompare{
		{schema.AttrTitle, simfn.EvTitle},
		{schema.AttrYear, simfn.EvYear},
		{schema.AttrPages, simfn.EvPages},
	}},
	schema.ClassVenue: {simfn.ScoreVenue, []attrCompare{
		{schema.AttrName, simfn.EvVenueName},
		{schema.AttrYear, simfn.EvYear},
		{schema.AttrLocation, simfn.EvLocation},
	}},
}

// Reconcile partitions the store's references attribute-wise.
func (rc *Reconciler) Reconcile(store *reference.Store) (*Result, error) {
	if err := store.Validate(rc.sch); err != nil {
		return nil, fmt.Errorf("indepdec: invalid input: %w", err)
	}
	lib := simfn.NewLibrary()
	for _, r := range store.All() {
		for _, t := range r.Atomic(schema.AttrTitle) {
			lib.Titles.Add(t)
		}
		if r.Class == schema.ClassVenue {
			for _, v := range r.Atomic(schema.AttrName) {
				lib.Venues.Add(v)
			}
		}
	}
	uf := unionfind.New(store.Len())
	res := &Result{
		Partitions: make(map[string][][]reference.ID),
		Assignment: make(map[reference.ID]int, store.Len()),
	}
	workers := rc.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, class := range store.Classes() {
		idx := blocking.New(rc.cfg.BucketCap)
		for _, id := range store.ByClass(class) {
			blockKeysAttrWise(store.Get(id), func(k string) { idx.Add(k, id) })
		}
		var pairs [][2]reference.ID
		idx.Pairs(func(x, y reference.ID) {
			pairs = append(pairs, [2]reference.ID{x, y})
		})
		res.ComparedPairs += len(pairs)

		// Score in parallel; apply unions sequentially in pair order so
		// the result does not depend on scheduling.
		matched := make([]bool, len(pairs))
		var wg sync.WaitGroup
		chunk := (len(pairs) + workers - 1) / workers
		for w := 0; w < workers && w*chunk < len(pairs); w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(pairs) {
				hi = len(pairs)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					p := pairs[i]
					matched[i] = rc.pairSim(lib, store.Get(p[0]), store.Get(p[1])) >= rc.cfg.MergeThreshold
				}
			}(lo, hi)
		}
		wg.Wait()
		for i, p := range pairs {
			if matched[i] {
				uf.Union(int(p[0]), int(p[1]))
			}
		}
	}
	for label, part := range uf.Partitions() {
		class := store.Get(reference.ID(part[0])).Class
		ids := make([]reference.ID, len(part))
		for i, v := range part {
			ids[i] = reference.ID(v)
			res.Assignment[reference.ID(v)] = label
		}
		res.Partitions[class] = append(res.Partitions[class], ids)
	}
	return res, nil
}

// pairSim combines the attribute-wise similarities with the shared S_rv
// decision trees (the baseline gets the same missing-value and key-
// attribute treatment as DepGraph, §5.4).
func (rc *Reconciler) pairSim(lib *simfn.Library, r1, r2 *reference.Reference) float64 {
	row, ok := attrEvidence[r1.Class]
	if !ok {
		return 0 // the baseline compares nothing of other classes
	}
	var ev simfn.Evidence
	for _, ae := range row.compare {
		best, seen := 0.0, false
		for _, v1 := range r1.Atomic(ae.attr) {
			for _, v2 := range r2.Atomic(ae.attr) {
				seen = true
				if s := lib.Compare(ae.evidence, v1, v2); s > best {
					best = s
				}
			}
		}
		if seen {
			ev.Observe(ae.evidence, best)
		}
	}
	return row.score.SRV(&ev)
}

// blockKeysAttrWise emits blocking keys from same-attribute values only,
// mirroring what the baseline is allowed to compare.
func blockKeysAttrWise(r *reference.Reference, keys func(string)) {
	for _, attr := range r.AtomicAttrs() {
		for _, v := range r.Atomic(attr) {
			for _, tok := range tokenizer.Words(v) {
				if len(tok) >= 3 {
					keys(attr + ":" + tok)
				}
			}
			keys(attr + "=" + tokenizer.Normalize(v))
		}
	}
}
