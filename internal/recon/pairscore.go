package recon

// Three-phase candidate-pair evaluation. The dominant cost of graph
// construction is not the fixed-point loop but the atomic attribute
// similarities (Jaro-Winkler names, TF-IDF titles, fuzzy venue Jaccard)
// computed for every blocked candidate pair. Those comparisons are pure
// functions of the two values and the (frozen-per-batch) library
// statistics, so they parallelize perfectly; everything that touches the
// graph does not, because the graph is single-writer. incorporate
// therefore splits pass 1 into:
//
//  1. serial enumeration — blocking emits candidate pairs and each pair's
//     value comparisons are listed in deterministic order;
//  2. parallel scoring — the work items fan out over the
//     internal/parallel pool, each writing similarities into its own
//     slots (results are independent of scheduling, so any worker count
//     yields bit-identical output; Workers=1 runs inline);
//  3. serial wiring — nodes and edges are created from the precomputed
//     scores in the exact order the serial path would have used.
//
// Induced pairs discovered later during association wiring still score
// serially through the same cache-backed comparators.

import (
	"refrecon/internal/parallel"
	"refrecon/internal/reference"
)

// pairItem is the unit of work of the parallel scoring phase: one
// candidate reference pair with its enumerated value comparisons and
// (after scoring) their similarities, indexed like vals.
type pairItem struct {
	r1, r2 *reference.Reference
	vals   []valCompare
	sims   []float64
}

// appendVals appends the value comparisons of a candidate pair to dst in
// the deterministic order the wiring phase evaluates them. A blocked pair's
// list is kept until its item is wired, so enumeration sizes it exactly
// (countValuePairs); the induced path consumes its list at once and reuses
// one builder-owned buffer.
func (b *builder) appendVals(dst []valCompare, r1, r2 *reference.Reference) []valCompare {
	b.eachValuePair(r1, r2, func(v valCompare) { dst = append(dst, v) })
	return dst
}

// scoreVals scores a value-comparison list serially (the induced-pair and
// incremental paths). The result lives in a builder-owned scratch buffer:
// it is consumed within the caller's wiring pass and never retained, so
// one buffer serves every induced pair.
func (b *builder) scoreVals(vals []valCompare) []float64 {
	if len(vals) == 0 {
		return nil
	}
	if cap(b.simScratch) < len(vals) {
		b.simScratch = make([]float64, len(vals)*2)
	}
	sims := b.simScratch[:len(vals)]
	for i, v := range vals {
		sims[i] = b.compare(v)
	}
	return sims
}

// scoreItems fans a batch's value comparisons out over the worker pool.
// Each item writes only its own sims slice, so the result is independent
// of scheduling; Workers=1 runs inline on the calling goroutine. When the
// observer requests profiling, workers run under a "build" pprof label so
// CPU profiles attribute the scoring fan-out to the construction phase.
func (b *builder) scoreItems(items []*pairItem) {
	phase := ""
	if b.cfg.Obs.Profiling() {
		phase = "build"
	}
	// Carve every item's sims out of one arena up front (serially), so the
	// parallel phase allocates nothing: each worker only writes through its
	// item's pre-sliced, capacity-clamped window.
	total := 0
	for _, it := range items {
		total += len(it.vals)
	}
	arena := make([]float64, total)
	off := 0
	for _, it := range items {
		n := len(it.vals)
		it.sims = arena[off : off+n : off+n]
		off += n
	}
	parallel.ForLabeled(b.cfg.Workers, len(items), phase, func(i int) {
		it := items[i]
		for j, v := range it.vals {
			it.sims[j] = b.compare(v)
		}
	})
}
