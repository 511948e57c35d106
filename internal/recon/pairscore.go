package recon

// Three-phase candidate-pair evaluation. The dominant cost of graph
// construction is the atomic attribute similarities of every blocked
// candidate pair: pure functions of two values and the frozen-per-batch
// library statistics, so they parallelize perfectly, while the graph is
// single-writer. incorporate therefore splits pass 1 into serial
// enumeration (each pair's value comparisons listed in deterministic
// order), parallel scoring over the internal/parallel pool (each item
// writes its own slots, so any worker count yields bit-identical output),
// and serial wiring in the order the serial path would have used. Induced
// pairs found later during association wiring score serially through the
// same cache.

import (
	"slices"

	"refrecon/internal/parallel"
	"refrecon/internal/reference"
)

// pairItem is the unit of work of the parallel scoring phase: one
// candidate reference pair and the range [lo, hi) its value comparisons
// take in the batch's list, and their similarities in the scored one.
type pairItem struct {
	r1, r2 *reference.Reference
	lo, hi int
}

// appendVals appends the value comparisons of a candidate pair to dst in
// the deterministic order the wiring phase evaluates them.
func (b *builder) appendVals(dst []valCompare, r1, r2 *reference.Reference) []valCompare {
	return b.evidence.appendVals(dst, r1.Class, b.rowOf(r1), b.rowOf(r2))
}

// scoreVals scores a value-comparison list serially (the induced-pair and
// incremental paths). The result lives in a builder-owned scratch buffer:
// it is consumed within the caller's wiring pass and never retained, so
// one buffer serves every induced pair.
func (b *builder) scoreVals(vals []valCompare) []float64 {
	b.simScratch = slices.Grow(b.simScratch[:0], len(vals))[:len(vals)]
	for i, v := range vals {
		b.simScratch[i] = b.compare(v)
	}
	return b.simScratch
}

// scoreItems fans a batch's value comparisons out over the worker pool and
// returns their similarities, indexed like vals. Each item writes only its
// own range, so the result is independent of scheduling; Workers=1 runs
// inline. When the observer requests profiling, workers run under a
// "build" pprof label.
func (b *builder) scoreItems(items []pairItem, vals []valCompare) []float64 {
	phase := ""
	if b.cfg.Obs.Profiling() {
		phase = "build"
	}
	sims := make([]float64, len(vals))
	parallel.ForLabeled(b.cfg.Workers, len(items), phase, func(i int) {
		for j := items[i].lo; j < items[i].hi; j++ {
			sims[j] = b.compare(vals[j])
		}
	})
	return sims
}
