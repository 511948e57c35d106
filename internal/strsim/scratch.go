package strsim

import "sync"

// The comparators in this package run inside the propagation engine's
// serial loop (enrichment re-comparisons) and inside the parallel
// construction workers, so their per-call garbage is pure overhead. Every
// hot path borrows a scratch struct from a pool instead of allocating rune
// conversions, match tables and match flags per call; after the first few
// calls the buffers reach a steady capacity and the comparators allocate
// nothing (the alloc regression tests pin this at exactly zero).

// scratch aggregates the reusable buffers of one comparator invocation.
// Each comparator borrows one scratch for its entire computation, so the
// fields cover the union of the hot paths' needs: two rune buffers for the
// (normalized) inputs, two match-flag rows, Monge-Elkan's per-token best
// scores, and the Damerau kernel's match table and blocks.
type scratch struct {
	ra, rb []rune
	am, bm []bool
	fa, fb []float64

	// The Damerau kernel's match table (osaMatch) and block states.
	peq      []uint64
	peqRunes []rune
	peqASCII [128]int32
	osa      []osaBlock
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// appendASCII appends the bytes of s to dst as runes, stopping with ok
// false at the first byte that is not ASCII.
func appendASCII(dst []rune, s string) (out []rune, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return dst, false
		}
		dst = append(dst, rune(s[i]))
	}
	return dst, true
}

// boolRow returns *buf resized to n cleared entries.
func boolRow(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	row := (*buf)[:n]
	for i := range row {
		row[i] = false
	}
	return row
}

// floatRow returns *buf resized to n zeroed entries.
func floatRow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	row := (*buf)[:n]
	clear(row)
	return row
}
