// Package blocking generates candidate reference pairs via inverted-index
// canopies, in the spirit of the canopy mechanism the paper adopts (§6):
// only pairs that share at least one blocking key are considered by the
// reconciler, keeping the dependency graph far below the quadratic
// all-pairs size.
//
// Every bucket is kept sorted and unique as it grows, so enumeration and
// lookup read buckets in place. Buckets that grow beyond a cap are
// skipped: an extremely common key (a stopword-like title token, a huge
// mailing list) produces quadratically many low-value candidates. Add
// counts the over-cap buckets so callers can report the coverage loss
// instead of silently truncating.
package blocking

import (
	"slices"

	"refrecon/internal/reference"
)

// Index is an inverted index from blocking keys to reference ids. Each
// bucket is sorted ascending and holds an id once. Only Add writes: any
// number of readers may run Pairs, PairsFrom and Candidates concurrently
// while no Add runs.
type Index struct {
	buckets   map[string][]reference.ID
	bucketCap int
	skipped   int
}

// New returns an index that ignores buckets larger than bucketCap when
// emitting pairs. bucketCap <= 0 means unlimited.
func New(bucketCap int) *Index {
	return &Index{buckets: make(map[string][]reference.ID), bucketCap: bucketCap}
}

// Add records that the reference exposes the blocking key. An id above
// the bucket's last one (ids fed in store order) is appended; any other is
// inserted in place, and a repeated (key, id) is dropped.
func (x *Index) Add(key string, id reference.ID) {
	if key == "" {
		return
	}
	ids := x.buckets[key]
	if n := len(ids); n == 0 || ids[n-1] < id {
		ids = append(ids, id)
	} else if i, found := slices.BinarySearch(ids, id); !found {
		ids = slices.Insert(ids, i, id)
	} else {
		return
	}
	x.buckets[key] = ids
	if x.bucketCap > 0 && len(ids) == x.bucketCap+1 {
		x.skipped++
	}
}

// Keys returns the number of distinct keys.
func (x *Index) Keys() int { return len(x.buckets) }

// SkippedBuckets returns how many buckets are over the cap: the buckets
// Pairs, PairsFrom and Candidates skip.
func (x *Index) SkippedBuckets() int { return x.skipped }

// MaxBucket returns the largest bucket's size (its distinct ids, the size
// the cap is compared against), skipped or not — the number observability
// reports to explain blocking hot spots and cap-induced coverage loss.
func (x *Index) MaxBucket() int {
	m := 0
	for _, ids := range x.buckets {
		m = max(m, len(ids))
	}
	return m
}

// over reports whether a bucket is over the cap.
func (x *Index) over(ids []reference.ID) bool {
	return x.bucketCap > 0 && len(ids) > x.bucketCap
}

// Pairs invokes fn once for every distinct unordered pair of references
// sharing at least one non-skipped key, with a < b. Iteration order is
// deterministic: PairsFrom over every key, sorted.
func (x *Index) Pairs(fn func(a, b reference.ID)) {
	keys := make([]string, 0, len(x.buckets))
	for k := range x.buckets {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	x.PairsFrom(keys, 0, fn)
}

// PairsFrom invokes fn once for every distinct unordered pair a < b with
// b >= from that shares a non-skipped key from keys, which must be sorted
// and unique. Keys are walked in order and each bucket's pairs in i-major
// order (a ascending, then b ascending); a pair met again under a later
// key is not emitted again. With keys holding every key of the ids >= from,
// it is the subsequence of Pairs whose larger id is >= from: the pairs a
// batch of new references, the store's id suffix from from on, adds.
func (x *Index) PairsFrom(keys []string, from reference.ID, fn func(a, b reference.ID)) {
	seen := make(map[uint64]struct{})
	for _, k := range keys {
		ids := x.buckets[k]
		if x.over(ids) {
			continue
		}
		start, _ := slices.BinarySearch(ids, from)
		for i, a := range ids {
			for _, b := range ids[max(i+1, start):] {
				pk := uint64(a)<<32 | uint64(uint32(b))
				if _, dup := seen[pk]; dup {
					continue
				}
				seen[pk] = struct{}{}
				fn(a, b)
			}
		}
	}
}

// Candidates returns every reference sharing at least one non-skipped key
// with the given key set — the single-query lookup ("candidates for this
// one new reference") behind query-time reconciliation. The result is a
// fresh slice, sorted and deduplicated; over-cap buckets are skipped
// exactly as Pairs skips them.
func (x *Index) Candidates(keys []string) []reference.ID {
	var out []reference.ID
	for _, k := range keys {
		if ids := x.buckets[k]; !x.over(ids) {
			out = append(out, ids...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
