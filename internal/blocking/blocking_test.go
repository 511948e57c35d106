package blocking

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"refrecon/internal/reference"
)

func collect(x *Index) map[[2]reference.ID]bool {
	out := make(map[[2]reference.ID]bool)
	x.Pairs(func(a, b reference.ID) {
		if a >= b {
			panic("pair not ordered")
		}
		out[[2]reference.ID{a, b}] = true
	})
	return out
}

func TestPairsBasic(t *testing.T) {
	x := New(0)
	x.Add("k", 1)
	x.Add("k", 2)
	x.Add("k", 3)
	got := collect(x)
	want := [][2]reference.ID{{1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v", got)
	}
	for _, p := range want {
		if !got[p] {
			t.Errorf("missing pair %v", p)
		}
	}
}

func TestPairsDedupAcrossKeys(t *testing.T) {
	x := New(0)
	x.Add("k1", 1)
	x.Add("k1", 2)
	x.Add("k2", 1)
	x.Add("k2", 2)
	count := 0
	x.Pairs(func(a, b reference.ID) { count++ })
	if count != 1 {
		t.Errorf("pair emitted %d times, want 1", count)
	}
}

func TestPairsDedupWithinBucket(t *testing.T) {
	x := New(0)
	x.Add("k", 1)
	x.Add("k", 1)
	x.Add("k", 2)
	count := 0
	x.Pairs(func(a, b reference.ID) { count++ })
	if count != 1 {
		t.Errorf("pairs = %d, want 1", count)
	}
}

func TestBucketCap(t *testing.T) {
	x := New(2)
	x.Add("huge", 1)
	x.Add("huge", 2)
	x.Add("huge", 3)
	x.Add("ok", 4)
	x.Add("ok", 5)
	got := collect(x)
	if len(got) != 1 || !got[[2]reference.ID{4, 5}] {
		t.Errorf("pairs = %v, want only (4,5)", got)
	}
	if x.SkippedBuckets() != 1 {
		t.Errorf("SkippedBuckets = %d", x.SkippedBuckets())
	}
}

func TestEmptyKeyIgnored(t *testing.T) {
	x := New(0)
	x.Add("", 1)
	x.Add("", 2)
	if len(collect(x)) != 0 {
		t.Error("empty key should be ignored")
	}
	if x.Keys() != 0 {
		t.Errorf("Keys = %d", x.Keys())
	}
}

func TestDeterministicOrder(t *testing.T) {
	build := func() []reference.ID {
		x := New(0)
		x.Add("b", 3)
		x.Add("b", 1)
		x.Add("a", 5)
		x.Add("a", 2)
		var seq []reference.ID
		x.Pairs(func(a, b reference.ID) { seq = append(seq, a, b) })
		return seq
	}
	first := build()
	for i := 0; i < 5; i++ {
		again := build()
		if len(again) != len(first) {
			t.Fatal("nondeterministic pair count")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatal("nondeterministic pair order")
			}
		}
	}
}

// TestCandidates covers the single-query lookup: candidates for one new
// reference's key set against a prebuilt index.
func TestCandidates(t *testing.T) {
	tests := []struct {
		name string
		cap  int
		add  map[string][]reference.ID // index contents
		keys []string
		want []reference.ID
	}{
		{
			name: "empty store",
			add:  nil,
			keys: []string{"pn:smith", "pe:a@b"},
			want: nil,
		},
		{
			name: "no keys",
			add:  map[string][]reference.ID{"pn:smith": {1, 2}},
			keys: nil,
			want: nil,
		},
		{
			name: "single-class store, one shared key",
			add:  map[string][]reference.ID{"pn:smith": {2, 5}, "pn:jones": {3}},
			keys: []string{"pn:smith"},
			want: []reference.ID{2, 5},
		},
		{
			name: "union across keys, sorted and deduplicated",
			add:  map[string][]reference.ID{"a": {7, 1}, "b": {1, 4}, "c": {9}},
			keys: []string{"b", "a", "b"},
			want: []reference.ID{1, 4, 7},
		},
		{
			name: "duplicate bucket entries collapse",
			add:  map[string][]reference.ID{"a": {3, 3, 3, 1}},
			keys: []string{"a"},
			want: []reference.ID{1, 3},
		},
		{
			name: "over-cap bucket skipped",
			cap:  2,
			add:  map[string][]reference.ID{"big": {1, 2, 3}, "ok": {4, 5}},
			keys: []string{"big", "ok"},
			want: []reference.ID{4, 5},
		},
		{
			name: "missing key ignored",
			add:  map[string][]reference.ID{"a": {1}},
			keys: []string{"zz", "a"},
			want: []reference.ID{1},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			x := New(tc.cap)
			for k, ids := range tc.add {
				for _, id := range ids {
					x.Add(k, id)
				}
			}
			got := x.Candidates(tc.keys)
			if len(got) != len(tc.want) {
				t.Fatalf("Candidates(%v) = %v, want %v", tc.keys, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Candidates(%v) = %v, want %v", tc.keys, got, tc.want)
				}
			}
		})
	}
}

// TestCandidatesReadOnly pins that Candidates leaves the index unchanged:
// a Pairs sweep before and after lookups sees identical state, and the
// skipped-bucket counter is untouched (Candidates is the concurrent-reader
// path).
func TestCandidatesReadOnly(t *testing.T) {
	x := New(2)
	for k, ids := range map[string][]reference.ID{"big": {1, 2, 3}, "ok": {4, 5}} {
		for _, id := range ids {
			x.Add(k, id)
		}
	}
	var before []reference.ID
	x.Pairs(func(a, b reference.ID) { before = append(before, a, b) })
	skipped := x.SkippedBuckets()
	for i := 0; i < 3; i++ {
		x.Candidates([]string{"big", "ok"})
	}
	if got := x.SkippedBuckets(); got != skipped {
		t.Errorf("SkippedBuckets changed by Candidates: %d -> %d", skipped, got)
	}
	var after []reference.ID
	x.Pairs(func(a, b reference.ID) { after = append(after, a, b) })
	if len(before) != len(after) {
		t.Fatalf("Pairs output changed after Candidates")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("Pairs output changed after Candidates")
		}
	}
}

// bruteIndex is the reference the property test checks Index against: every
// (key, id) set kept as plain sets, each answer recomputed from scratch.
type bruteIndex struct {
	cap     int
	buckets map[string]map[reference.ID]bool
}

func (r *bruteIndex) bucket(k string) []reference.ID {
	var ids []reference.ID
	for id := range r.buckets[k] {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (r *bruteIndex) over(k string) bool { return r.cap > 0 && len(r.buckets[k]) > r.cap }

// pairs lists, key by sorted key, each within-cap bucket's pairs a < b in
// i-major order (a ascending, then b ascending), a pair emitted at its
// first key only.
func (r *bruteIndex) pairs() [][2]reference.ID {
	keys := make([]string, 0, len(r.buckets))
	for k := range r.buckets {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var out [][2]reference.ID
	seen := make(map[[2]reference.ID]bool)
	for _, k := range keys {
		if r.over(k) {
			continue
		}
		ids := r.bucket(k)
		for _, a := range ids {
			for _, b := range ids {
				if p := [2]reference.ID{a, b}; a < b && !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// TestIndexMatchesBruteForce feeds random keys through out-of-order and
// repeated Adds at caps 0, 2 and 5, and checks Pairs, PairsFrom,
// Candidates, SkippedBuckets and MaxBucket against the reference.
func TestIndexMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, bucketCap := range []int{0, 2, 5} {
			rng := rand.New(rand.NewSource(seed))
			x := New(bucketCap)
			ref := &bruteIndex{cap: bucketCap, buckets: make(map[string]map[reference.ID]bool)}
			keysOf := make(map[reference.ID][]string)
			const nIDs = 24
			for n := rng.Intn(80); n > 0; n-- {
				k := fmt.Sprintf("k%d", rng.Intn(10))
				id := reference.ID(rng.Intn(nIDs))
				x.Add(k, id)
				if ref.buckets[k] == nil {
					ref.buckets[k] = make(map[reference.ID]bool)
				}
				ref.buckets[k][id] = true
				keysOf[id] = append(keysOf[id], k)
			}
			var pairs [][2]reference.ID
			x.Pairs(func(a, b reference.ID) { pairs = append(pairs, [2]reference.ID{a, b}) })
			want := ref.pairs()
			if !slices.Equal(pairs, want) {
				t.Fatalf("seed %d cap %d: Pairs = %v, want %v", seed, bucketCap, pairs, want)
			}
			for from := reference.ID(0); from <= nIDs; from++ {
				var keys []string
				for id := from; id < nIDs; id++ {
					keys = append(keys, keysOf[id]...)
				}
				slices.Sort(keys)
				var got, sub [][2]reference.ID
				x.PairsFrom(slices.Compact(keys), from, func(a, b reference.ID) { got = append(got, [2]reference.ID{a, b}) })
				for _, p := range pairs {
					if p[1] >= from {
						sub = append(sub, p)
					}
				}
				if !slices.Equal(got, sub) {
					t.Fatalf("seed %d cap %d: PairsFrom(%d) = %v, want %v", seed, bucketCap, from, got, sub)
				}
			}
			for q := 0; q < 10; q++ {
				var keys []string
				for n := rng.Intn(4); n > 0; n-- {
					keys = append(keys, fmt.Sprintf("k%d", rng.Intn(12))) // k10, k11 absent
				}
				var union []reference.ID
				for _, k := range keys {
					if !ref.over(k) {
						union = append(union, ref.bucket(k)...)
					}
				}
				slices.Sort(union)
				union = slices.Compact(union)
				if got := x.Candidates(keys); !slices.Equal(got, union) {
					t.Fatalf("seed %d cap %d: Candidates(%v) = %v, want %v", seed, bucketCap, keys, got, union)
				}
			}
			skipped, maxBucket := 0, 0
			for k, ids := range ref.buckets {
				if ref.over(k) {
					skipped++
				}
				maxBucket = max(maxBucket, len(ids))
			}
			if x.SkippedBuckets() != skipped || x.MaxBucket() != maxBucket || x.Keys() != len(ref.buckets) {
				t.Fatalf("seed %d cap %d: SkippedBuckets %d MaxBucket %d Keys %d, want %d %d %d", seed, bucketCap,
					x.SkippedBuckets(), x.MaxBucket(), x.Keys(), skipped, maxBucket, len(ref.buckets))
			}
		}
	}
}

// TestConcurrentReaders runs Pairs and Candidates from several goroutines
// over one index: neither writes index state, so under -race they share it
// freely and each sees what a lone reader sees.
func TestConcurrentReaders(t *testing.T) {
	x := New(8)
	for id := reference.ID(0); id < 40; id++ {
		x.Add(fmt.Sprintf("k%d", id%7), id)
		x.Add(fmt.Sprintf("j%d", id%11), id)
		x.Add("all", id) // over the cap
	}
	sweep := func() ([]reference.ID, []reference.ID) {
		var seq []reference.ID
		x.Pairs(func(a, b reference.ID) { seq = append(seq, a, b) })
		return seq, x.Candidates([]string{"k1", "j2", "k3"})
	}
	wantPairs, wantCands := sweep()
	if len(wantPairs) == 0 || len(wantCands) == 0 || x.SkippedBuckets() != 1 {
		t.Fatalf("fixture: %d pair ids, %d candidates, %d skipped", len(wantPairs), len(wantCands), x.SkippedBuckets())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if p, c := sweep(); !slices.Equal(p, wantPairs) || !slices.Equal(c, wantCands) {
					t.Error("concurrent reader saw a different answer")
					return
				}
			}
		}()
	}
	wg.Wait()
}
