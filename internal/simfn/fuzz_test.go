package simfn

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"refrecon/internal/obs"
)

// FuzzComparators property-checks every row of the comparator table on
// arbitrary values: clamp01 is the last line of defense before a comparator
// output becomes a node similarity, so whatever a row's function does, what
// leaves Library.Compare is in [0,1] and not NaN; a cache hit returns the
// bits the miss computed, which are the bits a cache-less Library with the
// same statistics computes; and a nil *Library still answers. The seeds are
// the comparators_test.go cases here plus the odd shapes (empty, one rune,
// 4 KiB, invalid UTF-8) in testdata/fuzz/FuzzComparators/.
func FuzzComparators(f *testing.F) {
	for _, s := range [][2]string{
		{"Michael Stonebraker", "Stonebraker, M."},
		{"Michael Stonebraker", "Jennifer Widom"},
		{"not-an-address", "a@b.edu"},
		{"Stonebraker, M.", "stonebraker@csail.mit.edu"},
		{"Distributed query processing in a relational data base system", "Distributed query processing in a relational database system"},
		{"98", "1998"},
		{"unknown", "unknown"},
		{"169-180", "pp. 169--180"},
		{"V.L.D.B.", "Very Large Data Bases"},
		{"ACM SIGMOD", "SIGMOD"},
		{"Seattle, WA", "Seattle, Washington"},
		// Venue token lists are memoized per value; the core of a name of
		// stopwords alone falls back to its content words.
		{"Proc. Intl. Conf.", "Proceedings of the International Conference"},
		{"Proc. of the ACM SIGMOD Conf.", "SIGMOD"},
	} {
		f.Add(s[0], s[1])
	}
	// One library for the whole run, fed once so that the corpus-sensitive
	// rows take their statistics branches; bare shares the statistics and
	// has neither cache.
	l := NewLibrary()
	for _, v := range []string{"Michael Stonebraker", "Stonebraker, M.", "Mike Stonebraker", "Jennifer Widom", "Wei Li"} {
		ByName.Feed(l, v)
	}
	for _, v := range []string{"The design of Postgres", "Query optimization techniques", "Access path selection in a relational database management system"} {
		ByTitle.Feed(l, v)
	}
	for _, v := range []string{"ACM SIGMOD", "Very Large Data Bases", "Proc. ICDE"} {
		ByVenueName.Feed(l, v)
	}
	ctr := obs.NewCounters()
	l.SetCounters(ctr)
	bare := *l
	bare.pairs, bare.parsed, bare.ctr = nil, nil, nil
	// full is a words-memo shard at its bound; its keys all differ from
	// "filler".
	full := make(map[string][]string, parseShardCap)
	for i := 0; i < parseShardCap; i++ {
		full[fmt.Sprintf("filler %d", i)] = nil
	}

	f.Fuzz(func(t *testing.T, a, b string) {
		// Generic reads its token lists from the library's memo: cold, warm,
		// and after the memo shard holding a was emptied at its bound, it
		// scores what a memo-less call scores, to the bit. The pair cache is
		// keyed by row, not label, so it is emptied before every step: each
		// one is a pair-cache miss.
		want := math.Float64bits(clamp01(Generic.sim(nil, a, b)))
		g := NewLibrary()
		s := &g.parsed.words[fnv1a(a)&(cacheShards-1)]
		for _, label := range []string{"g:cold", "g:warm", "g:reset"} {
			if label == "g:reset" {
				s.m = maps.Clone(full) // full, and without a
				if _, ok := s.m[a]; ok {
					delete(s.m, a)
					s.m["filler"] = nil
				}
			}
			g.pairs = &pairCache{}
			if got := g.Compare(label, a, b); math.Float64bits(got) != want {
				t.Fatalf("generic(%q, %q) %s = %v, memo-less %v", a, b, label, got, math.Float64frombits(want))
			}
		}
		if len(s.m) > 2 {
			t.Fatalf("memo shard of %q holds %d entries after its reset", a, len(s.m))
		}

		for _, c := range comparators {
			label := c.Name
			if c == Generic {
				label = "g:" + a // any label no row answers to
			}
			first := l.Compare(label, a, b)
			if math.IsNaN(first) || first < 0 || first > 1 {
				t.Fatalf("%s(%q, %q) = %v, outside [0,1]", c.Name, a, b, first)
			}
			hits := ctr.SimfnCacheHits.Load()
			if second := l.Compare(label, a, b); math.Float64bits(second) != math.Float64bits(first) || ctr.SimfnCacheHits.Load() != hits+1 {
				t.Fatalf("%s(%q, %q): %v, then %v with %d cache hits", c.Name, a, b, first, second, ctr.SimfnCacheHits.Load()-hits)
			}
			if direct := bare.CompareBy(c, label, a, b); math.Float64bits(direct) != math.Float64bits(first) {
				t.Fatalf("%s(%q, %q): %v cached, %v from a cache-less library", c.Name, a, b, first, direct)
			}
			if s := (*Library)(nil).Compare(label, a, b); math.IsNaN(s) || s < 0 || s > 1 {
				t.Fatalf("%s(%q, %q) on a nil library = %v", c.Name, a, b, s)
			}
		}
	})
}
