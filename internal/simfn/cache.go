package simfn

import (
	"sync"

	"refrecon/internal/emailaddr"
	"refrecon/internal/names"
)

// This file implements the two cache layers backing Library.Compare:
//
//   - a bounded, sharded pair-score cache keyed by (evidence, a, b), so a
//     value pair that recurs across many reference pairs — ubiquitous in
//     PIM and Cora data, where a handful of name spellings and venue
//     strings cover most references — is scored once;
//   - memoization of parsed names, email addresses and word-token lists
//     keyed by the raw value, so a value shared by many *distinct* pairs
//     is parsed once instead of once per comparison.
//
// Both caches are safe for concurrent readers and writers: the parallel
// scoring phase of graph construction calls Compare from many goroutines,
// and the serial association/enrichment wiring path re-compares values
// through the same entry points.
//
// Corpus-sensitive comparators (TF-IDF titles, venue IDF, name-population
// rarity) change meaning when library statistics grow, so pair-score
// entries are tagged with the library's statistics generation and a stale
// shard is emptied wholesale on first write after the statistics change.
// Within one construction batch the statistics are frozen (all Add* calls
// precede all Compare calls), so the tag is stable exactly when cache hits
// are sound. Parsed names, addresses and token lists are pure functions of
// the raw string and never invalidate.

const (
	// cacheShards spreads lock contention; a power of two so the shard
	// index is a mask.
	cacheShards = 32
	// pairShardCap bounds each pair-score shard. When a shard fills it is
	// reset rather than evicted entry-by-entry: the population of repeated
	// value pairs in one dataset is far below the bound, so resets only
	// guard against adversarial value diversity.
	pairShardCap = 4096
	// parseShardCap bounds each parse-memo shard.
	parseShardCap = 4096
)

// fnv1a hashes the cache key strings (FNV-1a over all parts with a
// separator, to shard uniformly without allocating a joined key).
func fnv1a(parts ...string) uint32 {
	h := uint32(2166136261)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint32(p[i])
			h *= 16777619
		}
		h ^= 0xff // separator so ("ab","c") and ("a","bc") differ
		h *= 16777619
	}
	return h
}

// pairKey identifies one scored value comparison.
type pairKey struct {
	evidence, a, b string
}

type pairShard struct {
	mu  sync.RWMutex
	gen uint64
	m   map[pairKey]float64
}

// pairCache is the sharded (evidence, valueA, valueB) -> similarity cache.
type pairCache struct {
	shards [cacheShards]pairShard
}

func (c *pairCache) shard(k pairKey) *pairShard {
	return &c.shards[fnv1a(k.evidence, k.a, k.b)&(cacheShards-1)]
}

// get returns the cached score for k at statistics generation gen.
func (c *pairCache) get(gen uint64, k pairKey) (float64, bool) {
	s := c.shard(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.gen != gen || s.m == nil {
		return 0, false
	}
	v, ok := s.m[k]
	return v, ok
}

// put records the score for k under generation gen, emptying the shard if
// it was filled under an older generation or has hit its bound. An emptied
// shard keeps its buckets: on a workload with few repeated pairs shards
// refill constantly, and a fresh map would re-grow through every rehash.
func (c *pairCache) put(gen uint64, k pairKey, v float64) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[pairKey]float64, 64)
	} else if s.gen != gen || len(s.m) >= pairShardCap {
		clear(s.m)
	}
	s.gen = gen
	s.m[k] = v
}

// parsedAddr memoizes one emailaddr.Parse result (value + ok flag).
type parsedAddr struct {
	addr emailaddr.Address
	ok   bool
}

func parseAddr(raw string) parsedAddr {
	a, ok := emailaddr.Parse(raw)
	return parsedAddr{a, ok}
}

type memoShard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// memo memoizes a pure function of a raw string. Entries never invalidate;
// a shard is emptied when it hits its bound.
type memo[V any] [cacheShards]memoShard[V]

func (c *memo[V]) get(raw string, f func(string) V) V {
	s := &c[fnv1a(raw)&(cacheShards-1)]
	s.mu.RLock()
	v, ok := s.m[raw]
	s.mu.RUnlock()
	if ok {
		return v
	}
	v = f(raw)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]V, 64)
	} else if len(s.m) >= parseShardCap {
		clear(s.m)
	}
	s.m[raw] = v
	s.mu.Unlock()
	return v
}

// parseCache memoizes parsed person names, email addresses and word-token
// lists by raw string. Token lists are shared: callers only read them.
type parseCache struct {
	names  memo[names.Name]
	emails memo[parsedAddr]
	words  memo[[]string]
}
