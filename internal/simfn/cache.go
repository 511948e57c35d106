package simfn

import (
	"sync"
	"sync/atomic"

	"refrecon/internal/emailaddr"
	"refrecon/internal/names"
)

// This file implements the value dictionary (a dense uint32 id per
// distinct raw value, in first-intern order) and the caches behind
// Library.Compare: a bounded, sharded pair-score cache keyed by one uint64
// of comparator row and two value ids — a value pair recurring across
// many reference pairs, as a handful of name spellings and venue strings
// do in PIM and Cora data, is scored once, hashing no string — and memos
// of parsed forms keyed by the raw value, so a value shared by many
// distinct pairs is parsed once. All are safe for concurrent readers and
// writers. A pair-score entry is a hit only under the generation of the
// statistics its row reads (Comparator.Gen), which are frozen within a
// construction batch; parsed forms never invalidate.

const (
	cacheShardBits = 5 // shards spread lock contention
	cacheShards    = 1 << cacheShardBits
	// pairShardCap and parseShardCap bound each shard. A full shard is
	// reset rather than evicted entry-by-entry: the population of repeated
	// values in one dataset is far below the bound, so resets only guard
	// against adversarial value diversity.
	pairShardCap  = 4096
	parseShardCap = 4096
	idBits        = 30 // per value id in a pair-score key; a wider one is not cached
)

// dict is an append-only dictionary of raw values, safe to read while one
// writer interns: the id-to-value column is republished after each append,
// and its prefix is never written again.
type dict struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	vals atomic.Pointer[[]string]
}

func newDict() *dict {
	d := &dict{ids: make(map[string]uint32)}
	d.vals.Store(new([]string))
	return d
}

func (d *dict) lookup(v string) (uint32, bool) {
	d.mu.RLock()
	id, ok := d.ids[v]
	d.mu.RUnlock()
	return id, ok
}

func (d *dict) intern(v string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.ids[v]
	if !ok {
		vals := append(*d.vals.Load(), v)
		id = uint32(len(vals) - 1)
		d.ids[v] = id
		d.vals.Store(&vals)
	}
	return id
}

// value returns the raw value of an id the dictionary issued.
func (d *dict) value(id uint32) string { return (*d.vals.Load())[id] }

// fnv1a hashes a memo key (FNV-1a) to pick its shard.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// pairEntry is one cached score and the generation it was computed under.
type pairEntry struct {
	v   float64
	gen uint64
}

type pairShard struct {
	mu sync.RWMutex
	m  map[uint64]pairEntry
}

// pairCache is the sharded (row, x, y) -> similarity cache.
type pairCache [cacheShards]pairShard

// shard picks k's shard by Fibonacci hashing, which spreads consecutive ids.
func (c *pairCache) shard(k uint64) *pairShard {
	return &c[(k*0x9E3779B97F4A7C15)>>(64-cacheShardBits)]
}

func (c *pairCache) get(k, gen uint64) (float64, bool) {
	s := c.shard(k)
	s.mu.RLock()
	e, ok := s.m[k]
	s.mu.RUnlock()
	return e.v, ok && e.gen == gen
}

// put records a score; an emptied shard keeps its buckets, which a
// workload with few repeated pairs refills constantly.
func (c *pairCache) put(k, gen uint64, v float64) {
	s := c.shard(k)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64]pairEntry, 64)
	} else if len(s.m) >= pairShardCap {
		clear(s.m)
	}
	s.m[k] = pairEntry{v, gen}
	s.mu.Unlock()
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

// parseCache memoizes parsed person names, email addresses, word-token
// lists and venue token lists by raw string. Token lists are shared:
// callers only read them.
type parseCache struct {
	names  memo[names.Name]
	emails memo[parsedAddr]
	words  memo[[]string]
	venues memo[venueTokens]
}
