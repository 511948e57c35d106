package strsim

import (
	"math"
	"slices"
	"sort"
	"sync"

	"refrecon/internal/tokenizer"
)

// tokenSet sorts and deduplicates a freshly produced token slice in place,
// yielding a sorted-set representation. Merge joins over two such sets
// replace the map-based set operations this package used to build per call.
func tokenSet(toks []string) []string {
	slices.Sort(toks)
	return slices.Compact(toks)
}

// sortedIntersection counts the common elements of two sorted deduped sets.
func sortedIntersection(a, b []string) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

func sortedJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := sortedIntersection(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// JaccardTokens returns |A ∩ B| / |A ∪ B| over the word-token sets of a and
// b. Two strings with no tokens at all are considered identical.
func JaccardTokens(a, b string) float64 {
	return sortedJaccard(tokenSet(tokenizer.Words(a)), tokenSet(tokenizer.Words(b)))
}

// JaccardContentTokens is JaccardTokens over stopword-filtered tokens,
// appropriate for titles and venue names.
func JaccardContentTokens(a, b string) float64 {
	return sortedJaccard(tokenSet(tokenizer.ContentWords(a)), tokenSet(tokenizer.ContentWords(b)))
}

func toSet(toks []string) map[string]bool {
	if len(toks) == 0 {
		return nil
	}
	s := make(map[string]bool, len(toks))
	for _, t := range toks {
		s[t] = true
	}
	return s
}

// MongeElkan computes the Monge-Elkan hybrid similarity over the word
// tokens of a and b: for each token of one list, the best inner similarity
// against the other list's tokens is found, and the scores are averaged.
// The inner comparator defaults to Jaro-Winkler when inner is nil; a
// caller-supplied one must be symmetric, since each token pair is scored
// once for both directions. Monge-Elkan tolerates token reordering and
// per-token typos simultaneously, which suits multi-word names and venue
// strings.
func MongeElkan(a, b string, inner func(string, string) float64) float64 {
	return mongeElkan(tokenizer.Words(a), tokenizer.Words(b), inner)
}

// MongeElkanTokens is MongeElkan with Jaro-Winkler over two token lists of
// tokenizer.Words, for callers that already hold them. The lists are only
// read.
func MongeElkanTokens(ta, tb []string) float64 {
	return mongeElkan(ta, tb, nil)
}

// mongeElkan scores every token pair once, keeping the best score of each
// token of ta (row maxima) and of tb (column maxima); a nil inner is
// Jaro-Winkler, under which equal tokens score exactly 1 without a call.
func mongeElkan(ta, tb []string, inner func(string, string) float64) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sc := getScratch()
	rowMax, colMax := floatRow(&sc.fa, len(ta)), floatRow(&sc.fb, len(tb))
	for i, x := range ta {
		for j, y := range tb {
			var s float64
			switch {
			case inner != nil:
				s = inner(x, y)
			case x == y:
				s = 1
			default:
				s = winklerTokens(sc, x, y)
			}
			if s > rowMax[i] {
				rowMax[i] = s
			}
			if s > colMax[j] {
				colMax[j] = s
			}
		}
	}
	sumA, sumB := 0.0, 0.0
	for _, s := range rowMax {
		sumA += s
	}
	for _, s := range colMax {
		sumB += s
	}
	putScratch(sc)
	// Symmetrize: average of both directions, so the measure stays
	// symmetric like every other comparator in this package. Clamp: a
	// caller-supplied inner comparator may stray outside [0,1].
	return clamp01((sumA/float64(len(ta)) + sumB/float64(len(tb))) / 2)
}

// Corpus accumulates document frequencies for TF-IDF weighted comparisons.
// Add every string of a comparable population (e.g. all article titles)
// before querying CosineSim. The zero value is not usable; construct with
// NewCorpus. Corpus is not safe for concurrent mutation, but concurrent
// readers (CosineSim, IDF) are safe as long as no Add runs alongside them.
type Corpus struct {
	docFreq map[string]int
	docs    int

	// gen counts mutations; cached document vectors computed under an
	// older generation are discarded, since IDF weights shift with every
	// Add.
	gen uint64
	// vecs memoizes per-document TF-IDF vectors (with their norms) so that
	// a string compared against many counterparts is vectorized once. It
	// is lock-guarded: the reconciler scores candidate pairs from multiple
	// goroutines.
	vecMu  sync.RWMutex
	vecGen uint64
	vecs   map[string]tfidfVec
}

// vecCap bounds the vector memo; a full memo is reset wholesale (the
// distinct-document population of one dataset sits far below the bound).
const vecCap = 1 << 15

// tfidfVec is a memoized document vector with its precomputed L2 norm.
// Tokens are sorted, so dot products and norms accumulate in a fixed
// order — floating-point results are identical across runs and worker
// counts (a map-ordered sum would vary in the last ulp).
type tfidfVec struct {
	toks []string
	w    []float64
	norm float64
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{docFreq: make(map[string]int)}
}

// Add registers one document's token set in the corpus statistics.
func (c *Corpus) Add(s string) {
	c.docs++
	c.gen++
	for t := range toSet(tokenizer.ContentWords(s)) {
		c.docFreq[t]++
	}
}

// Gen returns the corpus mutation generation; callers caching results that
// depend on corpus statistics key them by this value.
func (c *Corpus) Gen() uint64 { return c.gen }

// Docs returns the number of documents added.
func (c *Corpus) Docs() int { return c.docs }

// IDF returns the smoothed inverse document frequency of the (normalized)
// token t: log(1 + (N+1)/(df+1)). Rare tokens score high; tokens absent
// from the corpus score highest.
func (c *Corpus) IDF(t string) float64 { return c.idf(t) }

// idf returns the smoothed inverse document frequency of token t.
func (c *Corpus) idf(t string) float64 {
	df := c.docFreq[t]
	return math.Log(1 + float64(c.docs+1)/float64(df+1))
}

// CosineSim returns the TF-IDF weighted cosine similarity of a and b under
// the corpus statistics. Rare tokens (high IDF) dominate the score, so two
// titles agreeing on distinctive words match strongly even if they disagree
// on common ones. With an empty corpus it degrades to unweighted cosine.
func (c *Corpus) CosineSim(a, b string) float64 {
	if a == b {
		// dot and norm² accumulate the same products in different orders;
		// a self-comparison can land one ulp below 1, which matters to
		// consumers gating on the exact value-pair threshold of 1.
		return 1
	}
	va := c.vectorCached(a)
	vb := c.vectorCached(b)
	if len(va.w) == 0 && len(vb.w) == 0 {
		return 1
	}
	if len(va.w) == 0 || len(vb.w) == 0 {
		return 0
	}
	// Merge join over the sorted token lists: deterministic accumulation
	// order, no map lookups.
	dot := 0.0
	i, j := 0, 0
	for i < len(va.toks) && j < len(vb.toks) {
		switch {
		case va.toks[i] == vb.toks[j]:
			dot += va.w[i] * vb.w[j]
			i++
			j++
		case va.toks[i] < vb.toks[j]:
			i++
		default:
			j++
		}
	}
	denom := va.norm * vb.norm
	if denom == 0 {
		return 0
	}
	// Rounding can push a self-comparison one ulp above 1 (dot and norm²
	// accumulate the same products in different orders); downstream
	// consumers require similarities in [0,1] exactly.
	return clamp01(dot / denom)
}

// clamp01 forces a similarity into [0,1], mapping NaN to 0.
func clamp01(s float64) float64 {
	switch {
	case s > 1:
		return 1
	case s >= 0:
		return s
	default: // negative or NaN
		return 0
	}
}

// vectorCached returns the memoized TF-IDF vector of s under the current
// corpus generation, computing and recording it on a miss. Memoized
// vectors are shared across goroutines and must be treated as immutable.
func (c *Corpus) vectorCached(s string) tfidfVec {
	c.vecMu.RLock()
	if c.vecGen == c.gen {
		if v, ok := c.vecs[s]; ok {
			c.vecMu.RUnlock()
			return v
		}
	}
	c.vecMu.RUnlock()
	v := c.buildVector(s)
	c.vecMu.Lock()
	if c.vecGen != c.gen || c.vecs == nil || len(c.vecs) >= vecCap {
		c.vecs = make(map[string]tfidfVec, 256)
		c.vecGen = c.gen
	}
	c.vecs[s] = v
	c.vecMu.Unlock()
	return v
}

// buildVector computes the sorted TF-IDF vector of one document.
func (c *Corpus) buildVector(s string) tfidfVec {
	toks := tokenizer.ContentWords(s)
	if len(toks) == 0 {
		return tfidfVec{}
	}
	tf := make(map[string]float64, len(toks))
	for _, t := range toks {
		tf[t]++
	}
	v := tfidfVec{
		toks: make([]string, 0, len(tf)),
		w:    make([]float64, 0, len(tf)),
	}
	for t := range tf {
		v.toks = append(v.toks, t)
	}
	sort.Strings(v.toks)
	n := 0.0
	for _, t := range v.toks {
		w := tf[t] * c.idf(t)
		v.w = append(v.w, w)
		n += w * w
	}
	v.norm = math.Sqrt(n)
	return v
}
