// Package simfn implements the similarity functions of §4 of the paper: a
// template S = S_rv + S_sb + S_wb, where S_rv combines the real-valued
// evidence (attribute-value and association similarities) through a
// class-specific decision tree of linear combinations that tolerates
// missing attributes and treats key attributes specially, and S_sb and
// S_wb add β per merged strong-boolean and γ per merged weak-boolean
// incoming neighbor (shared contacts and co-authors), both gated on
// S_rv ≥ t_rv. Each instantiation — a tree with its t_rv, β and γ — is one
// ClassScore row of the table in score.go; Scorer applies the template.
//
// The package also defines the value comparators: one Comparator row per
// evidence type, holding its function, the liberal floor used during graph
// construction (§3.1: "we use a relatively low similarity threshold in
// order not to lose important nodes"), whether merged references alias its
// values, and the corpus statistic it feeds and reads.
package simfn

import (
	"math"
	"strings"

	"refrecon/internal/emailaddr"
	"refrecon/internal/names"
	"refrecon/internal/obs"
	"refrecon/internal/strsim"
	"refrecon/internal/tokenizer"
)

// Evidence type labels. Value nodes and graph edges carry one of these;
// the class scoring functions dispatch on them.
const (
	EvName      = "name"      // person name vs person name
	EvEmail     = "email"     // email address vs email address
	EvNameEmail = "nameEmail" // person name vs email address (cross-attribute)
	EvTitle     = "title"     // article title vs article title
	EvYear      = "year"      // year vs year
	EvPages     = "pages"     // page range vs page range
	EvVenueName = "venueName" // venue name vs venue name
	EvLocation  = "location"  // venue location vs venue location
	EvAuthors   = "authors"   // author ref-pair similarity into an article pair
	EvVenue     = "venue"     // venue ref-pair similarity into an article pair
	EvArticle   = "article"   // article ref-pair merge into person/venue pairs (strong)
	EvContact   = "contact"   // shared email-contact (weak)
	EvCoAuthor  = "coauthor"  // shared co-author (weak)
)

// Library holds corpus statistics for the corpus-sensitive comparators:
// TF-IDF document frequencies for titles and venue names, and surname
// population statistics for the name-vs-email comparator. Build one per
// dataset with NewLibrary, feeding every title, venue name, and person
// name.
type Library struct {
	Titles *strsim.Corpus
	Venues *strsim.Corpus

	// surnameInitials maps each surname to the distinct first initials
	// seen with it; surnameFirsts to the distinct full first names.
	// Together they estimate how identifying a surname (or an
	// initial+surname combination) is in this dataset. givenSurnames maps
	// each full given name to the distinct surnames seen with it, for
	// judging given-name-shaped email account names.
	surnameInitials map[string]map[byte]bool
	surnameFirsts   map[string]map[string]bool
	givenSurnames   map[string]map[string]bool

	// statsGen counts name-population mutations.
	statsGen uint64
	// dict issues the value ids the pair cache is keyed by; owns says
	// whether the library interns values (a fork only looks them up).
	dict   *dict
	owns   bool
	pairs  *pairCache
	parsed *parseCache

	// ctr, when non-nil, receives pair-cache hit/miss counts. The nil
	// default keeps Compare free of atomic traffic — one pointer
	// comparison per call — so the zero-alloc hot-path pins hold.
	ctr *obs.Counters
}

// SetCounters attaches an observability counter set to the library's
// pair cache (nil detaches). Counter updates are atomic, so attaching is
// safe even when Compare runs on the parallel scoring pool.
func (l *Library) SetCounters(c *obs.Counters) { l.ctr = c }

// NewLibrary returns a Library with empty corpora and value dictionary.
func NewLibrary() *Library {
	return &Library{
		Titles:          strsim.NewCorpus(),
		Venues:          strsim.NewCorpus(),
		surnameInitials: make(map[string]map[byte]bool),
		surnameFirsts:   make(map[string]map[string]bool),
		givenSurnames:   make(map[string]map[string]bool),
		dict:            newDict(),
		owns:            true,
		pairs:           &pairCache{},
		parsed:          &parseCache{},
	}
}

// Fork returns a library with empty statistics and caches that reads l's
// value dictionary, which l may go on interning into, without writing to
// it: ids keep naming the same values, ValueID only looks values up, and
// Compare scores a value the dictionary lacks uncached.
func (l *Library) Fork() *Library {
	f := NewLibrary()
	f.dict, f.owns = l.dict, false
	return f
}

// NoValue is the id ValueID gives a value a fork's dictionary lacks.
const NoValue = math.MaxUint32

// ValueID returns a raw value's dictionary id, interned unless the library
// is a fork.
func (l *Library) ValueID(v string) uint32 {
	if l.owns {
		return l.dict.intern(v)
	}
	if id, ok := l.dict.lookup(v); ok {
		return id
	}
	return NoValue
}

// AddPersonName records one person-name value in the population
// statistics.
func (l *Library) AddPersonName(raw string) {
	l.statsGen++
	n := names.Parse(raw)
	if n.Last == "" {
		return
	}
	last := strings.ReplaceAll(n.Last, " ", "")
	if l.surnameInitials[last] == nil {
		l.surnameInitials[last] = make(map[byte]bool)
	}
	if n.First == "" {
		return
	}
	l.surnameInitials[last][n.First[0]] = true
	if len(n.First) > 1 {
		if l.surnameFirsts[last] == nil {
			l.surnameFirsts[last] = make(map[string]bool)
		}
		l.surnameFirsts[last][n.First] = true
		formal := names.Formal(n.First)
		if l.givenSurnames[formal] == nil {
			l.givenSurnames[formal] = make(map[string]bool)
		}
		l.givenSurnames[formal][last] = true
	}
}

// LocalRarity implements emailaddr.LocalRarityFunc: how identifying is an
// email account name in this dataset's population. Known surnames reuse
// the surname statistics; known given names are judged by how many
// different surnames they pair with; unknown tokens (fusions like
// "jsmith") are treated as fairly distinctive.
func (l *Library) LocalRarity(local string) float64 {
	if l == nil || (len(l.surnameInitials) == 0 && len(l.givenSurnames) == 0) {
		return 1
	}
	if _, isSurname := l.surnameInitials[local]; isSurname {
		return l.NameRarity("", local)
	}
	if svs, isGiven := l.givenSurnames[names.Formal(local)]; isGiven {
		switch df := len(svs); {
		case df <= 1:
			return 1
		case df == 2:
			return 0.7
		case df == 3:
			return 0.5
		default:
			return 0.3
		}
	}
	return 0.9
}

// NameRarity implements emailaddr.RarityFunc over the recorded
// statistics: how identifying is this surname (initial == "") or this
// initial+surname combination in the dataset. With no statistics recorded
// it returns 1 (fully identifying), preserving standalone behaviour.
func (l *Library) NameRarity(initial, surname string) float64 {
	if l == nil || len(l.surnameInitials) == 0 {
		return 1
	}
	if initial == "" {
		switch df := len(l.surnameInitials[surname]); {
		case df <= 1:
			return 1
		case df == 2:
			return 0.75
		case df == 3:
			return 0.55
		case df <= 6:
			return 0.35
		default:
			return 0.2
		}
	}
	// Distinct full first names sharing the initial under this surname.
	df := 0
	for f := range l.surnameFirsts[surname] {
		if f[0] == initial[0] {
			df++
		}
	}
	switch {
	case df <= 1:
		return 1
	case df == 2:
		return 0.7
	default:
		return 0.4
	}
}

// Comparator is one row of the comparator table: everything decided per
// value evidence type. Rows are read-only.
type Comparator struct {
	// Name is the evidence label the row answers to (an Ev* constant).
	Name string
	// sim scores two raw values, uncached and unclamped; l may be nil.
	sim func(l *Library, a, b string) float64
	// Floor is the liberal similarity from which a value pair earns a node
	// in the dependency graph (§3.1's "relatively low similarity
	// threshold"). Venue evidence has none: its similarity function
	// renormalizes over *present* evidence, so a pruned low-similarity node
	// would pass for a missing attribute and a same-year pair of unrelated
	// venues score 1.0 on year alone. Year and location nodes are shared
	// across many pairs, so recording them all is cheap.
	Floor float64
	// Alias is set when merging two references certifies their values of
	// this type as aliases (the strong-boolean edge back from the reference
	// pair, n6 in Figure 2): only where a value identifies one entity — an
	// email address, a venue name. "Wei Li" and "Li, W." on one person say
	// nothing about the *other* Wei Lis, and aliasing them collapses every
	// person sharing those presentations.
	Alias bool
	// Feed counts one value of this type in the corpus statistics the
	// comparators read; nil when it enters none.
	Feed func(l *Library, value string)
	// Gen returns the generation of the statistics sim reads, which tags
	// its cached scores; nil for a row that reads none, whose scores never
	// go stale.
	Gen func(l *Library) uint64
	row uint8 // index in the table: the top bits of the row's cache keys
}

// The comparator table. ByNameEmail takes the name first.
var (
	ByName = &Comparator{Name: EvName, sim: func(l *Library, a, b string) float64 {
		return names.ParsedSimilarity(l.parseName(a), l.parseName(b))
	}, Floor: 0.5, Feed: (*Library).AddPersonName}
	ByEmail     = &Comparator{Name: EvEmail, sim: (*Library).emailSim, Floor: 0.55, Alias: true, Gen: func(l *Library) uint64 { return l.statsGen }}
	ByNameEmail = &Comparator{Name: EvNameEmail, sim: (*Library).nameEmailSim, Floor: 0.45, Gen: func(l *Library) uint64 { return l.statsGen }}
	ByTitle     = &Comparator{Name: EvTitle, sim: (*Library).titleSim, Floor: 0.45, Feed: func(l *Library, v string) { l.Titles.Add(v) },
		Gen: func(l *Library) uint64 { return l.Titles.Gen() }}
	ByYear      = &Comparator{Name: EvYear, sim: func(_ *Library, a, b string) float64 { return YearSim(a, b) }}
	ByPages     = &Comparator{Name: EvPages, sim: func(_ *Library, a, b string) float64 { return PagesSim(a, b) }, Floor: 0.35}
	ByVenueName = &Comparator{Name: EvVenueName, sim: (*Library).venueNameSim, Alias: true, Feed: func(l *Library, v string) { l.Venues.Add(v) },
		Gen: func(l *Library) uint64 { return l.Venues.Gen() }}
	ByLocation = &Comparator{Name: EvLocation, sim: func(_ *Library, a, b string) float64 { return strsim.JaccardTokens(a, b) }}
	// Generic is the row every other label resolves to.
	Generic = &Comparator{Name: "generic", sim: func(l *Library, a, b string) float64 {
		return strsim.MongeElkanTokens(l.words(a), l.words(b))
	}, Floor: 0.5}
)

var comparators = [...]*Comparator{ByName, ByEmail, ByNameEmail, ByTitle, ByYear, ByPages, ByVenueName, ByLocation, Generic}

func init() {
	for i, c := range comparators {
		c.row = uint8(i)
	}
}

// Lookup returns the row an evidence label names, Generic for any other
// label (such as recon's per-attribute "g:<attr>").
func Lookup(label string) *Comparator {
	for _, c := range comparators {
		if c.Name == label {
			return c
		}
	}
	return Generic
}

// Compare scores two raw attribute values under an evidence label, in
// [0,1], by the row the label names.
func (l *Library) Compare(evidence, a, b string) float64 {
	return l.CompareBy(Lookup(evidence), evidence, a, b)
}

// CompareBy is Compare for a caller that holds the row: CompareIDs over
// the two values' ids (a row scores the same whatever label selected it).
// Safe for concurrent use as long as the statistics are not mutated
// concurrently.
func (l *Library) CompareBy(c *Comparator, label, a, b string) float64 {
	if l == nil || l.pairs == nil {
		return clamp01(c.sim(l, a, b))
	}
	if x, y := l.ValueID(a), l.ValueID(b); x != NoValue && y != NoValue {
		return l.CompareIDs(c, x, y)
	}
	return clamp01(c.sim(l, a, b))
}

// CompareIDs scores two values of the library's dictionary by id, cached
// by (row, x, y) under the generation of the statistics the row reads.
func (l *Library) CompareIDs(c *Comparator, x, y uint32) float64 {
	if x >= 1<<idBits || y >= 1<<idBits {
		return clamp01(c.sim(l, l.dict.value(x), l.dict.value(y)))
	}
	k := uint64(c.row)<<(2*idBits) | uint64(x)<<idBits | uint64(y)
	var gen uint64
	if c.Gen != nil {
		gen = c.Gen(l)
	}
	if v, ok := l.pairs.get(k, gen); ok {
		if l.ctr != nil {
			l.ctr.SimfnCacheHits.Add(1)
		}
		return v
	}
	if l.ctr != nil {
		l.ctr.SimfnCacheMisses.Add(1)
	}
	v := clamp01(c.sim(l, l.dict.value(x), l.dict.value(y)))
	l.pairs.put(k, gen, v)
	return v
}

// clamp01 is the last line of defense before a comparator output becomes a
// graph node similarity: the engine requires [0,1] and non-NaN, and a
// float-rounding excursion here would trip the invariant auditor.
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

// parseName memoizes names.Parse per raw value.
func (l *Library) parseName(raw string) names.Name {
	if l == nil || l.parsed == nil {
		return names.Parse(raw)
	}
	return l.parsed.names.get(raw, names.Parse)
}

// parseEmail memoizes emailaddr.Parse per raw value.
func (l *Library) parseEmail(raw string) (emailaddr.Address, bool) {
	if l == nil || l.parsed == nil {
		return emailaddr.Parse(raw)
	}
	p := l.parsed.emails.get(raw, parseAddr)
	return p.addr, p.ok
}

// words memoizes tokenizer.Words per raw value. The slice may be shared
// with other callers and must not be modified (strsim's set comparators
// sort theirs in place).
func (l *Library) words(raw string) []string {
	if l == nil || l.parsed == nil {
		return tokenizer.Words(raw)
	}
	return l.parsed.words.get(raw, tokenizer.Words)
}

func (l *Library) emailSim(a, b string) float64 {
	ea, okA := l.parseEmail(a)
	eb, okB := l.parseEmail(b)
	if !okA || !okB {
		return 0
	}
	return emailaddr.SimRarity(ea, eb, l.LocalRarity)
}

func (l *Library) nameEmailSim(name, addr string) float64 {
	eb, ok := l.parseEmail(addr)
	if !ok {
		return 0
	}
	return emailaddr.NameSimRarity(name, eb, l.NameRarity)
}

func (l *Library) titleSim(a, b string) float64 {
	cos := 0.0
	if l != nil && l.Titles != nil && l.Titles.Docs() > 0 {
		cos = l.Titles.CosineSim(a, b)
	} else {
		cos = strsim.JaccardContentTokens(a, b)
	}
	ed := strsim.DamerauSim(a, b)
	if ed > cos {
		return ed
	}
	return cos
}

// venueStopwords are boilerplate tokens that appear in almost every venue
// name; comparing on them ("Proc. SIGMOD" vs "Proc. ICDE" share "proc")
// produces catastrophic false matches, so the comparator strips them first.
var venueStopwords = map[string]bool{
	"proc": true, "proceedings": true, "conference": true, "conf": true,
	"international": true, "intl": true, "annual": true, "symposium": true,
	"workshop": true, "journal": true, "j": true, "transactions": true,
	"trans": true, "ieee": true, "acm": true, "usenix": true,
	"technical": true, "report": true, "tr": true,
}

// venueTokens are a venue name's content words, its distinctive core (less
// venueStopwords, unless that leaves none) and the core joined by spaces.
type venueTokens struct {
	content, core []string
	joined        string
}

func venueTokensOf(s string) venueTokens {
	t := venueTokens{content: tokenizer.ContentWords(s)}
	for _, w := range t.content {
		if !venueStopwords[w] {
			t.core = append(t.core, w)
		}
	}
	if len(t.core) == 0 {
		t.core = t.content
	}
	t.joined = strings.Join(t.core, " ")
	return t
}

// venue memoizes venueTokensOf per raw value; the lists are read-only.
func (l *Library) venue(raw string) venueTokens {
	if l == nil || l.parsed == nil {
		return venueTokensOf(raw)
	}
	return l.parsed.venues.get(raw, venueTokensOf)
}

// fuzzyMatch pairs each token of ta with the first unused token of tb it
// matches exactly or as a near-typo (Jaro-Winkler >= 0.95), calling pair
// for each match, and returns which tokens of tb were used. Character-level
// similarity between *different* tokens ("data" vs "database", "icde" vs
// "icdt") deliberately contributes nothing: distinct venues have
// editorially close names, and treating closeness as evidence collapses
// them.
func fuzzyMatch(ta, tb []string, pair func(x, y string)) []bool {
	used := make([]bool, len(tb))
	for _, x := range ta {
		for j, y := range tb {
			if !used[j] && (x == y || strsim.JaroWinklerTokens(x, y) >= 0.95) {
				used[j] = true
				pair(x, y)
				break
			}
		}
	}
	return used
}

// fuzzyOverlap is the overlap coefficient over two token lists under
// fuzzyMatch.
func fuzzyOverlap(ta, tb []string) float64 {
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	matches := 0
	fuzzyMatch(ta, tb, func(_, _ string) { matches++ })
	return float64(matches) / float64(min(len(ta), len(tb)))
}

// venueTokenIDF weighs a venue token's distinctiveness using the venue
// corpus when available (1 otherwise).
func (l *Library) venueTokenIDF(tok string) float64 {
	if l == nil || l.Venues == nil || l.Venues.Docs() == 0 {
		return 1
	}
	return l.Venues.IDF(tok)
}

// weightedFuzzyJaccard is Jaccard over two token lists with per-token IDF
// weights under fuzzyMatch. Jaccard (union-normalized) rather
// than the overlap coefficient: one venue's core being CONTAINED in
// another's ("Database Systems" inside "Principles of Database Systems")
// must not score 1 — the unmatched distinctive token is exactly what
// separates TODS from PODS.
func (l *Library) weightedFuzzyJaccard(ta, tb []string) float64 {
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	matched, union := 0.0, 0.0
	for _, x := range ta {
		union += l.venueTokenIDF(x)
	}
	used := fuzzyMatch(ta, tb, func(x, y string) {
		if w, wy := l.venueTokenIDF(x), l.venueTokenIDF(y); wy < w {
			matched += wy
		} else {
			matched += w
		}
	})
	for j, y := range tb {
		if !used[j] {
			union += l.venueTokenIDF(y)
		}
	}
	if union == 0 {
		return 0
	}
	return matched / union
}

func (l *Library) venueNameSim(a, b string) float64 {
	ta, tb := l.venue(a), l.venue(b)
	best := l.weightedFuzzyJaccard(ta.core, tb.core)
	// Boilerplate-token agreement ("ACM ..." vs "ACM ...") is weak but
	// real evidence; it lets the SIGMOD'78 pair of Example 1 reach the
	// boostable band without letting "Proc. X" match "Proc. Y" outright.
	if s := 0.5 * fuzzyOverlap(ta.content, tb.content); s > best {
		best = s
	}
	if s := AcronymSim(a, b); s > best {
		best = s
	}
	if s := AcronymSim(ta.joined, tb.joined); s > best {
		best = s
	}
	return best
}

// YearSim compares two year strings: equal years score 1, adjacent years
// 0.5 (off-by-one errors are common in citations), anything else 0.
// Non-numeric input falls back to exact comparison.
func YearSim(a, b string) float64 {
	ya, okA := parseYear(a)
	yb, okB := parseYear(b)
	if !okA || !okB {
		if tokenizer.EqualFolded(a, b) && a != "" {
			return 1
		}
		return 0
	}
	switch d := ya - yb; {
	case d == 0:
		return 1
	case d == 1 || d == -1:
		return 0.5
	default:
		return 0
	}
}

// YearGap returns the absolute difference between two year strings, or
// false when either does not parse as a year.
func YearGap(a, b string) (int, bool) {
	ya, okA := parseYear(a)
	yb, okB := parseYear(b)
	if !okA || !okB {
		return 0, false
	}
	d := ya - yb
	if d < 0 {
		d = -d
	}
	return d, true
}

func parseYear(s string) (int, bool) {
	digits := 0
	val := 0
	for _, r := range s {
		if r >= '0' && r <= '9' {
			val = val*10 + int(r-'0')
			digits++
			if digits > 4 {
				return 0, false
			}
		} else if digits > 0 {
			break
		}
	}
	if digits != 4 && digits != 2 {
		return 0, false
	}
	if digits == 2 { // "98" -> 1998, "05" -> 2005
		if val >= 30 {
			val += 1900
		} else {
			val += 2000
		}
	}
	return val, true
}

// PagesSim compares page-range strings ("169-180", "pp. 169--180").
// Matching first and last page scores 1; matching first page only scores
// 0.7; any shared page number scores 0.4.
func PagesSim(a, b string) float64 {
	na := pageNumbers(a)
	nb := pageNumbers(b)
	if len(na) == 0 || len(nb) == 0 {
		return 0
	}
	if na[0] == nb[0] {
		if na[len(na)-1] == nb[len(nb)-1] {
			return 1
		}
		return 0.7
	}
	for _, x := range na {
		for _, y := range nb {
			if x == y {
				return 0.4
			}
		}
	}
	return 0
}

func pageNumbers(s string) []int {
	var out []int
	cur, in := 0, false
	flush := func() {
		if in {
			out = append(out, cur)
			cur, in = 0, false
		}
	}
	for _, r := range s {
		if r >= '0' && r <= '9' {
			cur = cur*10 + int(r-'0')
			in = true
		} else {
			flush()
		}
	}
	flush()
	return out
}

// AcronymSim reports whether one string looks like an acronym of the
// other's content words ("VLDB" vs "Very Large Data Bases"), returning 1
// on a full acronym match, 0.7 on a prefix acronym match, else 0.
func AcronymSim(a, b string) float64 {
	score := func(short, long string) float64 {
		s := tokenizer.Normalize(strings.ReplaceAll(short, ".", ""))
		s = strings.ReplaceAll(s, " ", "")
		if len(s) < 2 || len(s) > 8 {
			return 0
		}
		// Acronyms sometimes include stopword letters (PODS = Principles
		// Of Database Systems) and sometimes not (VLDB): try both token
		// streams.
		best := 0.0
		for _, words := range [][]string{tokenizer.ContentWords(long), tokenizer.Words(long)} {
			if len(words) < 2 {
				continue
			}
			var initials strings.Builder
			for _, w := range words {
				initials.WriteByte(w[0])
			}
			ini := initials.String()
			switch {
			case s == ini:
				return 1
			case strings.HasPrefix(ini, s) || strings.HasPrefix(s, ini):
				if best < 0.7 {
					best = 0.7
				}
			}
		}
		return best
	}
	if x := score(a, b); x > 0 {
		return x
	}
	return score(b, a)
}
