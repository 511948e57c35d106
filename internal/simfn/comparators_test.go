package simfn

import (
	"testing"

	"refrecon/internal/obs"
	"refrecon/internal/strsim"
)

func TestCompareName(t *testing.T) {
	l := NewLibrary()
	if s := l.Compare(EvName, "Michael Stonebraker", "Stonebraker, M."); s < 0.8 {
		t.Errorf("abbreviated name sim = %f", s)
	}
	if s := l.Compare(EvName, "Michael Stonebraker", "Jennifer Widom"); s > 0.4 {
		t.Errorf("unrelated name sim = %f", s)
	}
}

func TestCompareEmail(t *testing.T) {
	l := NewLibrary()
	if s := l.Compare(EvEmail, "a@b.edu", "a@b.edu"); s != 1 {
		t.Errorf("same email = %f", s)
	}
	if s := l.Compare(EvEmail, "not-an-address", "a@b.edu"); s != 0 {
		t.Errorf("unparseable email = %f", s)
	}
}

func TestCompareNameEmail(t *testing.T) {
	l := NewLibrary()
	if s := l.Compare(EvNameEmail, "Stonebraker, M.", "stonebraker@csail.mit.edu"); s < 0.85 {
		t.Errorf("name-vs-email = %f", s)
	}
	if s := l.Compare(EvNameEmail, "Stonebraker, M.", "garbage"); s != 0 {
		t.Errorf("name vs non-address = %f", s)
	}
}

func TestCompareTitleWithCorpus(t *testing.T) {
	l := NewLibrary()
	for _, title := range []string{
		"Distributed query processing in a relational data base system",
		"The design of Postgres",
		"Access path selection in a relational database management system",
		"Query optimization techniques",
	} {
		l.Titles.Add(title)
	}
	same := l.Compare(EvTitle,
		"Distributed query processing in a relational data base system",
		"Distributed query processing in a relational data base system")
	if same != 1 {
		t.Errorf("identical title = %f", same)
	}
	noisy := l.Compare(EvTitle,
		"Distributed query processing in a relational data base system",
		"Distributed query processing in a relational database system")
	if noisy < 0.7 {
		t.Errorf("noisy title = %f", noisy)
	}
	diff := l.Compare(EvTitle, "The design of Postgres", "Query optimization techniques")
	if diff > 0.4 {
		t.Errorf("different titles = %f", diff)
	}
}

func TestCompareTitleWithoutCorpus(t *testing.T) {
	// Library with no corpus docs must still work (falls back to Jaccard).
	l := NewLibrary()
	if s := l.Compare(EvTitle, "a b c", "a b c"); s != 1 {
		t.Errorf("fallback identical title = %f", s)
	}
}

func TestYearSim(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"1978", "1978", 1},
		{"1978", "1979", 0.5},
		{"1978", "1985", 0},
		{"98", "1998", 1},
		{"05", "2005", 1},
		{"", "", 0},
		{"unknown", "unknown", 1}, // non-numeric falls back to equality
		{"unknown", "other", 0},
	}
	for _, c := range cases {
		if got := YearSim(c.a, c.b); got != c.want {
			t.Errorf("YearSim(%q,%q) = %f, want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestPagesSim(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"169-180", "169-180", 1},
		{"169-180", "pp. 169--180", 1},
		{"169-180", "169-185", 0.7},
		{"169-180", "170-180", 0.4},
		{"169-180", "200-210", 0},
		{"", "169-180", 0},
	}
	for _, c := range cases {
		if got := PagesSim(c.a, c.b); got != c.want {
			t.Errorf("PagesSim(%q,%q) = %f, want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestAcronymSim(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"VLDB", "Very Large Data Bases", 1},
		{"Very Large Data Bases", "VLDB", 1},
		{"V.L.D.B.", "Very Large Data Bases", 1},
		{"PODS", "Principles of Database Systems", 1}, // stopword "of" skipped
		{"VLD", "Very Large Data Bases", 0.7},         // prefix acronym
		{"ICDE", "Very Large Data Bases", 0},
		{"X", "Some Conference", 0}, // too short
	}
	for _, c := range cases {
		if got := AcronymSim(c.a, c.b); got != c.want {
			t.Errorf("AcronymSim(%q,%q) = %f, want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestVenueNameSim(t *testing.T) {
	l := NewLibrary()
	if s := l.Compare(EvVenueName, "ACM SIGMOD", "SIGMOD"); s < 0.9 {
		t.Errorf("containment venue = %f", s)
	}
	if s := l.Compare(EvVenueName, "VLDB", "Very Large Data Bases"); s != 1 {
		t.Errorf("acronym venue = %f", s)
	}
}

// valueEvidence lists the Ev* constants that label value comparisons (the
// others label association evidence and have no comparator).
var valueEvidence = []string{EvName, EvEmail, EvNameEmail, EvTitle, EvYear, EvPages, EvVenueName, EvLocation}

func TestCandidateThresholdsLiberal(t *testing.T) {
	// The table is complete: every value-typed constant names its own row,
	// and the rows are those plus Generic, which any other label reaches.
	if len(comparators) != len(valueEvidence)+1 {
		t.Errorf("%d rows for %d value evidence types + generic", len(comparators), len(valueEvidence))
	}
	for _, ev := range valueEvidence {
		if c := Lookup(ev); c == Generic || c.Name != ev {
			t.Errorf("Lookup(%s) = row %q", ev, c.Name)
		}
	}
	for _, ev := range []string{"other", "g:name", "", EvAuthors, EvContact} {
		if Lookup(ev) != Generic {
			t.Errorf("Lookup(%q) = row %q, want generic", ev, Lookup(ev).Name)
		}
	}
	if Generic.Floor != 0.5 || Generic.sim(nil, "ab cd", "ab ce") != strsim.MongeElkan("ab cd", "ab ce", nil) {
		t.Errorf("generic row: floor %v, not MongeElkan", Generic.Floor)
	}
	// Every floor must be well below the merge threshold 0.85; venue
	// evidence is recorded unconditionally (floor 0): the renormalising
	// Venue tree needs absent != dissimilar.
	for _, c := range comparators {
		if c.sim == nil || c.Floor < 0 || c.Floor >= 0.85 {
			t.Errorf("row %s: sim %v, floor %f not liberal", c.Name, c.sim != nil, c.Floor)
		}
	}
	for _, c := range []*Comparator{ByVenueName, ByYear, ByLocation} {
		if c.Floor != 0 {
			t.Errorf("row %s should be unconditional, floor %f", c.Name, c.Floor)
		}
	}
}

func TestAliasEvidence(t *testing.T) {
	for _, c := range comparators {
		if want := c == ByEmail || c == ByVenueName; c.Alias != want {
			t.Errorf("row %s: alias = %v, want %v", c.Name, c.Alias, want)
		}
	}
}

func TestCompareUnknownEvidence(t *testing.T) {
	l := NewLibrary()
	if s := l.Compare("mystery", "abc", "abc"); s != 1 {
		t.Errorf("generic fallback identical = %f", s)
	}
}

// TestCacheTagsFollowReads: after a statistics change, a row that reads
// statistics scores afresh, a row that reads none hits its cached score,
// and both return what a cache-less library with the same statistics
// computes.
func TestCacheTagsFollowReads(t *testing.T) {
	pairs := map[*Comparator][2]string{
		ByName:      {"Michael Stonebraker", "M. Stonebraker"},
		ByEmail:     {"wei.li@x.edu", "wli@x.edu"},
		ByNameEmail: {"Wei Li", "li@y.edu"},
		ByTitle:     {"Query optimization", "Query optimisation"},
		ByYear:      {"1998", "98"},
		ByPages:     {"169-180", "pp. 169--180"},
		ByVenueName: {"Proc. VLDB", "Very Large Data Bases"},
		ByLocation:  {"Seattle, WA", "Seattle"},
		Generic:     {"Acme FA 7310 drill", "ACME FA-4730 Drill"},
	}
	l := NewLibrary()
	ctr := obs.NewCounters()
	l.SetCounters(ctr)
	for c, p := range pairs {
		l.CompareBy(c, c.Name, p[0], p[1])
	}
	ByName.Feed(l, "Wei Li")
	ByTitle.Feed(l, "Query optimization")
	ByVenueName.Feed(l, "VLDB")
	bare := *l
	bare.pairs = nil
	for c, p := range pairs {
		hits := ctr.SimfnCacheHits.Load()
		got := l.CompareBy(c, c.Name, p[0], p[1])
		if hit := ctr.SimfnCacheHits.Load() > hits; hit != (c.Gen == nil) {
			t.Errorf("%s: cache hit %v after a statistics change, reads statistics %v", c.Name, hit, c.Gen != nil)
		}
		if want := bare.CompareBy(c, c.Name, p[0], p[1]); got != want {
			t.Errorf("%s: %v cached, %v cache-less", c.Name, got, want)
		}
	}
}
