package simfn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func evWith(real map[string]float64) *Evidence {
	ev := new(Evidence)
	for label, v := range real {
		ev.Observe(label, v)
	}
	return ev
}

func TestSRVPersonKeyBranch(t *testing.T) {
	ev := evWith(map[string]float64{EvEmail: 1, EvName: 0.1})
	if got := ScorePerson.SRV(ev); got != 1 {
		t.Errorf("email key should dominate: %f", got)
	}
}

func TestSRVPersonNameOnly(t *testing.T) {
	ev := evWith(map[string]float64{EvName: 0.9})
	if got := ScorePerson.SRV(ev); got != 0.9 {
		t.Errorf("name-only = %f", got)
	}
}

func TestSRVPersonMissingAttrsNotPenalized(t *testing.T) {
	// A perfect name must not be dragged down by a low email similarity
	// (different addresses of the same person are routine, §4).
	withLowEmail := ScorePerson.SRV(evWith(map[string]float64{EvName: 1, EvEmail: 0.2}))
	nameOnly := ScorePerson.SRV(evWith(map[string]float64{EvName: 1}))
	if withLowEmail < nameOnly {
		t.Errorf("low email penalized the name: %f < %f", withLowEmail, nameOnly)
	}
}

func TestSRVPersonCrossOnly(t *testing.T) {
	// p8 (email only) vs p5 (name only): only nameEmail evidence exists.
	ev := evWith(map[string]float64{EvNameEmail: 0.9})
	got := ScorePerson.SRV(ev)
	if got < 0.7 || got >= 0.85 {
		t.Errorf("cross-only should land in the boostable band [0.7,0.85): %f", got)
	}
}

func TestSRVPersonMonotone(t *testing.T) {
	base := evWith(map[string]float64{EvName: 0.7, EvEmail: 0.7, EvNameEmail: 0.6})
	raised := evWith(map[string]float64{EvName: 0.8, EvEmail: 0.7, EvNameEmail: 0.6})
	if ScorePerson.SRV(raised) < ScorePerson.SRV(base) {
		t.Error("SRV not monotone in name evidence")
	}
}

func TestSRVArticle(t *testing.T) {
	// Exact title + exact pages is a key.
	key := evWith(map[string]float64{EvTitle: 1, EvPages: 1})
	if got := ScoreArticle.SRV(key); got != 1 {
		t.Errorf("title+pages key = %f", got)
	}
	// Title alone, exact: renormalized weighted average = 1.
	titleOnly := evWith(map[string]float64{EvTitle: 1})
	if got := ScoreArticle.SRV(titleOnly); got != 1 {
		t.Errorf("exact title alone = %f", got)
	}
	// Noisy title with good authors is below merge threshold but above
	// t_rv, and improves when the venue reconciles.
	before := evWith(map[string]float64{EvTitle: 0.85, EvAuthors: 0.9, EvVenue: 0.2})
	after := evWith(map[string]float64{EvTitle: 0.85, EvAuthors: 0.9, EvVenue: 1})
	sb, sa := ScoreArticle.SRV(before), ScoreArticle.SRV(after)
	if !(sb < sa) {
		t.Errorf("venue reconciliation should raise article sim: %f -> %f", sb, sa)
	}
	if sb < 0.7 {
		t.Errorf("before = %f, want >= t_rv", sb)
	}
}

func TestSRVVenue(t *testing.T) {
	ev := evWith(map[string]float64{EvVenueName: 1, EvYear: 1})
	if got := ScoreVenue.SRV(ev); got != 1 {
		t.Errorf("exact venue = %f", got)
	}
	// Name only, weak: still positive (weights renormalize).
	weak := evWith(map[string]float64{EvVenueName: 0.3})
	if got := ScoreVenue.SRV(weak); got != 0.3 {
		t.Errorf("weak venue name = %f", got)
	}
}

func TestSRVGeneric(t *testing.T) {
	if got := ScoreGeneric.SRV(evWith(map[string]float64{"a": 0.4, "b": 0.8})); !close(got, 0.6) {
		t.Errorf("generic average = %f", got)
	}
	if got := ScoreGeneric.SRV(evWith(map[string]float64{})); got != 0 {
		t.Errorf("no evidence = %f", got)
	}
}

// paperScorer is the scorer recon builds for the PIM schema: each class
// bound to its row.
func paperScorer() *Scorer {
	return &Scorer{Rows: map[string]*ClassScore{
		schema.ClassPerson:  ScorePerson,
		schema.ClassArticle: ScoreArticle,
		schema.ClassVenue:   ScoreVenue,
	}}
}

// buildNode wires a small graph around one reference pair of the class —
// one value pair per evidence label, strongMerged merged strong-boolean and
// weakMerged merged weak-boolean neighbors — and returns the pair's node.
func buildNode(class string, real map[string]float64, strongMerged, weakMerged int) *depgraph.Node {
	g := depgraph.New()
	n := g.AddRefPair(0, 1, class)
	for label, sim := range real {
		g.AddEdge(g.AddValuePair(label, "a", "b", sim), n, depgraph.RealValued, label)
	}
	for i := 0; i < strongMerged; i++ {
		m := g.AddRefPair(reference.ID(10+2*i), reference.ID(11+2*i), schema.ClassArticle)
		m.SetStatus(depgraph.Merged)
		g.AddEdge(m, n, depgraph.StrongBoolean, EvArticle)
	}
	for i := 0; i < weakMerged; i++ {
		m := g.AddRefPair(reference.ID(100+2*i), reference.ID(101+2*i), schema.ClassPerson)
		m.SetStatus(depgraph.Merged)
		g.AddEdge(m, n, depgraph.WeakBoolean, EvContact)
	}
	return n
}

func buildPersonNode(t *testing.T, nameSim float64, strongMerged, weakMerged int) *depgraph.Node {
	t.Helper()
	return buildNode(schema.ClassPerson, map[string]float64{EvName: nameSim}, strongMerged, weakMerged)
}

func TestScorerBoosts(t *testing.T) {
	s := paperScorer()
	// S_rv = 0.75 >= t_rv 0.7; one strong (+0.1) and two weak (+0.1).
	n := buildPersonNode(t, 0.75, 1, 2)
	got := s.Score(n)
	want := 0.75 + 0.1 + 2*0.05
	if !close(got, want) {
		t.Errorf("Score = %f, want %f", got, want)
	}
}

func TestScorerGate(t *testing.T) {
	s := paperScorer()
	// S_rv = 0.5 < t_rv: boolean evidence must be ignored.
	n := buildPersonNode(t, 0.5, 3, 3)
	if got := s.Score(n); !close(got, 0.5) {
		t.Errorf("gated Score = %f, want 0.5", got)
	}
}

func TestScorerClamp(t *testing.T) {
	s := paperScorer()
	n := buildPersonNode(t, 0.8, 5, 5) // 0.8 + 0.5 + 0.25 -> clamp 1
	if got := s.Score(n); got != 1 {
		t.Errorf("clamped Score = %f", got)
	}
}

func TestScorerValuePairAlias(t *testing.T) {
	s := paperScorer()
	g := depgraph.New()
	v := g.AddValuePair(EvVenueName, "sigmod", "acm conf on mgmt of data", 0.2)
	venue := g.AddRefPair(0, 1, schema.ClassVenue)
	g.AddEdge(venue, v, depgraph.StrongBoolean, EvVenue)
	if got := s.Score(v); !close(got, 0.2) {
		t.Errorf("unmerged alias = %f", got)
	}
	venue.SetStatus(depgraph.Merged)
	if got := s.Score(v); got != 1 {
		t.Errorf("merged alias = %f", got)
	}
}

func TestGatherNonMerge(t *testing.T) {
	g := depgraph.New()
	n := g.AddRefPair(0, 1, schema.ClassPerson)
	v := g.AddValuePair(EvEmail, "a@s.edu", "b@s.edu", 0.3)
	g.MarkNonMerge(v)
	g.AddEdge(v, n, depgraph.RealValued, EvEmail)
	if _, ok := Gather(n).max(EvEmail); ok {
		t.Error("non-merge source should not contribute real evidence")
	}
}

func TestPaperParams(t *testing.T) {
	if ScoreVenue.ClassParams != (ClassParams{TRV: 0.1, Beta: 0.2, Gamma: 0.05}) {
		t.Errorf("Venue constants off the published settings: %+v", ScoreVenue.ClassParams)
	}
	for name, row := range map[string]*ClassScore{"Person": ScorePerson, "Article": ScoreArticle, "Generic": ScoreGeneric} {
		if row.ClassParams != (ClassParams{TRV: 0.7, Beta: 0.1, Gamma: 0.05}) {
			t.Errorf("%s constants off the published settings: %+v", name, row.ClassParams)
		}
	}
}

// with returns a copy of the evidence with one label set.
func with(real map[string]float64, label string, v float64) map[string]float64 {
	out := map[string]float64{label: v}
	for l, x := range real {
		if l != label {
			out[l] = x
		}
	}
	return out
}

// TestScoreRowsMonotone walks the score table: §3.2's termination rests on
// every tree being monotone, so for random evidence over the labels a row
// reads, raising one value, merging one more strong or weak neighbor, or
// turning an absent label present with corroborating evidence (a value no
// lower than the S_rv it joins) never lowers Scorer.Score, and every score
// is a number in [0, 1]. tol absorbs float rounding of the averages only.
func TestScoreRowsMonotone(t *testing.T) {
	const tol = 1e-12
	s := paperScorer()
	for _, tc := range []struct {
		class  string
		row    *ClassScore
		labels []string
		// pinned excludes a raise that a pinned test below records as a
		// known counter-example.
		pinned func(label string, from, to float64) bool
	}{
		{class: schema.ClassPerson, row: ScorePerson, labels: ScorePerson.Reads},
		{class: schema.ClassArticle, row: ScoreArticle, labels: ScoreArticle.Reads, pinned: crossesTitleGate},
		{class: schema.ClassVenue, row: ScoreVenue, labels: ScoreVenue.Reads},
		{class: "Widget", row: ScoreGeneric, labels: []string{"g:a", "g:b", "g:c"}},
	} {
		score := func(real map[string]float64, strong, weak int) float64 {
			got := s.Score(buildNode(tc.class, real, strong, weak))
			if !(got >= 0 && got <= 1) { // also catches NaN
				t.Errorf("%s: Score(%v, %d strong, %d weak) = %v, outside [0, 1]", tc.class, real, strong, weak, got)
			}
			return got
		}
		property := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			// Exact 0 and 1 are drawn often: the key branches live there.
			draw := func(lo float64) float64 {
				switch rng.Intn(5) {
				case 0:
					return lo
				case 1:
					return 1
				}
				return lo + rng.Float64()*(1-lo)
			}
			real := make(map[string]float64)
			for _, l := range tc.labels {
				if rng.Intn(3) > 0 {
					real[l] = draw(0)
				}
			}
			strong, weak := rng.Intn(4), rng.Intn(4)
			base := score(real, strong, weak)
			ok := true
			expect := func(what string, got float64) {
				if got < base-tol {
					t.Errorf("%s: %s lowers Score(%v, %d strong, %d weak) from %v to %v", tc.class, what, real, strong, weak, base, got)
					ok = false
				}
			}
			expect("a merged strong neighbor", score(real, strong+1, weak))
			expect("a merged weak neighbor", score(real, strong, weak+1))
			srv := tc.row.SRV(evWith(real))
			for _, l := range tc.labels {
				if v, present := real[l]; present {
					if to := draw(v); tc.pinned == nil || !tc.pinned(l, v, to) {
						expect("raising "+l, score(with(real, l, to), strong, weak))
					}
				} else {
					expect("corroborating "+l, score(with(real, l, draw(srv)), strong, weak))
				}
			}
			return ok
		}
		if err := quick.Check(property, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Errorf("%s: %v", tc.class, err)
		}
	}
}

// crossesTitleGate reports the raise TestArticleTitleGateIsNotMonotone pins.
func crossesTitleGate(label string, from, to float64) bool {
	return label == EvTitle && from < 0.75 && to >= 0.75
}

// TestArticleTitleGateIsNotMonotone pins the counter-example the table walk
// found: below the 0.75 title gate the Article S_rv is the title similarity
// alone, at or above it the weighted average over everything present, so a
// title raised across the gate next to dissimilar authors, venue, year or
// pages lands lower than it started — and, falling under t_rv, loses its
// boolean boosts too. Each side of the gate is monotone (the walk above
// checks that). The engine never lowers a node's similarity, so the fixed
// point still terminates; the cost is an order dependence at the gate.
// Closing it (e.g. max(title, average)) changes recorded outputs, so it
// waits for a PR that may re-record them; this test then flips.
func TestArticleTitleGateIsNotMonotone(t *testing.T) {
	others := map[string]float64{EvAuthors: 0.3, EvVenue: 0, EvYear: 0, EvPages: 0}
	below, above := with(others, EvTitle, 0.74), with(others, EvTitle, 0.76)
	if got := ScoreArticle.SRV(evWith(below)); got != 0.74 {
		t.Errorf("below the gate S_rv = %v, want the title similarity", got)
	}
	if got, want := ScoreArticle.SRV(evWith(above)), 0.75*0.76+0.10*0.3; !close(got, want) {
		t.Errorf("above the gate S_rv = %v, want the weighted average %v", got, want)
	}
	s := paperScorer()
	lo := s.Score(buildNode(schema.ClassArticle, below, 1, 0))
	hi := s.Score(buildNode(schema.ClassArticle, above, 1, 0))
	if !close(lo, 0.84) || !(hi < lo) {
		t.Errorf("Score across the gate: %v then %v; want 0.74 + β, then lower", lo, hi)
	}
}

// TestDissimilarEvidenceLowersAverages pins the one place adding evidence
// lowers a score, by design: the Venue tree (and the Article and generic
// trees, averages too) renormalizes over the evidence that is present, so
// an attribute compared and found dissimilar pulls the average down where
// the same attribute missing would not — an identical venue name with a
// different year is a different edition. The Person tree takes the best of
// its alternative branches instead, so nothing present lowers it.
func TestDissimilarEvidenceLowersAverages(t *testing.T) {
	for _, tc := range []struct {
		row         *ClassScore
		base        map[string]float64
		label       string
		want, lower float64
	}{
		{ScoreVenue, map[string]float64{EvVenueName: 1}, EvYear, 1, 0.4 / 0.9},
		{ScoreArticle, map[string]float64{EvTitle: 0.9}, EvAuthors, 0.9, 0.75 * 0.9 / 0.85},
		{ScoreGeneric, map[string]float64{"g:a": 0.8}, "g:b", 0.8, 0.4},
	} {
		if got := tc.row.SRV(evWith(tc.base)); !close(got, tc.want) {
			t.Errorf("S_rv(%v) = %v, want %v", tc.base, got, tc.want)
		}
		tc.base[tc.label] = 0
		if got := tc.row.SRV(evWith(tc.base)); !close(got, tc.lower) {
			t.Errorf("S_rv(%v) = %v, want %v", tc.base, got, tc.lower)
		}
	}
	name := map[string]float64{EvName: 0.9}
	if absent, low := ScorePerson.SRV(evWith(name)), ScorePerson.SRV(evWith(with(name, EvEmail, 0))); low != absent {
		t.Errorf("a dissimilar email moved the Person S_rv from %v to %v", absent, low)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
