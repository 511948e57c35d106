package simfn

import (
	"testing"

	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func evWith(real map[string]float64) Evidence {
	return Evidence{Real: real}
}

func TestSRVPersonKeyBranch(t *testing.T) {
	ev := evWith(map[string]float64{EvEmail: 1, EvName: 0.1})
	if got := SRV(schema.ClassPerson, ev); got != 1 {
		t.Errorf("email key should dominate: %f", got)
	}
}

func TestSRVPersonNameOnly(t *testing.T) {
	ev := evWith(map[string]float64{EvName: 0.9})
	if got := SRV(schema.ClassPerson, ev); got != 0.9 {
		t.Errorf("name-only = %f", got)
	}
}

func TestSRVPersonMissingAttrsNotPenalized(t *testing.T) {
	// A perfect name must not be dragged down by a low email similarity
	// (different addresses of the same person are routine, §4).
	withLowEmail := SRV(schema.ClassPerson, evWith(map[string]float64{EvName: 1, EvEmail: 0.2}))
	nameOnly := SRV(schema.ClassPerson, evWith(map[string]float64{EvName: 1}))
	if withLowEmail < nameOnly {
		t.Errorf("low email penalized the name: %f < %f", withLowEmail, nameOnly)
	}
}

func TestSRVPersonCrossOnly(t *testing.T) {
	// p8 (email only) vs p5 (name only): only nameEmail evidence exists.
	ev := evWith(map[string]float64{EvNameEmail: 0.9})
	got := SRV(schema.ClassPerson, ev)
	if got < 0.7 || got >= 0.85 {
		t.Errorf("cross-only should land in the boostable band [0.7,0.85): %f", got)
	}
}

func TestSRVPersonMonotone(t *testing.T) {
	base := evWith(map[string]float64{EvName: 0.7, EvEmail: 0.7, EvNameEmail: 0.6})
	raised := evWith(map[string]float64{EvName: 0.8, EvEmail: 0.7, EvNameEmail: 0.6})
	if SRV(schema.ClassPerson, raised) < SRV(schema.ClassPerson, base) {
		t.Error("SRV not monotone in name evidence")
	}
}

func TestSRVArticle(t *testing.T) {
	// Exact title + exact pages is a key.
	key := evWith(map[string]float64{EvTitle: 1, EvPages: 1})
	if got := SRV(schema.ClassArticle, key); got != 1 {
		t.Errorf("title+pages key = %f", got)
	}
	// Title alone, exact: renormalized weighted average = 1.
	titleOnly := evWith(map[string]float64{EvTitle: 1})
	if got := SRV(schema.ClassArticle, titleOnly); got != 1 {
		t.Errorf("exact title alone = %f", got)
	}
	// Noisy title with good authors is below merge threshold but above
	// t_rv, and improves when the venue reconciles.
	before := evWith(map[string]float64{EvTitle: 0.85, EvAuthors: 0.9, EvVenue: 0.2})
	after := evWith(map[string]float64{EvTitle: 0.85, EvAuthors: 0.9, EvVenue: 1})
	sb, sa := SRV(schema.ClassArticle, before), SRV(schema.ClassArticle, after)
	if !(sb < sa) {
		t.Errorf("venue reconciliation should raise article sim: %f -> %f", sb, sa)
	}
	if sb < 0.7 {
		t.Errorf("before = %f, want >= t_rv", sb)
	}
}

func TestSRVVenue(t *testing.T) {
	ev := evWith(map[string]float64{EvVenueName: 1, EvYear: 1})
	if got := SRV(schema.ClassVenue, ev); got != 1 {
		t.Errorf("exact venue = %f", got)
	}
	// Name only, weak: still positive (weights renormalize).
	weak := evWith(map[string]float64{EvVenueName: 0.3})
	if got := SRV(schema.ClassVenue, weak); got != 0.3 {
		t.Errorf("weak venue name = %f", got)
	}
}

func TestSRVGeneric(t *testing.T) {
	if got := SRV("Widget", evWith(map[string]float64{"a": 0.4, "b": 0.8})); !close(got, 0.6) {
		t.Errorf("generic average = %f", got)
	}
	if got := SRV("Widget", evWith(map[string]float64{})); got != 0 {
		t.Errorf("no evidence = %f", got)
	}
}

// buildPersonNode wires a small graph around one person pair and returns
// the node.
func buildPersonNode(t *testing.T, nameSim float64, strongMerged, weakMerged int) *depgraph.Node {
	t.Helper()
	g := depgraph.New()
	n := g.AddRefPair(0, 1, schema.ClassPerson)
	v := g.AddValuePair(EvName, "a", "b", nameSim)
	g.AddEdge(v, n, depgraph.RealValued, EvName)
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

func TestScorerBoosts(t *testing.T) {
	s := NewScorer()
	// S_rv = 0.75 >= t_rv 0.7; one strong (+0.1) and two weak (+0.1).
	n := buildPersonNode(t, 0.75, 1, 2)
	got := s.Score(n)
	want := 0.75 + 0.1 + 2*0.05
	if !close(got, want) {
		t.Errorf("Score = %f, want %f", got, want)
	}
}

func TestScorerGate(t *testing.T) {
	s := NewScorer()
	// S_rv = 0.5 < t_rv: boolean evidence must be ignored.
	n := buildPersonNode(t, 0.5, 3, 3)
	if got := s.Score(n); !close(got, 0.5) {
		t.Errorf("gated Score = %f, want 0.5", got)
	}
}

func TestScorerClamp(t *testing.T) {
	s := NewScorer()
	n := buildPersonNode(t, 0.8, 5, 5) // 0.8 + 0.5 + 0.25 -> clamp 1
	if got := s.Score(n); got != 1 {
		t.Errorf("clamped Score = %f", got)
	}
}

func TestScorerValuePairAlias(t *testing.T) {
	s := NewScorer()
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
	ev := Gather(n)
	if _, ok := ev.Real[EvEmail]; ok {
		t.Error("non-merge source should not contribute real evidence")
	}
	if !ev.NonMergeReal[EvEmail] {
		t.Error("non-merge source should be flagged")
	}
}

func TestPaperParams(t *testing.T) {
	p := PaperParams()
	if p[schema.ClassVenue].Beta != 0.2 || p[schema.ClassPerson].Beta != 0.1 {
		t.Error("beta values off the published settings")
	}
	if p[schema.ClassVenue].TRV != 0.1 || p[schema.ClassArticle].TRV != 0.7 {
		t.Error("t_rv values off the published settings")
	}
	if p[schema.ClassPerson].Gamma != 0.05 {
		t.Error("gamma off the published settings")
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
