package collective

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"refrecon/internal/depgraph"
	"refrecon/internal/reference"
	"refrecon/internal/simfn"
)

// frozenDec scripts one stored pair's snapshot decision.
type frozenDec struct {
	sim      float64
	merged   bool
	nonMerge bool
}

// fakeHost is a fully scripted Host over a custom "Thing" class: attribute
// evidence is a single generic value node per pair, associations are a
// single "link" attribute carrying weak-boolean evidence. It lets the
// tests pin engine behavior without a snapshot or corpus statistics.
type fakeHost struct {
	classes map[reference.ID]string
	cands   map[reference.ID][]reference.ID
	assocs  map[reference.ID]map[string][]reference.ID
	attr    map[uint64]float64
	frozen  map[uint64]frozenDec
}

func (h *fakeHost) Candidates(id reference.ID) []reference.ID { return h.cands[id] }

func (h *fakeHost) ClassOf(id reference.ID) string { return h.classes[id] }

func (h *fakeHost) EachAssoc(id reference.ID, fn func(string, []reference.ID)) {
	as := h.assocs[id]
	attrs := make([]string, 0, len(as))
	for a := range as {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		fn(a, as[a])
	}
}

func (h *fakeHost) AssocEvidence(class, attr string) (string, depgraph.DepType, string, bool) {
	if attr == "link" {
		return "ga:link", depgraph.WeakBoolean, "", true
	}
	return "", 0, "", false
}

func (h *fakeHost) WireAttrEvidence(g *depgraph.Graph, n *depgraph.Node, a, b reference.ID) bool {
	sim, ok := h.attr[pairKey(a, b)]
	if !ok {
		return false
	}
	elem := fmt.Sprintf("v:%d-%d", a, b)
	vn := g.AddValuePair("g:x", elem, elem+"'", sim)
	g.AddEdge(vn, n, depgraph.RealValued, "g:x")
	return true
}

func (h *fakeHost) Frozen(a, b reference.ID) (float64, bool, bool, bool) {
	d, ok := h.frozen[pairKey(a, b)]
	if !ok {
		return 0, false, false, false
	}
	return d.sim, d.merged, d.nonMerge, true
}

// EngineOptions scores the "Thing" pairs by simfn's generic row and keeps
// merges out of the way (threshold 0.95) so scores stay directly readable.
func (h *fakeHost) EngineOptions() depgraph.Options {
	return depgraph.Options{
		Scorer: &simfn.Scorer{},
		MergeThreshold: func(n *depgraph.Node) float64 {
			if n.Kind() == depgraph.ValuePair {
				return 1
			}
			return 0.95
		},
	}
}

// boostWorld builds the canonical test fixture: query 100 with two
// candidates 1 and 2 at equal attribute similarity 0.8; the query links to
// target 10, candidate 1 links to 11 (frozen merged with 10), candidate 2
// links to 12 (unknown to the snapshot). Only the relational evidence
// separates the candidates.
func boostWorld() *fakeHost {
	const thing = "Thing"
	h := &fakeHost{
		classes: map[reference.ID]string{
			100: thing, 1: thing, 2: thing, 10: thing, 11: thing, 12: thing,
		},
		cands: map[reference.ID][]reference.ID{
			100: {1, 2},
		},
		assocs: map[reference.ID]map[string][]reference.ID{
			100: {"link": {10}},
			1:   {"link": {11}},
			2:   {"link": {12}},
		},
		attr: map[uint64]float64{
			pairKey(100, 1): 0.8,
			pairKey(100, 2): 0.8,
		},
		frozen: map[uint64]frozenDec{
			pairKey(10, 11): {sim: 1, merged: true},
		},
	}
	return h
}

// testConfig is the default budgets, with no time budget.
func testConfig() Config {
	return Config{}.WithDefaults()
}

func TestResolveRelationalBoost(t *testing.T) {
	h := boostWorld()
	res := Resolve(h, Request{Query: 100}, testConfig())
	if res.Stats.Degraded {
		t.Fatalf("unexpected degradation: %q", res.Stats.Reason)
	}
	if res.Scores == nil {
		t.Fatal("no scores")
	}
	// Candidate 1's link target pair (10, 11) is frozen merged, so its
	// weak-boolean evidence adds gamma = 0.05 over the shared 0.8 base.
	if got, want := res.Scores[1], 0.85; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("score(1) = %v, want %v", got, want)
	}
	if got, want := res.Scores[2], 0.8; got != want {
		t.Errorf("score(2) = %v, want %v", got, want)
	}
	if res.Scores[1] <= res.Scores[2] {
		t.Errorf("relational evidence must separate the candidates: %v vs %v",
			res.Scores[1], res.Scores[2])
	}
	if res.Stats.Candidates != 2 {
		t.Errorf("Candidates = %d, want 2", res.Stats.Candidates)
	}
	if res.Stats.PairNodes == 0 || res.Stats.MaxHop == 0 {
		t.Errorf("expansion stats not populated: %+v", res.Stats)
	}
}

func TestResolveFrozenNonMergeBlocksEvidence(t *testing.T) {
	h := boostWorld()
	h.frozen[pairKey(10, 11)] = frozenDec{sim: 0.9, nonMerge: true}
	res := Resolve(h, Request{Query: 100}, testConfig())
	if res.Stats.Degraded {
		t.Fatalf("unexpected degradation: %q", res.Stats.Reason)
	}
	// A constrained target pair must contribute nothing: both candidates
	// stay at the attribute-only 0.8.
	if res.Scores[1] != 0.8 || res.Scores[2] != 0.8 {
		t.Errorf("non-merge pair leaked evidence: %v", res.Scores)
	}
}

func TestResolveNodeBudgetDegrades(t *testing.T) {
	h := boostWorld()
	for max := 1; max <= 3; max++ {
		cfg := testConfig()
		cfg.MaxNodes = max
		res := Resolve(h, Request{Query: 100}, cfg)
		if !res.Stats.Degraded || res.Stats.Reason != "nodes" {
			t.Fatalf("MaxNodes=%d: Degraded=%v Reason=%q, want nodes degradation",
				max, res.Stats.Degraded, res.Stats.Reason)
		}
		if res.Scores != nil {
			t.Fatalf("MaxNodes=%d: degraded result must carry no scores", max)
		}
		if res.Stats.PairNodes > max {
			t.Fatalf("MaxNodes=%d exceeded: %d pair nodes", max, res.Stats.PairNodes)
		}
	}
	// The full expansion needs 4 pairs; at 4 the budget fits.
	cfg := testConfig()
	cfg.MaxNodes = 4
	if res := Resolve(h, Request{Query: 100}, cfg); res.Stats.Degraded {
		t.Fatalf("MaxNodes=4 should fit, degraded with %q (%d pairs)",
			res.Stats.Reason, res.Stats.PairNodes)
	}
}

// countingHost counts the Host calls only building a graph makes.
type countingHost struct {
	*fakeHost
	wires, frozen int
}

func (h *countingHost) WireAttrEvidence(g *depgraph.Graph, n *depgraph.Node, a, b reference.ID) bool {
	h.wires++
	return h.fakeHost.WireAttrEvidence(g, n, a, b)
}

func (h *countingHost) Frozen(a, b reference.ID) (float64, bool, bool, bool) {
	h.frozen++
	return h.fakeHost.Frozen(a, b)
}

// TestResolveDegradeBuildsNothing pins the plan-then-build split: a query
// over the node budget degrades on the id-only walk, before any node is
// built, any value compared or any frozen decision read, with the Stats
// the interleaved expansion reported; a query that fits wires attribute
// evidence once per RefPair node.
func TestResolveDegradeBuildsNothing(t *testing.T) {
	for _, tc := range []struct{ max, hop int }{{1, 0}, {2, 0}, {3, 1}} {
		h := &countingHost{fakeHost: boostWorld()}
		cfg := testConfig()
		cfg.MaxNodes = tc.max
		st := Resolve(h, Request{Query: 100}, cfg).Stats
		st.ExpandMS = 0
		want := Stats{Candidates: 2, PairNodes: tc.max, MaxHop: tc.hop, Degraded: true, Reason: "nodes"}
		if st != want || h.wires != 0 || h.frozen != 0 {
			t.Errorf("MaxNodes=%d: %d wires, %d frozen reads, stats %+v; want none and %+v",
				tc.max, h.wires, h.frozen, st, want)
		}
	}
	h := &countingHost{fakeHost: boostWorld()}
	cfg := testConfig()
	cfg.MaxNodes = 4
	res := Resolve(h, Request{Query: 100}, cfg)
	if res.Stats.Degraded || h.wires != res.Stats.PairNodes {
		t.Errorf("MaxNodes=4: degraded %v, %d wires for %d pair nodes",
			res.Stats.Degraded, h.wires, res.Stats.PairNodes)
	}
}

func TestResolveStepBudgetDegrades(t *testing.T) {
	h := boostWorld()
	cfg := testConfig()
	cfg.MaxSteps = 1
	res := Resolve(h, Request{Query: 100}, cfg)
	if !res.Stats.Degraded || res.Stats.Reason != "steps" {
		t.Fatalf("Degraded=%v Reason=%q, want steps degradation",
			res.Stats.Degraded, res.Stats.Reason)
	}
	if res.Scores != nil {
		t.Fatal("degraded result must carry no scores")
	}
	if res.Stats.Steps > 1 {
		t.Fatalf("step budget exceeded: %d steps", res.Stats.Steps)
	}
}

func TestResolveTimeBudgetDegrades(t *testing.T) {
	h := boostWorld()
	cfg := testConfig()
	cfg.Budget = time.Nanosecond
	res := Resolve(h, Request{Query: 100}, cfg)
	if !res.Stats.Degraded || res.Stats.Reason != "time" {
		t.Fatalf("Degraded=%v Reason=%q, want time degradation",
			res.Stats.Degraded, res.Stats.Reason)
	}
	if res.Scores != nil {
		t.Fatal("degraded result must carry no scores")
	}
}

func TestResolveDeterministic(t *testing.T) {
	h := boostWorld()
	cfg := testConfig()
	first := Resolve(h, Request{Query: 100}, cfg)
	for i := 0; i < 5; i++ {
		res := Resolve(h, Request{Query: 100}, cfg)
		if !reflect.DeepEqual(res.Scores, first.Scores) {
			t.Fatalf("run %d: scores differ: %v vs %v", i, res.Scores, first.Scores)
		}
		a, b := res.Stats, first.Stats
		a.ExpandMS, a.ResolveMS, b.ExpandMS, b.ResolveMS = 0, 0, 0, 0
		if a != b {
			t.Fatalf("run %d: stats differ: %+v vs %+v", i, a, b)
		}
	}
}

func TestResolveNoCandidates(t *testing.T) {
	h := boostWorld()
	h.cands[100] = nil
	res := Resolve(h, Request{Query: 100}, testConfig())
	if res.Stats.Degraded {
		t.Fatalf("no candidates is not a degradation: %+v", res.Stats)
	}
	if res.Scores == nil || len(res.Scores) != 0 {
		t.Fatalf("want empty (non-nil) scores, got %v", res.Scores)
	}
}
