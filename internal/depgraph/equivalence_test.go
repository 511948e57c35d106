package depgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"refrecon/internal/reference"
)

// This file holds the twin-graph determinism property test: random
// merge/enrich sequences applied to two identically constructed graphs and
// scored by the one scorer below must leave them bit-identical —
// similarities, statuses, merge sets, and engine counters — so an engine
// decision that leaks map iteration order (or any other nondeterminism)
// fails it. The scorer implements the simfn template's shape (a generic
// S_rv average plus gated boolean boosts) over a fresh scan of the
// in-edges, as every propagation step does.

const (
	eqTRV   = 0.3
	eqBeta  = 0.1
	eqGamma = 0.05
)

func eqScoreTemplate(sum float64, count, strong, weak int) float64 {
	srv := 0.0
	if count > 0 {
		srv = sum / float64(count)
	}
	total := srv
	if srv >= eqTRV {
		total += eqBeta*float64(strong) + eqGamma*float64(weak)
	}
	if total > 1 {
		total = 1
	}
	return total
}

// eqScore scans the incoming edges afresh on every call, accumulating
// evidence kinds in sorted order so float rounding never depends on
// adjacency or map order.
func eqScore(n *Node) float64 {
	if n.Kind() == ValuePair {
		for _, e := range n.In() {
			if e.Dep == StrongBoolean && e.From.Status() == Merged {
				return 1
			}
		}
		return n.Sim()
	}
	maxBy := make(map[string]float64)
	var kinds []string
	strong, weak := 0, 0
	for _, e := range n.In() {
		switch e.Dep {
		case RealValued:
			if e.From.Status() == NonMerge {
				continue
			}
			if cur, ok := maxBy[e.Evidence]; !ok {
				maxBy[e.Evidence] = e.From.Sim()
				kinds = append(kinds, e.Evidence)
			} else if e.From.Sim() > cur {
				maxBy[e.Evidence] = e.From.Sim()
			}
		case StrongBoolean:
			if e.From.Status() == Merged {
				strong++
			}
		case WeakBoolean:
			if e.From.Status() == Merged {
				weak++
			}
		}
	}
	sort.Strings(kinds)
	sum := 0.0
	for _, k := range kinds {
		sum += maxBy[k]
	}
	return eqScoreTemplate(sum, len(kinds), strong, weak)
}

func eqOptions(scorer func(*Node) float64) Options {
	return Options{
		Scorer: ScorerFunc(scorer),
		MergeThreshold: func(n *Node) float64 {
			if n.Kind() == ValuePair {
				return 1
			}
			return 0.7
		},
		Epsilon:   1e-9,
		Propagate: true,
		Enrich:    true,
		MaxSteps:  1_000_000,
	}
}

// eqBuildPhase mutates g with one batch of random construction operations
// (the same operation mix as the graph-invariant generator, plus value-pair
// sim raises and constraint marks), drawing every random choice from rng so
// two graphs driven by equal-seeded rngs receive identical operation
// sequences. refHi bounds the reference-id universe; later batches pass a
// larger bound so new references wire into the existing graph. Returns the
// RefPair nodes touched this batch, in operation order — the propagation
// seed, which may include already-merged nodes from earlier batches
// (exercising the re-seed demotion path).
func eqBuildPhase(g *Graph, rng *rand.Rand, refHi int) []*Node {
	evidences := [...]string{"name", "email", "title"}
	var pairs []*Node
	for i := 0; i < 60; i++ {
		a := reference.ID(rng.Intn(refHi))
		b := reference.ID(rng.Intn(refHi))
		if a == b {
			continue
		}
		n := g.AddRefPair(a, b, "Person")
		pairs = append(pairs, n)
		for k := 0; k < 1+rng.Intn(2); k++ {
			ev := evidences[rng.Intn(len(evidences))]
			v := g.AddValuePair(ev,
				fmt.Sprintf("x%d", rng.Intn(12)),
				fmt.Sprintf("x%d", rng.Intn(12)),
				rng.Float64())
			g.AddEdge(v, n, RealValued, ev)
			if rng.Intn(4) == 0 {
				g.AddEdge(n, v, StrongBoolean, ev)
			}
		}
	}
	for i := 0; i < 50 && len(pairs) > 1; i++ {
		a := pairs[rng.Intn(len(pairs))]
		b := pairs[rng.Intn(len(pairs))]
		g.AddEdge(a, b, DepType(rng.Intn(3)), "contact")
	}
	for i := 0; i < 4; i++ {
		g.MarkNonMerge(pairs[rng.Intn(len(pairs))])
	}
	return pairs
}

// eqSnapshot canonically renders every live node's key, kind, status, and
// exact similarity bits.
func eqSnapshot(g *Graph) string {
	var lines []string
	g.Nodes(func(n *Node) {
		lines = append(lines, fmt.Sprintf("%s|%d|%d|%016x",
			n.Key(), n.Kind(), n.Status(), math.Float64bits(n.Sim())))
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestDeltaRescanEquivalence drives pairs of identically constructed
// random graphs, both scored by eqScore, through a propagation run, an
// incremental second construction batch, and a second run. After every
// phase the twins must agree exactly — stats and Float64bits snapshots —
// and both must pass the graph invariants. (The name predates the removal
// of the delta-maintained scorer this once compared against.)
func TestDeltaRescanEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		gA, gB := New(), New()
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))

		for batch, refHi := range []int{24, 40} {
			phase := fmt.Sprintf("batch %d", batch)
			seedA := eqBuildPhase(gA, rngA, refHi)
			seedB := eqBuildPhase(gB, rngB, refHi)
			if len(seedA) != len(seedB) {
				t.Fatalf("seed %d %s: construction diverged", seed, phase)
			}
			stA := gA.Run(seedA, eqOptions(eqScore))
			stB := gB.Run(seedB, eqOptions(eqScore))

			if stA != stB {
				t.Errorf("seed %d %s: twin stats %+v != %+v", seed, phase, stA, stB)
			}
			if snapA, snapB := eqSnapshot(gA), eqSnapshot(gB); snapA != snapB {
				t.Fatalf("seed %d %s: twins diverged\n--- A ---\n%s\n--- B ---\n%s",
					seed, phase, snapA, snapB)
			}
			checkInvariants(t, gA, seed)
			checkInvariants(t, gB, seed)
		}
	}
}
