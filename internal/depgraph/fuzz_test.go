package depgraph

import (
	"testing"

	"refrecon/internal/reference"
)

// FuzzEngineOps interprets the fuzzer's byte stream as a program of graph
// operations — add pair, add value evidence, wire dependency edges, mark
// constraints, run propagation — and executes it against twin graphs at
// once, both scored by eqScore from equivalence_test.go. After every run
// the twins must agree bit-for-bit and pass the graph invariants, so any
// nondeterminism or storage breach the op mix can drive the engine into
// becomes a one-file reproducer. Seed corpus in testdata/fuzz/FuzzEngineOps/.

// opStream decodes fuzzer bytes into bounded operands. Exhaustion yields
// zeros, so every byte prefix is a valid program.
type opStream struct {
	data []byte
	i    int
}

func (s *opStream) next() (byte, bool) {
	if s.i >= len(s.data) {
		return 0, false
	}
	b := s.data[s.i]
	s.i++
	return b, true
}

func (s *opStream) operand(n int) int {
	b, _ := s.next()
	return int(b) % n
}

func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 3, 5, 9, 1, 1, 4, 2, 7})
	// A program with two run barriers: construct, run, extend, run.
	f.Add([]byte{
		0, 1, 2, 1, 0, 2, 4, 200, 2, 0, 1, 0, 5,
		0, 3, 4, 1, 1, 6, 255, 3, 0, 5,
	})
	f.Add([]byte{0, 9, 8, 0, 8, 7, 2, 0, 1, 3, 180, 4, 0, 0, 2, 1, 2, 2, 3, 1, 5, 0, 10, 9, 5})
	// One pair accumulating seven value-evidence in-edges: the in-span
	// outgrows the minimum capacity and relocates into the arena overflow
	// region, with a duplicate edge re-added across the boundary and more
	// evidence appended after a run barrier.
	f.Add([]byte{
		0, 0, 1,
		1, 0, 0, 1, 100, 0,
		1, 0, 0, 2, 110, 0,
		1, 0, 0, 3, 120, 0,
		1, 0, 0, 4, 130, 0,
		1, 0, 0, 5, 140, 0,
		1, 0, 0, 6, 150, 0,
		1, 0, 0, 3, 120, 0,
		5,
		1, 0, 0, 7, 160, 0,
		5,
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 512 {
			t.Skip() // longer programs only repeat the same op mix
		}
		gD, gR := New(), New()
		// Parallel state: index i in one slice corresponds to the same
		// logical node in the other graph.
		var pairsD, pairsR []*Node
		var valsD, valsR []*Node
		var seedIdx []int // pairs touched since the previous run barrier
		runs := 0

		runBoth := func() {
			if runs >= 8 {
				return // bound propagation work per program
			}
			runs++
			seedD := make([]*Node, 0, len(seedIdx))
			seedR := make([]*Node, 0, len(seedIdx))
			for _, i := range seedIdx {
				seedD = append(seedD, pairsD[i])
				seedR = append(seedR, pairsR[i])
			}
			seedIdx = seedIdx[:0]
			stD := gD.Run(seedD, eqOptions(eqScore))
			stR := gR.Run(seedR, eqOptions(eqScore))
			if stD != stR {
				t.Fatalf("twin stats %+v != %+v", stD, stR)
			}
			if snapD, snapR := eqSnapshot(gD), eqSnapshot(gR); snapD != snapR {
				t.Fatalf("twins diverged after run\n--- D ---\n%s\n--- R ---\n%s", snapD, snapR)
			}
			checkInvariants(t, gD, -1)
			checkInvariants(t, gR, -1)
		}

		s := &opStream{data: program}
		for {
			op, ok := s.next()
			if !ok {
				break
			}
			switch op % 6 {
			case 0: // add a reference pair
				a := reference.ID(s.operand(16))
				b := reference.ID(s.operand(16))
				if a == b {
					continue
				}
				pairsD = append(pairsD, gD.AddRefPair(a, b, "Person"))
				pairsR = append(pairsR, gR.AddRefPair(a, b, "Person"))
				seedIdx = append(seedIdx, len(pairsD)-1)
			case 1: // add value evidence to an existing pair
				if len(pairsD) == 0 {
					continue
				}
				evidences := [...]string{"name", "email", "title"}
				ev := evidences[s.operand(len(evidences))]
				x := s.operand(10)
				y := s.operand(10)
				sim := float64(s.operand(256)) / 255
				p := s.operand(len(pairsD))
				if !pairsD[p].Alive() {
					continue
				}
				keyX, keyY := byte('a'+x), byte('a'+y)
				vD := gD.AddValuePair(ev, string(keyX), string(keyY), sim)
				vR := gR.AddValuePair(ev, string(keyX), string(keyY), sim)
				valsD = append(valsD, vD)
				valsR = append(valsR, vR)
				gD.AddEdge(vD, pairsD[p], RealValued, ev)
				gR.AddEdge(vR, pairsR[p], RealValued, ev)
				seedIdx = append(seedIdx, p)
			case 2: // wire an inter-pair dependency edge
				if len(pairsD) < 2 {
					continue
				}
				a := s.operand(len(pairsD))
				b := s.operand(len(pairsD))
				if !pairsD[a].Alive() || !pairsD[b].Alive() {
					continue
				}
				dep := DepType(s.operand(3))
				gD.AddEdge(pairsD[a], pairsD[b], dep, "contact")
				gR.AddEdge(pairsR[a], pairsR[b], dep, "contact")
				seedIdx = append(seedIdx, b)
			case 3: // alias-learning edge: pair strengthens a value pair
				if len(pairsD) == 0 || len(valsD) == 0 {
					continue
				}
				p := s.operand(len(pairsD))
				v := s.operand(len(valsD))
				if !pairsD[p].Alive() || !valsD[v].Alive() {
					continue
				}
				gD.AddEdge(pairsD[p], valsD[v], StrongBoolean, valsD[v].Class())
				gR.AddEdge(pairsR[p], valsR[v], StrongBoolean, valsR[v].Class())
			case 4: // negative constraint
				if len(pairsD) == 0 {
					continue
				}
				p := s.operand(len(pairsD))
				if !pairsD[p].Alive() {
					continue
				}
				gD.MarkNonMerge(pairsD[p])
				gR.MarkNonMerge(pairsR[p])
			case 5: // run barrier: propagate, enrich, compare
				runBoth()
			}
		}
		runBoth()
	})
}
