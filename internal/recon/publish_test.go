package recon

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"refrecon/internal/datagen/biblio"
	"refrecon/internal/datagen/catalog"
	"refrecon/internal/datagen/cora"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/depgraph"
	"refrecon/internal/obs"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// publishStream is a corpus replayed through a session in batches cut at
// self-contained boundaries.
type publishStream struct {
	name  string
	src   *reference.Store
	cuts  []int // batch ends, the last one src.Len()
	batch int   // target batch size
}

// publishStreams are the sessions the publication nets replay: PIM-A and
// Cora at 0.1 in about ten batches, and 3,000 biblio references in
// 128-reference batches.
func publishStreams(t *testing.T) []publishStream {
	t.Helper()
	a, err := pim.Generate(pim.DatasetA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cora.Generate(cora.Default(0.1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := biblio.Generate(biblio.Default(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	var out []publishStream
	for _, s := range []publishStream{
		{name: "pimA", src: a.Store, batch: a.Store.Len() / 10},
		{name: "cora", src: c.Store, batch: c.Store.Len() / 10},
		{name: "biblio", src: b.Store, batch: 128},
	} {
		last := 0
		for _, cut := range validCuts(s.src) {
			if cut-last >= s.batch {
				s.cuts = append(s.cuts, cut)
				last = cut
			}
		}
		s.cuts = append(s.cuts, s.src.Len())
		out = append(out, s)
	}
	return out
}

// replay feeds the stream through sess, calling after once per commit with
// the commit's index.
func (s publishStream) replay(t *testing.T, sess *Session, after func(i int)) {
	t.Helper()
	next := 0
	for i, cut := range s.cuts {
		for ; next < cut; next++ {
			sess.Store().Add(cloneRef(s.src.Get(reference.ID(next))))
		}
		if _, err := sess.Reconcile(); err != nil {
			t.Fatalf("%s batch %d: %v", s.name, i, err)
		}
		after(i)
	}
}

// fullExport is the publication the session had before decisions were
// carried across snapshots: every live pair node described afresh.
func fullExport(g *depgraph.Graph) map[uint64]PairDecision {
	out := make(map[uint64]PairDecision)
	g.Nodes(func(n *depgraph.Node) {
		if n.Kind() == depgraph.RefPair {
			out[pairIndex(n.RefA(), n.RefB())] = describeNode(n)
		}
	})
	return out
}

// freshSnapshot exports the session's state with no predecessor to share.
func freshSnapshot(t *testing.T, sess *Session) *Snapshot {
	t.Helper()
	saved := sess.pub
	sess.pub = publication{}
	defer func() { sess.pub = saved }()
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// sameSnapshot compares what two snapshots expose: every pair decision,
// every entity, and Explain over every pair decision's endpoints plus a
// stride of reference pairs.
func sameSnapshot(t *testing.T, label string, got, want *Snapshot, decisions map[uint64]PairDecision) {
	t.Helper()
	samePairs(t, label, got, decisions)
	if len(got.entities) != len(want.entities) {
		t.Fatalf("%s: %d entities, want %d", label, len(got.entities), len(want.entities))
	}
	for i, e := range got.entities {
		w := want.entities[i]
		if e.Canonical != w.Canonical || e.Class != w.Class || !reflect.DeepEqual(e.Members, w.Members) || !reflect.DeepEqual(e.Atomic, w.Atomic) {
			t.Fatalf("%s: entity %d differs: %+v, want %+v", label, i, e, w)
		}
	}
	explain := func(a, b reference.ID) {
		x, errX := got.Explain(a, b)
		y, errY := want.Explain(a, b)
		if fmt.Sprint(errX) != fmt.Sprint(errY) || !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: Explain(%d, %d) = %v %v, want %v %v", label, a, b, x, errX, y, errY)
		}
	}
	for _, d := range decisions {
		explain(d.A, d.B)
	}
	n := reference.ID(got.RefCount())
	for a := reference.ID(0); a < n; a += 7 {
		explain(a, (a*31+5)%n)
	}
}

// samePairs compares a snapshot's pair decisions with a full export's.
func samePairs(t *testing.T, label string, got *Snapshot, decisions map[uint64]PairDecision) {
	t.Helper()
	if len(got.pairs) != len(decisions) {
		t.Fatalf("%s: %d pair decisions, the full export has %d", label, len(got.pairs), len(decisions))
	}
	for k, d := range decisions {
		if g := got.pairs[k]; g == nil || !reflect.DeepEqual(*g, d) {
			t.Fatalf("%s: pair (%d,%d) decision %+v, the full export has %+v", label, d.A, d.B, g, d)
		}
	}
}

// TestSnapshotSharingOracle checks, after every commit, that a snapshot
// carrying decisions across publishes exposes exactly what a full export
// does — after a Poison mid-session too — and that its encode/decode round
// trip does as well. The previous snapshot, whose decisions the new one
// shares, must still hold its own.
func TestSnapshotSharingOracle(t *testing.T) {
	for _, s := range publishStreams(t) {
		t.Run(s.name, func(t *testing.T) {
			sess := New(schema.PIM(), DefaultConfig()).NewSession(reference.NewStore())
			var prev *Snapshot
			var prevDecisions map[uint64]PairDecision
			s.replay(t, sess, func(i int) {
				label := fmt.Sprintf("batch %d", i)
				snap, err := sess.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				decisions := fullExport(sess.g)
				sameSnapshot(t, label, snap, freshSnapshot(t, sess), decisions)
				if prev != nil {
					samePairs(t, label+" previous snapshot", prev, prevDecisions)
				}
				prev, prevDecisions = snap, decisions
				if i%4 == 3 || i == len(s.cuts)-1 {
					blob, err := EncodeSnapshot(snap)
					if err != nil {
						t.Fatal(err)
					}
					dec, err := DecodeSnapshot(blob)
					if err != nil {
						t.Fatal(err)
					}
					sameSnapshot(t, label+" decoded", dec, snap, decisions)
				}
				if i == len(s.cuts)/2 {
					sess.Poison()
				}
			})
		})
	}
}

// TestSnapshotDescribesWhatChanged is the proportionality count: on the
// biblio session, once the store holds more than 1,200 references (batch
// 9 on; 16-23% there, 25-38% over batches 4-8), a publish re-describes
// under a quarter of the pair nodes. The snapshot span reports the count.
func TestSnapshotDescribesWhatChanged(t *testing.T) {
	s := publishStreams(t)[2]
	cfg := DefaultConfig()
	tr := obs.NewTracer()
	cfg.Obs = &obs.Observer{Trace: tr}
	sess := New(schema.PIM(), cfg).NewSession(reference.NewStore())
	seen := 0
	s.replay(t, sess, func(i int) {
		if _, err := sess.Snapshot(); err != nil {
			t.Fatal(err)
		}
		events := tr.Events()
		sp := events[len(events)-1]
		if sp.Name != "snapshot" {
			t.Fatalf("batch %d: last span %q, want the snapshot span", i, sp.Name)
		}
		pairs, described := sp.Args["pairs"].(int), sp.Args["described"].(int)
		if want := len(fullExport(sess.g)); pairs != want {
			t.Fatalf("batch %d: snapshot span says %d pairs, the graph has %d", i, pairs, want)
		}
		t.Logf("batch %d: refs %d described %d of %d", i, sess.Store().Len(), described, pairs)
		if i >= 9 {
			seen++
			if 4*described >= pairs {
				t.Errorf("batch %d: re-described %d of %d pairs, want under 25%%", i, described, pairs)
			}
		}
	})
	if seen < 10 {
		t.Fatalf("only %d batches past the ninth", seen)
	}
	if _, err := sess.Snapshot(); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if d := events[len(events)-1].Args["described"]; d != 0 {
		t.Errorf("a second publish of an unchanged session re-described %v pairs", d)
	}
}

// foldable lists the merged pairs n = (r1, r2) for which enrich would fold
// now: an r3 with both (r2, r3) and (r1, r3) alive.
func foldable(g *depgraph.Graph) []*depgraph.Node {
	var out []*depgraph.Node
	g.Nodes(func(n *depgraph.Node) {
		if n.Kind() != depgraph.RefPair || n.Status() != depgraph.Merged {
			return
		}
		r1, r2, hit := n.RefA(), n.RefB(), false
		g.EachRefPair(r2, func(r3 reference.ID, l *depgraph.Node) {
			if r3 != r1 && g.LookupRefPair(r1, r3) != nil {
				hit = true
			}
		})
		if hit {
			out = append(out, n)
		}
	})
	return out
}

// TestReenrichFollowsNewPairs checks the restricted re-enrichment on the
// three sessions: before each Run, every merged pair that could fold
// touches a reference of a pair node created since the last Run, and
// reenrich's scanned count is exactly those touching merged pairs; after
// the Run, a full scan finds nothing to fold.
func TestReenrichFollowsNewPairs(t *testing.T) {
	for _, s := range publishStreams(t) {
		t.Run(s.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tr := obs.NewTracer()
			cfg.Obs = &obs.Observer{Trace: tr}
			sess := New(schema.PIM(), cfg).NewSession(reference.NewStore())
			bound, next, seen := 0, 0, 0
			for i, cut := range s.cuts {
				for ; next < cut; next++ {
					sess.Store().Add(cloneRef(s.src.Get(reference.ID(next))))
				}
				seed, _, err := sess.build(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				g := sess.g
				touched := make(map[reference.ID]bool)
				g.Nodes(func(n *depgraph.Node) {
					if n.Kind() == depgraph.RefPair && int(n.ID()) >= bound {
						touched[n.RefA()], touched[n.RefB()] = true, true
					}
				})
				for _, n := range foldable(g) {
					if !touched[n.RefA()] && !touched[n.RefB()] {
						t.Fatalf("batch %d: merged %s can fold but touches no new pair", i, n.Key())
					}
				}
				want := 0
				g.Nodes(func(n *depgraph.Node) {
					if n.Kind() == depgraph.RefPair && n.Status() == depgraph.Merged && (touched[n.RefA()] || touched[n.RefB()]) {
						want++
					}
				})
				if _, err := sess.finish(context.Background(), seed, 1); err != nil {
					t.Fatal(err)
				}
				events := tr.Events()
				for _, e := range events[seen:] {
					if e.Name == "reenrich" {
						if got := e.Args["scanned"]; got != want {
							t.Fatalf("batch %d: reenrich scanned %v, want the %d merged pairs touching new pairs", i, got, want)
						}
					}
				}
				seen = len(events)
				if f := foldable(g); len(f) > 0 {
					t.Fatalf("batch %d: after the Run, %d merged pairs can still fold (first %s)", i, len(f), f[0].Key())
				}
				if i > 0 && want >= len(fullExport(g)) {
					t.Errorf("batch %d: reenrich scanned %d, not fewer than the pair nodes", i, want)
				}
				bound = g.NodeIDBound()
			}
		})
	}
}

// TestMatcherStoredKeys checks, over biblio and catalog sessions, that a
// matcher indexing the blocking keys a session snapshot carries answers
// byte-identically to one over the decoded snapshot, which derives them.
func TestMatcherStoredKeys(t *testing.T) {
	b, err := biblio.Generate(biblio.Default(1200, 2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := catalog.Generate(catalog.Default(1000, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sch *schema.Schema
		s   publishStream
	}{
		{schema.PIM(), publishStream{name: "biblio", src: b.Store, batch: 128}},
		{schema.Catalog(), publishStream{name: "catalog", src: c.Store, batch: 128}},
	} {
		t.Run(tc.s.name, func(t *testing.T) {
			s := tc.s
			valid := validCuts(s.src)
			for cut := s.batch; cut < s.src.Len(); cut += s.batch {
				if slices.Contains(valid, cut) {
					s.cuts = append(s.cuts, cut)
				}
			}
			s.cuts = append(s.cuts, s.src.Len())
			cfg := DefaultConfig()
			sess := New(tc.sch, cfg).NewSession(reference.NewStore())
			s.replay(t, sess, func(i int) {
				snap, err := sess.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				blob, err := EncodeSnapshot(snap)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeSnapshot(blob)
				if err != nil {
					t.Fatal(err)
				}
				if len(snap.keys) != snap.RefCount() || slices.ContainsFunc(snap.keys, func(k []string) bool { return k == nil }) ||
					slices.ContainsFunc(dec.keys, func(k []string) bool { return k != nil }) {
					t.Fatalf("batch %d: want every stored key list set and every decoded one nil", i)
				}
				stored, derived := NewMatcher(tc.sch, cfg, snap), NewMatcher(tc.sch, cfg, dec)
				if !reflect.DeepEqual(stored.indexes, derived.indexes) {
					t.Fatalf("batch %d: the blocking indexes differ", i)
				}
				for _, sr := range sampleRefs(snap, 11) {
					q := queryFor(sr, false, 5)
					x, xs, errX := stored.Match(q)
					y, ys, errY := derived.Match(q)
					if errX != nil || errY != nil || xs != ys || candidateFingerprint(x) != candidateFingerprint(y) {
						t.Fatalf("batch %d: ref %d answers %s %+v %v, the decoded snapshot %s %+v %v",
							i, sr.ID, candidateFingerprint(x), xs, errX, candidateFingerprint(y), ys, errY)
					}
				}
			})
		})
	}
}
