// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark measures the reconciliation work behind one table
// (dataset generation is excluded from the timing; datasets are cached in
// a shared suite) and reports the table's headline numbers as custom
// metrics so `go test -bench` output doubles as a compact reproduction of
// the paper's results.
//
// The benchmarks run at a reduced dataset scale (see benchScale) so the
// full suite completes in minutes; use cmd/benchtables -scale 1.0 for
// paper-scale runs.
package refrecon_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"refrecon"
	"refrecon/internal/datagen/catalog"
	"refrecon/internal/experiments"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
)

// benchScale is the dataset scale used by all table benchmarks.
const benchScale = 0.08

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

func suite() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(benchScale)
		// Generate all datasets up front so no benchmark times generation.
		for _, name := range experiments.PIMNames() {
			benchSuite.PIM(name)
		}
		benchSuite.Cora()
	})
	return benchSuite
}

// BenchmarkTable1Datasets measures dataset statistics collection and
// reports the total reference count and reference-to-entity ratio.
func BenchmarkTable1Datasets(b *testing.B) {
	s := suite()
	var rows []experiments.Table1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = s.Table1()
	}
	refs, ents := 0, 0
	for _, r := range rows {
		refs += r.References
		ents += r.Entities
	}
	b.ReportMetric(float64(refs), "refs")
	b.ReportMetric(float64(refs)/float64(ents), "refs/entity")
}

// BenchmarkTable2PerClass reproduces Table 2 and reports the average
// Person F-measures of both algorithms (x1000).
func BenchmarkTable2PerClass(b *testing.B) {
	s := suite()
	var rows []experiments.ClassComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearRuns()
		rows = s.Table2()
	}
	for _, r := range rows {
		if r.Class == schema.ClassPerson {
			b.ReportMetric(1000*r.IndepDec.F1, "indepdec-personF*1e3")
			b.ReportMetric(1000*r.DepGraph.F1, "depgraph-personF*1e3")
		}
		if r.Class == schema.ClassVenue {
			b.ReportMetric(1000*r.IndepDec.Recall, "indepdec-venueR*1e3")
			b.ReportMetric(1000*r.DepGraph.Recall, "depgraph-venueR*1e3")
		}
	}
}

// BenchmarkTable3Subsets reproduces Table 3 and reports the PArticle
// recall gain (x1000), the paper's most dramatic number (30.7%).
func BenchmarkTable3Subsets(b *testing.B) {
	s := suite()
	var rows []experiments.ClassComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearRuns()
		rows = s.Table3()
	}
	for _, r := range rows {
		if r.Class == "PArticle" {
			b.ReportMetric(1000*(r.DepGraph.Recall-r.IndepDec.Recall), "particle-recall-gain*1e3")
		}
	}
}

// BenchmarkTable4PerDataset reproduces Table 4 and reports partition
// counts for dataset A under both algorithms.
func BenchmarkTable4PerDataset(b *testing.B) {
	s := suite()
	var rows []experiments.Table4Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearRuns()
		rows = s.Table4()
	}
	for _, r := range rows {
		if r.Dataset == "A" {
			b.ReportMetric(float64(r.IndepDec.Partitions), "A-indepdec-partitions")
			b.ReportMetric(float64(r.DepGraph.Partitions), "A-depgraph-partitions")
			b.ReportMetric(float64(r.Persons), "A-entities")
		}
	}
}

// BenchmarkTable5Ablation reproduces the 4x4 Table 5 grid on dataset A and
// reports the overall reduction percentage (the paper's 91.3%).
func BenchmarkTable5Ablation(b *testing.B) {
	s := suite()
	var grid experiments.Table5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearRuns()
		grid = s.Table5Ablation("A")
	}
	b.ReportMetric(grid.OverallReduction(), "overall-reduction-pct")
	b.ReportMetric(float64(grid.Partitions[0][0]), "traditional-attrwise-partitions")
	b.ReportMetric(float64(grid.Partitions[3][3]), "full-contact-partitions")
}

// BenchmarkFigure6Ablation renders the Figure 6 series from the Table 5
// grid (same computation, presentation benchmark).
func BenchmarkFigure6Ablation(b *testing.B) {
	s := suite()
	grid := s.Table5Ablation("A")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.FprintFigure6(discard{}, grid)
	}
	b.ReportMetric(float64(grid.Entities), "entities")
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkTable6Constraints reproduces Table 6 on dataset A and reports
// the false-positive entity counts with and without constraints.
func BenchmarkTable6Constraints(b *testing.B) {
	s := suite()
	var rows []experiments.Table6Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearRuns()
		rows = s.Table6Constraints("A")
	}
	b.ReportMetric(float64(rows[0].EntitiesWithFalsePositives), "constrained-fp-entities")
	b.ReportMetric(float64(rows[1].EntitiesWithFalsePositives), "unconstrained-fp-entities")
	b.ReportMetric(float64(rows[0].GraphNodes), "constrained-nodes")
}

// BenchmarkTable7Cora reproduces Table 7 and reports the venue recall of
// both algorithms (x1000).
func BenchmarkTable7Cora(b *testing.B) {
	s := suite()
	var rows []experiments.ClassComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearRuns()
		rows = s.Table7()
	}
	for _, r := range rows {
		if r.Class == schema.ClassVenue {
			b.ReportMetric(1000*r.IndepDec.Recall, "indepdec-venueR*1e3")
			b.ReportMetric(1000*r.DepGraph.Recall, "depgraph-venueR*1e3")
		}
	}
}

// BenchmarkBlockingAblation measures candidate generation across the
// strategies of the blocking ablation and reports canopy coverage (x1000).
func BenchmarkBlockingAblation(b *testing.B) {
	s := suite()
	var rows []experiments.BlockingRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = s.BlockingAblation("A", 8)
	}
	for _, r := range rows {
		if r.Strategy == "canopy" {
			b.ReportMetric(1000*r.Coverage, "canopy-coverage*1e3")
			b.ReportMetric(float64(r.Pairs), "canopy-pairs")
		}
	}
}

// BenchmarkNoiseSweep measures the robustness extension experiment and
// reports the F gap between the algorithms at 40% corruption (x1000).
func BenchmarkNoiseSweep(b *testing.B) {
	s := suite()
	var rows []experiments.NoiseRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = s.NoiseSweep("A", []float64{0, 0.4})
	}
	b.ReportMetric(1000*(rows[1].DepGraphF-rows[1].IndepDecF), "noisy-F-gap*1e3")
	b.ReportMetric(1000*rows[1].DepGraphF, "depgraph-noisyF*1e3")
}

// BenchmarkIncrementalSession measures the marginal cost of reconciling
// one additional batch into an already-reconciled session, versus the
// from-scratch cost reported by BenchmarkReconcileDepGraph.
func BenchmarkIncrementalSession(b *testing.B) {
	s := suite()
	d := s.PIM("B")
	refs := d.Store.All()
	cut := len(refs) * 9 / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Rebuild a store with 90% of the data and reconcile it (untimed).
		store := refrecon.NewStore()
		clones := make([]*refrecon.Reference, len(refs))
		remap := make(map[refrecon.ID]refrecon.ID, len(refs))
		for j, r := range refs {
			c := refrecon.NewReference(r.Class)
			c.Source = r.Source
			c.Entity = r.Entity
			for _, attr := range r.AtomicAttrs() {
				for _, v := range r.Atomic(attr) {
					c.AddAtomic(attr, v)
				}
			}
			clones[j] = c
			if j < cut {
				remap[r.ID] = store.Add(c)
			}
		}
		addAssocs := func(from, to int) {
			for j := from; j < to; j++ {
				r := refs[j]
				for _, attr := range r.AssocAttrs() {
					for _, tgt := range r.Assoc(attr) {
						if nt, ok := remap[tgt]; ok {
							clones[j].AddAssoc(attr, nt)
						}
					}
				}
			}
		}
		addAssocs(0, cut)
		sess := refrecon.New(refrecon.PIMSchema(), refrecon.DefaultConfig()).NewSession(store)
		if _, err := sess.Reconcile(); err != nil {
			b.Fatal(err)
		}
		// The timed part: the last 10% arrives.
		for j := cut; j < len(refs); j++ {
			remap[refs[j].ID] = store.Add(clones[j])
		}
		addAssocs(cut, len(refs))
		b.StartTimer()
		if _, err := sess.Reconcile(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(refs)-cut), "batch-refs")
}

// BenchmarkReconcileDepGraph measures raw DepGraph throughput on dataset A
// (references reconciled per second).
func BenchmarkReconcileDepGraph(b *testing.B) {
	s := suite()
	d := s.PIM("A")
	r := refrecon.New(refrecon.PIMSchema(), refrecon.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Reconcile(d.Store); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Store.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkBuildGraph measures dependency-graph construction (blocking,
// candidate scoring, wiring, association wiring) over the propagation
// datasets at several worker counts. The graphs produced are identical at
// every count; only wall-clock changes.
func BenchmarkBuildGraph(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, d := range benchPropagateDatasets() {
		for _, w := range counts {
			b.Run(fmt.Sprintf("%s/workers=%d", d.name, w), func(b *testing.B) {
				cfg := refrecon.DefaultConfig()
				cfg.Workers = w
				r := refrecon.New(refrecon.PIMSchema(), cfg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.BuildRetained(d.store); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchPropagateDatasets are the stores the propagation-phase benchmarks
// run over: PIM A (person/article association-heavy) and Cora
// (citation-shaped, enrichment-fold-heavy), both at reduced scale.
func benchPropagateDatasets() []struct {
	name  string
	store *reference.Store
} {
	s := suite()
	return []struct {
		name  string
		store *reference.Store
	}{
		{"PIM-A", s.PIM("A").Store},
		{"Cora", s.Cora().Store},
	}
}

// BenchmarkPropagate times the propagation fixed point (Run plus the
// constrained closure) in isolation: graph construction happens outside
// the timer via BuildRetained. Every step gathers its node's evidence from
// the in-edges afresh, so this is the per-step scoring cost.
func BenchmarkPropagate(b *testing.B) {
	for _, d := range benchPropagateDatasets() {
		b.Run(d.name, func(b *testing.B) {
			rc := recon.New(schema.PIM(), recon.DefaultConfig())
			var st recon.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, err := rc.BuildRetained(d.store)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := p.Propagate()
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			b.ReportMetric(float64(st.Engine.Steps), "steps")
			b.ReportMetric(float64(st.PropagateTime.Nanoseconds()), "propagate-ns")
		})
	}
}

// BenchmarkEnrichFold times the reference-enrichment path (§3.3): the
// engine runs in Merge mode — enrichment folds without propagation-driven
// reactivation — so fold bookkeeping (edge moves, node removal) dominates
// the measurement.
func BenchmarkEnrichFold(b *testing.B) {
	for _, d := range benchPropagateDatasets() {
		b.Run(d.name, func(b *testing.B) {
			cfg := recon.DefaultConfig()
			cfg.Mode = recon.ModeMerge
			rc := recon.New(schema.PIM(), cfg)
			var st recon.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, err := rc.BuildRetained(d.store)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := p.Propagate()
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			b.ReportMetric(float64(st.Engine.Folds), "folds")
		})
	}
}

// BenchmarkSimfnCompare measures the cached similarity library on the hot
// evidence kinds. The library is pre-warmed with a small corpus so the
// statistics-dependent comparators (title TF-IDF, venue IDF, name rarity)
// take their real code paths.
func BenchmarkSimfnCompare(b *testing.B) {
	lib := simfn.NewLibrary()
	for _, n := range []string{
		"Alon Halevy", "A. Halevy", "Xin Dong", "Jayant Madhavan",
		"Luna Dong", "X. L. Dong", "J. Madhavan", "Michael Carey",
	} {
		lib.AddPersonName(n)
	}
	for _, t := range []string{
		"reference reconciliation in complex information spaces",
		"data integration the teenage years",
		"learning to match ontologies on the semantic web",
		"similarity search in high dimensions via hashing",
	} {
		lib.Titles.Add(t)
	}
	for _, v := range []string{"sigmod conference", "vldb", "proceedings of the www conference"} {
		lib.Venues.Add(v)
	}
	cases := []struct{ evidence, a, b string }{
		{simfn.EvName, "Alon Y. Halevy", "A. Halevy"},
		{simfn.EvEmail, "halevy@cs.washington.edu", "alon@cs.washington.edu"},
		{simfn.EvNameEmail, "Alon Halevy", "halevy@cs.washington.edu"},
		{simfn.EvTitle, "reference reconciliation in complex spaces", "reference reconciliation in complex information spaces"},
		{simfn.EvVenueName, "sigmod conference", "proc. of sigmod"},
	}
	for _, c := range cases {
		b.Run(c.evidence, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lib.Compare(c.evidence, c.a, c.b)
			}
		})
	}
	// Same comparisons with the pair cache defeated: distinct value per
	// iteration, isolating raw comparator cost from cache-hit cost.
	b.Run("name-uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lib.Compare(simfn.EvName, "Alon Y. Halevy", "A. Halevy "+string(rune('a'+i%26)))
		}
	})
}

// BenchmarkMatchCatalog measures one query-time Matcher.Match on a product
// catalog, the default row's serving path: 200 fixed queries, each the
// atomic values of one stored listing, cycled over a snapshot of
// catalog.Default(2000, 1). Nearly all of a query is Monge-Elkan scoring
// of the candidate entity's values.
func BenchmarkMatchCatalog(b *testing.B) {
	cat, err := catalog.Generate(catalog.Default(2000, 1))
	if err != nil {
		b.Fatal(err)
	}
	sch, cfg := schema.Catalog(), recon.DefaultConfig()
	sess := recon.New(sch, cfg).NewSession(cat.Store)
	if _, err := sess.Reconcile(); err != nil {
		b.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	m := recon.NewMatcher(sch, cfg, snap)
	refs := cat.Store.All()
	queries := make([]recon.Query, 200)
	for i := range queries {
		r := refs[i*len(refs)/len(queries)]
		q := recon.Query{Class: r.Class, Atomic: map[string][]string{}}
		for _, a := range r.AtomicAttrs() {
			q.Atomic[a] = r.Atomic(a)
		}
		queries[i] = q
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Match(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconcileIndepDec measures the baseline cell's throughput on
// dataset A.
func BenchmarkReconcileIndepDec(b *testing.B) {
	s := suite()
	d := s.PIM("A")
	r := refrecon.New(refrecon.PIMSchema(), refrecon.IndepDecConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Reconcile(d.Store); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Store.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}
