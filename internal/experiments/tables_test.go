package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"refrecon/internal/schema"
)

// The suite is shared across tests: dataset generation and reconciliation
// runs are cached inside it.
var (
	suiteOnce sync.Once
	suite     *Suite
)

func testSuite() *Suite {
	suiteOnce.Do(func() { suite = NewSuite(0.08) })
	return suite
}

func TestTable1Shape(t *testing.T) {
	rows := testSuite().Table1()
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (A-D + Cora)", len(rows))
	}
	for _, r := range rows {
		if r.References == 0 || r.Entities == 0 {
			t.Errorf("%s: empty dataset", r.Dataset)
		}
		if r.Ratio < 1.5 {
			t.Errorf("%s: ref/entity ratio %.1f too low — reconciliation would be trivial", r.Dataset, r.Ratio)
		}
	}
	var buf bytes.Buffer
	FprintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Cora") {
		t.Error("rendered table missing Cora row")
	}
}

// TestTable2Shape checks the paper's headline claim: DepGraph equals or
// outperforms IndepDec in every class, with the venue and person recall
// gains the largest.
func TestTable2Shape(t *testing.T) {
	rows := testSuite().Table2()
	byClass := make(map[string]ClassComparison)
	for _, r := range rows {
		byClass[r.Class] = r
	}
	person := byClass[schema.ClassPerson]
	if person.DepGraph.F1+0.02 < person.IndepDec.F1 {
		t.Errorf("person: DepGraph F %.3f below IndepDec %.3f", person.DepGraph.F1, person.IndepDec.F1)
	}
	if person.DepGraph.Recall <= person.IndepDec.Recall {
		t.Errorf("person: DepGraph recall %.3f should beat IndepDec %.3f", person.DepGraph.Recall, person.IndepDec.Recall)
	}
	venue := byClass[schema.ClassVenue]
	if venue.DepGraph.Recall <= venue.IndepDec.Recall {
		t.Errorf("venue: DepGraph recall %.3f should beat IndepDec %.3f", venue.DepGraph.Recall, venue.IndepDec.Recall)
	}
	if venue.DepGraph.F1 <= venue.IndepDec.F1 {
		t.Errorf("venue: DepGraph F %.3f should beat IndepDec %.3f", venue.DepGraph.F1, venue.IndepDec.F1)
	}
	article := byClass[schema.ClassArticle]
	if diff := article.DepGraph.F1 - article.IndepDec.F1; diff < -0.03 {
		t.Errorf("article: DepGraph F dropped by %.3f (bibtex is curated; should be a tie)", -diff)
	}
}

// TestTable3Shape checks that the recall improvement is most pronounced on
// the PArticle subset (name-only references need association evidence) and
// present on the full datasets.
func TestTable3Shape(t *testing.T) {
	rows := testSuite().Table3()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	gains := make(map[string]float64)
	for _, r := range rows {
		gains[r.Class] = r.DepGraph.Recall - r.IndepDec.Recall
	}
	if gains["PArticle"] <= 0 {
		t.Errorf("PArticle recall gain %.3f should be positive", gains["PArticle"])
	}
	if gains["Full"] <= 0 {
		t.Errorf("Full recall gain %.3f should be positive", gains["Full"])
	}
	if gains["PArticle"] < gains["PEmail"] {
		t.Errorf("PArticle gain %.3f should exceed PEmail gain %.3f (the paper's 30.7%% vs 7.6%%)",
			gains["PArticle"], gains["PEmail"])
	}
}

// TestTable4Shape checks per-dataset behaviour: DepGraph produces no more
// partitions than IndepDec everywhere, dataset A improves most, and the
// dataset-D owner split keeps DepGraph's recall there below its own recall
// on A (the §5.3 name-change discussion).
func TestTable4Shape(t *testing.T) {
	rows := testSuite().Table4()
	var recallByDS = map[string][2]float64{}
	for _, r := range rows {
		if r.DepGraph.Partitions > r.IndepDec.Partitions {
			t.Errorf("dataset %s: DepGraph %d partitions > IndepDec %d",
				r.Dataset, r.DepGraph.Partitions, r.IndepDec.Partitions)
		}
		recallByDS[r.Dataset] = [2]float64{r.IndepDec.Recall, r.DepGraph.Recall}
	}
	if recallByDS["D"][1] >= recallByDS["A"][1] {
		t.Errorf("dataset D recall %.3f should lag dataset A %.3f (owner split)",
			recallByDS["D"][1], recallByDS["A"][1])
	}
	var buf bytes.Buffer
	FprintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "IndepDec") {
		t.Error("rendered table malformed")
	}
}

// TestTable5Shape checks the ablation grid: partition counts decrease along
// both axes, FULL/Contact is the global best, and the overall reduction is
// substantial (the paper reports 91.3% on dataset A).
func TestTable5Shape(t *testing.T) {
	grid := testSuite().Table5Ablation("A")
	trad, full := 0, 3
	attr, contact := 0, 3
	if got := grid.Partitions[full][contact]; got > grid.Partitions[trad][attr] {
		t.Errorf("full/contact %d should be <= traditional/attr-wise %d", got, grid.Partitions[trad][attr])
	}
	// Evidence accumulation must not increase partition counts (within a
	// small tolerance for propagation ordering noise).
	for i := range AblationModes {
		for j := 1; j < len(AblationEvidence); j++ {
			if grid.Partitions[i][j] > grid.Partitions[i][j-1]+2 {
				t.Errorf("mode %s: evidence %s increased partitions %d -> %d",
					AblationModes[i], AblationEvidence[j], grid.Partitions[i][j-1], grid.Partitions[i][j])
			}
		}
	}
	// Full mode must beat Traditional at the Contact column.
	if grid.Partitions[full][contact] > grid.Partitions[trad][contact] {
		t.Errorf("full/contact %d should be <= traditional/contact %d",
			grid.Partitions[full][contact], grid.Partitions[trad][contact])
	}
	if red := grid.OverallReduction(); red < 30 {
		t.Errorf("overall reduction %.1f%% too small", red)
	}
	// The corners are Table 4's two algorithms on the same dataset, as in
	// the paper (3159 and 1873 on its A in both tables).
	for _, r := range testSuite().Table4() {
		if r.Dataset == "A" && (grid.Partitions[trad][attr] != r.IndepDec.Partitions || grid.Partitions[full][contact] != r.DepGraph.Partitions) {
			t.Errorf("grid corners %d/%d, Table 4 IndepDec/DepGraph %d/%d",
				grid.Partitions[trad][attr], grid.Partitions[full][contact], r.IndepDec.Partitions, r.DepGraph.Partitions)
		}
	}
	var buf bytes.Buffer
	FprintTable5(&buf, grid)
	FprintFigure6(&buf, grid)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("figure rendering malformed")
	}
}

// TestTable6Shape checks the constraint effect: enforcing constraints
// raises precision (fewer entities involved in false positives) without a
// large recall cost, while adding nodes to the graph.
func TestTable6Shape(t *testing.T) {
	rows := testSuite().Table6Constraints("A")
	if len(rows) != 2 {
		t.Fatal("want 2 rows")
	}
	withC, withoutC := rows[0], rows[1]
	if withC.Precision < withoutC.Precision {
		t.Errorf("constraints should not lower precision: %.3f vs %.3f", withC.Precision, withoutC.Precision)
	}
	if withC.EntitiesWithFalsePositives > withoutC.EntitiesWithFalsePositives {
		t.Errorf("constraints should not increase false-positive entities: %d vs %d",
			withC.EntitiesWithFalsePositives, withoutC.EntitiesWithFalsePositives)
	}
	if withC.GraphNodes < withoutC.GraphNodes {
		t.Errorf("constraints add nodes: %d vs %d", withC.GraphNodes, withoutC.GraphNodes)
	}
	if withC.Recall < withoutC.Recall-0.15 {
		t.Errorf("constraints cost too much recall: %.3f vs %.3f", withC.Recall, withoutC.Recall)
	}
	var buf bytes.Buffer
	FprintTable6(&buf, rows)
	if !strings.Contains(buf.String(), "Non-Constraint") {
		t.Error("rendered table malformed")
	}
}

// TestTable7Shape checks the Cora results: a large venue F improvement
// (with a precision cost), and article/person at least comparable.
func TestTable7Shape(t *testing.T) {
	rows := testSuite().Table7()
	byClass := make(map[string]ClassComparison)
	for _, r := range rows {
		byClass[r.Class] = r
	}
	venue := byClass[schema.ClassVenue]
	if venue.DepGraph.F1 <= venue.IndepDec.F1 {
		t.Errorf("Cora venue: DepGraph F %.3f should beat IndepDec %.3f", venue.DepGraph.F1, venue.IndepDec.F1)
	}
	if venue.DepGraph.Recall <= venue.IndepDec.Recall {
		t.Errorf("Cora venue: DepGraph recall %.3f should beat IndepDec %.3f", venue.DepGraph.Recall, venue.IndepDec.Recall)
	}
	article := byClass[schema.ClassArticle]
	if article.DepGraph.F1+0.03 < article.IndepDec.F1 {
		t.Errorf("Cora article: DepGraph F %.3f well below IndepDec %.3f", article.DepGraph.F1, article.IndepDec.F1)
	}
	person := byClass[schema.ClassPerson]
	if person.DepGraph.F1+0.03 < person.IndepDec.F1 {
		t.Errorf("Cora person: DepGraph F %.3f well below IndepDec %.3f", person.DepGraph.F1, person.IndepDec.F1)
	}
}

// TestBlockingAblationShape checks the candidate-generation ablation: the
// multi-key canopy must cover more true pairs than single-key sorted
// neighborhood or exact-name blocking — the justification for the
// reconciler's blocking design.
func TestBlockingAblationShape(t *testing.T) {
	rows := testSuite().BlockingAblation("A", 8)
	byName := make(map[string]BlockingRow)
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	canopy := byName["canopy"]
	if canopy.Coverage < 0.8 {
		t.Errorf("canopy coverage %.2f too low — recall is bounded by it", canopy.Coverage)
	}
	if canopy.Coverage < byName["sn-name"].Coverage {
		t.Errorf("canopy %.2f should cover at least as much as single-key SN %.2f",
			canopy.Coverage, byName["sn-name"].Coverage)
	}
	if canopy.Coverage < byName["exact-name"].Coverage {
		t.Errorf("canopy %.2f should cover at least exact-name %.2f",
			canopy.Coverage, byName["exact-name"].Coverage)
	}
	if byName["sn-multi"].Coverage < byName["sn-name"].Coverage {
		t.Errorf("multi-pass SN %.2f should cover at least single-pass %.2f",
			byName["sn-multi"].Coverage, byName["sn-name"].Coverage)
	}
	var buf bytes.Buffer
	FprintBlockingAblation(&buf, "A", rows)
	if !strings.Contains(buf.String(), "canopy") {
		t.Error("rendered ablation malformed")
	}
}

// TestNoiseSweepShape checks the robustness extension: quality decreases
// with noise for both algorithms, and DepGraph stays ahead at every rate.
func TestNoiseSweepShape(t *testing.T) {
	rows := testSuite().NoiseSweep("A", []float64{0, 0.2, 0.4})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.DepGraphF+0.02 < r.IndepDecF {
			t.Errorf("rate %.1f: DepGraph %.3f fell below IndepDec %.3f", r.Rate, r.DepGraphF, r.IndepDecF)
		}
		if i > 0 && r.DepGraphF > rows[0].DepGraphF+0.02 {
			t.Errorf("noise should not improve quality: %.3f at rate %.1f vs %.3f clean",
				r.DepGraphF, r.Rate, rows[0].DepGraphF)
		}
	}
	if rows[2].DepGraphF >= rows[0].DepGraphF {
		t.Errorf("40%% corruption should cost something: %.3f vs %.3f", rows[2].DepGraphF, rows[0].DepGraphF)
	}
	var buf bytes.Buffer
	FprintNoiseSweep(&buf, "A", rows)
	if !strings.Contains(buf.String(), "Noise robustness") {
		t.Error("rendered sweep malformed")
	}
}

// TestTable7FreeTextShape checks the free-text extraction variant: the
// collective-vs-baseline story must survive the extra extraction noise.
func TestTable7FreeTextShape(t *testing.T) {
	rows := testSuite().Table7FreeText()
	byClass := make(map[string]ClassComparison)
	for _, r := range rows {
		byClass[r.Class] = r
	}
	person := byClass[schema.ClassPerson]
	if person.DepGraph.Recall <= person.IndepDec.Recall {
		t.Errorf("free-text person recall: DepGraph %.3f should beat IndepDec %.3f",
			person.DepGraph.Recall, person.IndepDec.Recall)
	}
	venue := byClass[schema.ClassVenue]
	if venue.DepGraph.Recall <= venue.IndepDec.Recall {
		t.Errorf("free-text venue recall: DepGraph %.3f should beat IndepDec %.3f",
			venue.DepGraph.Recall, venue.IndepDec.Recall)
	}
	article := byClass[schema.ClassArticle]
	if article.DepGraph.F1 < 0.8 {
		t.Errorf("free-text article F collapsed: %.3f", article.DepGraph.F1)
	}
}

func TestRunCaching(t *testing.T) {
	s := testSuite()
	d := s.PIM("A")
	r1 := s.Run(d, DepGraph())
	r2 := s.Run(d, DepGraph())
	if &r1 == &r2 {
		t.Skip("maps compared by pointer identity are not meaningful")
	}
	// Cached: the exact same map instance should be returned.
	if r1[schema.ClassPerson] != r2[schema.ClassPerson] {
		t.Error("cache returned different results")
	}
}
