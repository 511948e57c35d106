// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): dataset statistics (Table 1), per-class quality
// (Table 2), person-subset quality (Table 3), per-dataset person quality
// (Table 4), the evidence-by-mode ablation grid (Table 5 and Figure 6),
// constraint effects (Table 6), and the Cora benchmark (Table 7).
//
// A Suite generates the synthetic datasets once (at a configurable scale)
// and caches reconciliation runs shared between tables.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"refrecon/internal/datagen/cora"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/dataset"
	"refrecon/internal/indepdec"
	"refrecon/internal/metrics"
	"refrecon/internal/recon"
	"refrecon/internal/schema"
)

// Classes evaluated, in the paper's presentation order.
var Classes = []string{schema.ClassPerson, schema.ClassArticle, schema.ClassVenue}

// Suite generates and caches datasets and reconciliation runs.
type Suite struct {
	// Scale multiplies the paper-scale dataset sizes (1.0 reproduces
	// Table 1's reference counts; the test suite uses ~0.1).
	Scale float64

	mu       sync.Mutex
	pimSets  map[string]*dataset.Dataset
	coraSet  *dataset.Dataset
	coraFree *dataset.Dataset
	runs     map[string]map[string]metrics.Report
	stats    map[string]recon.Stats
}

// NewSuite returns a suite at the given scale.
func NewSuite(scale float64) *Suite {
	return &Suite{
		Scale:   scale,
		pimSets: make(map[string]*dataset.Dataset),
		runs:    make(map[string]map[string]metrics.Report),
		stats:   make(map[string]recon.Stats),
	}
}

// PIMNames lists the four personal datasets.
func PIMNames() []string { return []string{"A", "B", "C", "D"} }

// PIM returns (generating on first use) one of the four PIM datasets.
func (s *Suite) PIM(name string) *dataset.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.pimSets[name]; ok {
		return d
	}
	var p pim.Profile
	switch name {
	case "A":
		p = pim.DatasetA(s.Scale)
	case "B":
		p = pim.DatasetB(s.Scale)
	case "C":
		p = pim.DatasetC(s.Scale)
	case "D":
		p = pim.DatasetD(s.Scale)
	default:
		panic(fmt.Sprintf("experiments: unknown PIM dataset %q", name))
	}
	g, err := pim.Generate(p)
	if err != nil {
		panic(fmt.Sprintf("experiments: generate PIM %s: %v", name, err))
	}
	d := &dataset.Dataset{Name: name, Store: g.Store}
	s.pimSets[name] = d
	return d
}

// Cora returns (generating on first use) the Cora-like citation dataset.
func (s *Suite) Cora() *dataset.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coraSet == nil {
		g, err := cora.Generate(cora.Default(s.Scale))
		if err != nil {
			panic(fmt.Sprintf("experiments: generate cora: %v", err))
		}
		s.coraSet = &dataset.Dataset{Name: "Cora", Store: g.Store}
	}
	return s.coraSet
}

// CoraFreeText returns the Cora corpus generated as free-text citation
// strings and extracted with the heuristic citation parser — the form the
// real corpus takes, with extraction noise included.
func (s *Suite) CoraFreeText() *dataset.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coraFree == nil {
		p := cora.Default(s.Scale)
		p.FreeText = true
		g, err := cora.Generate(p)
		if err != nil {
			panic(fmt.Sprintf("experiments: generate cora free-text: %v", err))
		}
		s.coraFree = &dataset.Dataset{Name: "CoraFT", Store: g.Store}
	}
	return s.coraFree
}

// DepGraph returns the full published configuration.
func DepGraph() recon.Config { return recon.DefaultConfig() }

// DepGraphWith customizes the configuration.
func DepGraphWith(f func(*recon.Config)) recon.Config {
	cfg := recon.DefaultConfig()
	f(&cfg)
	return cfg
}

// IndepDec returns the baseline: the engine in Table 5's top-left cell.
func IndepDec() recon.Config { return indepdec.Config() }

// runKey names a cached run: the dataset and the ablation coordinates, the
// only fields the suite's configurations differ in.
func runKey(ds string, cfg recon.Config) string {
	return fmt.Sprintf("%s/m=%s/e=%s/c=%v", ds, cfg.Mode, cfg.Evidence, cfg.Constraints)
}

// Run reconciles a dataset under a configuration and returns per-class
// reports, cached per (dataset, configuration).
func (s *Suite) Run(d *dataset.Dataset, cfg recon.Config) map[string]metrics.Report {
	key := runKey(d.Name, cfg)
	s.mu.Lock()
	if r, ok := s.runs[key]; ok {
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()

	res, err := recon.New(schema.PIM(), cfg).Reconcile(d.Store)
	if err != nil {
		panic(fmt.Sprintf("experiments: reconcile %s: %v", key, err))
	}
	reports := make(map[string]metrics.Report)
	for _, class := range Classes {
		reports[class] = metrics.Evaluate(d.Store, class, res.Partitions[class])
	}

	s.mu.Lock()
	s.runs[key] = reports
	s.stats[key] = res.Stats
	s.mu.Unlock()
	return reports
}

// ClearRuns drops cached reconciliation results (datasets are kept), so
// benchmarks can re-measure the reconciliation work itself.
func (s *Suite) ClearRuns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs = make(map[string]map[string]metrics.Report)
	s.stats = make(map[string]recon.Stats)
}

// RunStats returns the recon.Stats of a run, reconciling on first use.
func (s *Suite) RunStats(d *dataset.Dataset, cfg recon.Config) recon.Stats {
	s.Run(d, cfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats[runKey(d.Name, cfg)]
}

// fprintf writes formatted output, ignoring errors (experiment printing is
// best-effort console output).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
