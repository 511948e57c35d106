package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// manifest is BENCHMARK.json, the one place that names the workloads and
// the metrics: the program reads it rather than repeating it, and checks
// every run against it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef names one metric. Bound is the share of the parent's median
// an end-to-end metric may worsen by; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest finds BENCHMARK.json in the working directory or the
// nearest directory above it (go test runs in bench/).
func loadManifest() (*manifest, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var m manifest
			if err := json.Unmarshal(data, &m); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %v", err)
			}
			return &m, nil
		}
		if parent := filepath.Dir(dir); parent != dir {
			dir = parent
			continue
		}
		return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
	}
}

// workloadDef is one workload of BENCHMARK.json: a serving workload
// (drives a reconserve child) or a batch workload (times Reconcile in
// process). What each one's end-to-end operation is, and why it exists,
// is in bench/README.md.
type workloadDef struct {
	Name     string
	serving  func(sizes) servingSpec             // serving workloads
	generate func(sizes, int64) (*corpus, error) // batch workloads
}

var workloads = []workloadDef{
	{Name: "read-biblio", serving: sizes.readBiblio},
	{Name: "read-catalog", serving: sizes.readCatalog},
	{Name: "mixed-biblio", serving: sizes.mixedBiblio},
	{Name: "batch-pim", generate: func(s sizes, seed int64) (*corpus, error) { return pimCorpus(s.pimScale, seed) }},
	{Name: "batch-cora", generate: func(s sizes, seed int64) (*corpus, error) { return coraCorpus(s.coraScale, seed) }},
}

// run is the untraced run: end-to-end metrics only.
func (w workloadDef) run(e *env, seed int64, seconds int) (*result, error) {
	if w.serving != nil {
		return runServing(e, w.serving(e.sz), seed, seconds)
	}
	return runBatch(e, w, seed, seconds)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizes are the input sizes of one scale. "full" is what BENCHMARK.json
// is measured at; "smoke" keeps `go test ./bench` under twenty seconds.
type sizes struct {
	biblioRefs, catalogRefs          int
	biblioQPS, catalogQPS, mixedQPS  int // stream length per second of -seconds
	pimScale, coraScale              float64
	tracedQueries, tracedSlowQueries int // ladder length; slow = catalog-priced queries
	readBatch, mixedBatch            int // ingest batch sizes of the serving workloads
	tracedBatch                      int // batch size for corpora that come without batches
	valuePairs, lookups              int
	probeQueries                     int // mixed-biblio before/after-recovery probe
}

var scales = map[string]sizes{
	"full": {
		biblioRefs: 3000, catalogRefs: 2000,
		biblioQPS: 2700, catalogQPS: 100, mixedQPS: 1400,
		pimScale: 0.5, coraScale: 0.5,
		readBatch: 256, mixedBatch: 128,
		tracedQueries: 2000, tracedSlowQueries: 300, tracedBatch: 512,
		valuePairs: 50000, lookups: 1000, probeQueries: 100,
	},
	"smoke": {
		biblioRefs: 300, catalogRefs: 200,
		biblioQPS: 300, catalogQPS: 100, mixedQPS: 300,
		pimScale: 0.04, coraScale: 0.05,
		readBatch: 64, mixedBatch: 32,
		tracedQueries: 120, tracedSlowQueries: 60, tracedBatch: 64,
		valuePairs: 2000, lookups: 100, probeQueries: 20,
	},
}

// env is what every run shares.
type env struct {
	manifest *manifest
	host     hostInfo
	sz       sizes
	bin      string    // the built cmd/reconserve
	scratch  string    // directory for data dirs and trace files
	detail   io.Writer // human-readable metric lines
}

// metric is one reported value. N is the sample count behind it and Note
// the percentile or definition, both for the human-readable lines only.
// Exact ("higher" or "lower", the better direction) marks an output that
// does not depend on timing: for one seed it repeats from run to run, so
// compare checks it for any change instead of against a bound.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
	Exact string  `json:"exact,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Traced      bool              `json:"traced"`
	Fingerprint string            `json:"fingerprint"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Correct     bool              `json:"correct"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`          // the metrics BENCHMARK.json names
	Detail      map[string]metric `json:"detail,omitempty"` // the workload's own request types
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced, Correct: true,
		Metrics: map[string]metric{}, Detail: map[string]metric{}}
}

// fail counts n failed operations and keeps the first few reasons.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Correct = false
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check records a failed output check that is not one failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// set records a metric BENCHMARK.json names; finish fills in its unit.
func (r *result) set(name string, value float64) {
	r.Metrics[name] = metric{Value: value}
}

// setDist records a distribution's median, or its tail.
func (r *result) setDist(name string, d dist, tail bool) {
	m := metric{Value: d.P50, N: d.N, Note: "p50"}
	if tail {
		m.Value, m.Note = d.Tail, fmt.Sprintf("p%d", d.TailPct)
	}
	r.Metrics[name] = m
}

func (r *result) detail(name string, value float64, unit string, n int, note string) {
	r.Detail[name] = metric{Value: value, Unit: unit, N: n, Note: note}
}

// exact records a detail metric that repeats exactly for one seed; better
// is its better direction, or "" when on this workload it does not.
func (r *result) exact(name string, value float64, unit string, n int, better string) {
	r.Detail[name] = metric{Value: value, Unit: unit, N: n, Exact: better}
}

// finish verifies the run emitted exactly the metrics BENCHMARK.json
// names for its mode, each a finite number, and fills in their units.
func (r *result) finish(defs []metricDef) {
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		r.check(ok, "metric %s not emitted", d.Name)
		r.check(!math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s is not finite", d.Name)
		m.Unit = d.Unit
		if ok {
			r.Metrics[d.Name] = m
		}
	}
	r.check(len(r.Metrics) == len(defs), "emitted %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(defs))
	r.check(r.Attempted >= 1, "no operation attempted")
}

// print writes the human-readable lines, then the one JSON line of the
// contract as the last line of standard output.
func (r *result) print(detail, last io.Writer) error {
	fmt.Fprintf(detail, "workload %s seed %d traced %v fingerprint %s\n", r.Workload, r.Seed, r.Traced, r.Fingerprint)
	for _, group := range []map[string]metric{r.Detail, r.Metrics} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			line := fmt.Sprintf("  %-36s %14.6g %-6s", n, m.Value, m.Unit)
			if m.N > 0 {
				line += fmt.Sprintf(" n=%d", m.N)
			}
			if m.Note != "" {
				line += " " + m.Note
			}
			if m.Exact != "" {
				line += " exact"
			}
			fmt.Fprintln(detail, line)
		}
	}
	fmt.Fprintf(detail, "operations attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintln(detail, "  FAILED:", f)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]wire{}}
	for n, m := range r.Metrics {
		out.Metrics[n] = wire{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(last, string(line))
	return err
}

// fingerprint is the SHA-256 of a workload's materialised corpus and
// request stream. encoding/json writes map keys sorted, so the same
// inputs always hash the same.
func (c *corpus) fingerprint() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range c.store.All() {
		enc.Encode(toIngestRef(r)) // a hash.Hash never fails a write
	}
	for _, b := range c.batches {
		enc.Encode(len(b))
	}
	enc.Encode(c.ingestAt)
	enc.Encode(c.queries)
	enc.Encode(c.gold)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
