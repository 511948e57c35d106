package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	// The tail is the highest of p99/p95/p90/p75 with at least ten
	// samples beyond it, else the median.
	for _, tc := range []struct{ n, want int }{
		{3, 50}, {23, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {40000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", tc.n, got, tc.want)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // unsorted on purpose: 1000..1
	}
	d := summarize(samples)
	if d.N != 1000 || d.P50 != 500.5 || d.TailPct != 99 || d.Tail != 990 || d.Max != 1000 {
		t.Errorf("summarize(1..1000) = %+v, want n=1000 p50=500.5 p99=990 max=1000", d)
	}
	if beyond := 1000 - 990; beyond < 10 {
		t.Errorf("only %d samples beyond the tail", beyond)
	}
	if d := summarize([]float64{7, 3, 5}); d.P50 != 5 || d.Tail != 5 || d.TailPct != 50 {
		t.Errorf("summarize of three samples = %+v, want the median for both", d)
	}
	if d := summarize(nil); d.N != 0 || d.P50 != 0 {
		t.Errorf("summarize(nil) = %+v", d)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([2, 4, 4, 5, 7, 9, 10, 12, 15, 20], n=4)
	// gives [4.0, 8.0, 12.75]; the median is 8.
	got := quartileSpread([]float64{20, 2, 4, 15, 4, 5, 12, 7, 9, 10})
	if want := (12.75 - 4.0) / 8.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 3], n=4) gives [1.0, 2.0, 3.0].
	if got := quartileSpread([]float64{1, 2, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1,2,3) = %v, want 1", got)
	}
}

func TestLadderSelfTimes(t *testing.T) {
	l := newLadder("http", "handler", "query", "match")
	msd := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	// Three requests; every rung contains the rung below.
	l.add(msd(10), msd(6), msd(5), msd(4))
	l.add(msd(12), msd(7), msd(5), msd(1))
	l.add(msd(20), msd(15), msd(14), msd(9))
	want := []float64{5, 1, 4, 4} // medians of {4,5,5} {1,2,1} {1,4,5} {4,1,9}
	for i, got := range l.selfTimes() {
		if math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", l.rungs[i], got, want[i])
		}
	}
	if got, want := l.coverage(), 14.0/12.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if got := l.rung("query"); len(got) != 3 || got[2] != 14 {
		t.Errorf("rung(query) = %v", got)
	}

	tr := newTracer()
	d := tr.under("http")("handler", 7, func() { time.Sleep(time.Millisecond) })
	var off *tracer
	off.timed("handler", "http", 7, func() {}) // a nil tracer records nothing
	if len(tr.spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(tr.spans))
	}
	s := tr.spans[0]
	if s.Name != "handler" || s.Parent != "http" || s.Req != 7 || time.Duration(s.EndNS-s.StartNS) != d || d < time.Millisecond {
		t.Errorf("span %+v for a call of %v", s, d)
	}
}

func TestFingerprintStable(t *testing.T) {
	sz := scales["smoke"]
	build := map[string]func(seed int64) (*corpus, error){
		"biblio": func(seed int64) (*corpus, error) {
			return loadgenCorpus("biblio", sz.biblioRefs, 200, sz.readBatch, -1, seed)
		},
		"catalog": func(seed int64) (*corpus, error) {
			return loadgenCorpus("catalog", sz.catalogRefs, 200, sz.readBatch, 0, seed)
		},
		"pim":  func(seed int64) (*corpus, error) { return pimCorpus(sz.pimScale, seed) },
		"cora": func(seed int64) (*corpus, error) { return coraCorpus(sz.coraScale, seed) },
	}
	for name, gen := range build {
		var prints []string
		for _, seed := range []int64{1, 1, 2} {
			c, err := gen(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			prints = append(prints, c.fingerprint())
		}
		if prints[0] != prints[1] {
			t.Errorf("%s: seed 1 hashed %s then %s", name, prints[0], prints[1])
		}
		if prints[0] == prints[2] {
			t.Errorf("%s: seeds 1 and 2 hash the same (%s)", name, prints[0])
		}
	}
	// Derived traffic is part of the inputs, so it is part of the hash.
	c, err := pimCorpus(sz.pimScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare := c.fingerprint()
	c.deriveTraffic(sz.tracedBatch, 50, 1)
	if c.fingerprint() == bare {
		t.Error("the fingerprint ignores the query stream")
	}
	total := 0
	for _, b := range c.batches {
		total += len(b)
	}
	if total != c.store.Len() || len(c.queries) != 50 || len(c.gold) != 50 {
		t.Errorf("derived %d refs in batches of %d, %d queries, %d gold labels", total, c.store.Len(), len(c.queries), len(c.gold))
	}
}

func TestManifestIsWellFormed(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		use(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v is malformed", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup || len(m.EndToEnd) > 16 {
		t.Errorf("end_to_end needs setup_s and at most 16 metrics, has %d", len(m.EndToEnd))
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != 0 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v is malformed", d)
		}
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("per_layer has %d metrics", len(m.PerLayer))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

// TestSmoke runs all five workloads at the smoke scale, untraced and
// traced, against a real reconserve child, and asserts that every metric
// BENCHMARK.json names comes out finite with no failed operation.
func TestSmoke(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(m, t.TempDir(), scales["smoke"])
	if err != nil {
		t.Fatal(err)
	}
	e.detail = io.Discard
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var res *result
			defs := m.EndToEnd
			if traced {
				defs = m.PerLayer
				res, err = runTraced(e, w, 1)
			} else {
				res, err = w.run(e, 1, 1)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.Fingerprint == "" {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (emitted %v)", w.Name, traced, d.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			// The last line is the contract's JSON object, with exactly its keys.
			var detail, last bytes.Buffer
			if err := res.print(&detail, &last); err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(last.Bytes(), &line); err != nil || len(line) != 4 || strings.Count(last.String(), "\n") != 1 {
				t.Errorf("%s: last line %q: %v", w.Name, last.String(), err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := line[k]; !ok {
					t.Errorf("%s: last line lacks %q", w.Name, k)
				}
			}
		}
	}
	// Nothing the runs started may be left behind in the scratch directory
	// except the server binary and the span files.
	entries, err := os.ReadDir(e.scratch)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.Name() != "reconserve" && !strings.HasPrefix(ent.Name(), "trace-") {
			t.Errorf("left behind %s", filepath.Join(e.scratch, ent.Name()))
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	defs := []metricDef{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	}
	top1, print := 90.0, "f00d"
	set := func(degraded bool, lat, rate []float64) string {
		rec := recording{Host: hostInfo{NProc: 2, Degraded: degraded}}
		for i := range lat {
			r := newResult("w", int64(i+1), false)
			r.Fingerprint = print
			r.set("op_p50_ms", lat[i])
			r.set("ops_per_s", rate[i])
			r.exact("top1_hit_pct", top1+float64(i), "%", 100, "higher")
			r.detail("plain_p50_ms", lat[i], "ms", 100, "")
			rec.Runs = append(rec.Runs, r)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102}
	base := set(false, []float64{10, 10.1, 9.9, 10, 10.2}, steady)
	top1 = 89.5 // every seed answers half a point worse: exact outputs regress even on a degraded host
	worseAnswers := set(true, []float64{10, 10.1, 9.9, 10, 10.2}, steady)
	top1 = 90.05 // within the rounding tolerance
	sameAnswers := set(false, []float64{10, 10.1, 9.9, 10, 10.2}, steady)
	top1, print = 90, "beef" // other inputs for the same seeds: no comparison at all
	otherInputs := set(false, []float64{10, 10.1, 9.9, 10, 10.2}, steady)
	if _, err := compareFiles(io.Discard, defs, base, otherInputs); err == nil || !strings.Contains(err.Error(), "different inputs") {
		t.Errorf("comparing sets with different fingerprints: %v", err)
	}
	top1, print = 90, "f00d"
	for _, tc := range []struct {
		name      string
		path      string
		regressed bool
		want      []string
	}{
		{"same", set(false, []float64{10.3, 10.2, 10.4, 10.3, 10.1}, steady), false, []string{"same"}},
		{"slower", set(false, []float64{12, 12.1, 11.9, 12, 12.2}, steady), true, []string{"regressed"}},
		{"faster", set(false, []float64{8, 8.1, 7.9, 8, 8.2}, steady), false, []string{"improved"}},
		{"lower rate", set(false, []float64{10, 10.1, 9.9, 10, 10.2}, []float64{80, 81, 79, 80, 82}), true, []string{"regressed"}},
		{"noisy", set(false, []float64{8, 16, 12, 20, 9}, steady), false, []string{"unresolved"}},
		{"degraded host", set(true, []float64{12, 12.1, 11.9, 12, 12.2}, steady), false, []string{"advisory", "5 compared seed by seed, 0 moved"}},
		{"worse answers", worseAnswers, true, []string{"top1_hit_pct", "5 moved"}},
		{"same answers", sameAnswers, false, []string{"0 moved"}},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, defs, base, tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, regressed, tc.regressed, out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, w, out.String())
			}
		}
	}
}
