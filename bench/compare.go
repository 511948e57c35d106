package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func loadRecording(path string) (*recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec recording
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rec, nil
}

// valuesOf collects a metric's values per workload over the untraced runs
// of a set.
func valuesOf(rec *recording) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rec.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// exactTolerance is how far an exact output may move before it counts as
// changed: a tenth of a point for a percentage, a thousandth for a ratio.
var exactTolerance = map[string]float64{"%": 0.1, "ratio": 0.001}

// compareFiles prints, for every end-to-end metric on every workload both
// sets ran, the two medians, the change, the bound and a verdict:
//
//	regressed   the new median is worse than the old by more than the bound
//	improved    it is better by more than the bound
//	unresolved  it moved by more than the bound one way or the other, but the
//	            run-to-run spread of either set is wider than the bound
//	same        anything else
//
// then, for every exact output (see metric.Exact) of every workload and
// seed both sets ran, any value that moved. It reports whether anything
// regressed; two sets whose fingerprints differ for one workload and seed
// ran different inputs and are not compared at all. On a degraded host (see hostInfo) timings are advisory: they
// are printed but never count as a regression; exact outputs still do.
func compareFiles(w io.Writer, defs []metricDef, oldPath, newPath string) (regressed bool, err error) {
	oldRec, err := loadRecording(oldPath)
	if err != nil {
		return false, err
	}
	newRec, err := loadRecording(newPath)
	if err != nil {
		return false, err
	}
	advisory := oldRec.Host.Degraded || newRec.Host.Degraded
	fmt.Fprintf(w, "old: commit %s nproc %d load1 %.2f degraded %v\n", oldRec.Host.Commit, oldRec.Host.NProc, oldRec.Host.Load1, oldRec.Host.Degraded)
	fmt.Fprintf(w, "new: commit %s nproc %d load1 %.2f degraded %v\n", newRec.Host.Commit, newRec.Host.NProc, newRec.Host.Load1, newRec.Host.Degraded)
	if advisory {
		fmt.Fprintln(w, "a host was degraded: timings are advisory and cannot regress")
	}
	oldVals, newVals := valuesOf(oldRec), valuesOf(newRec)
	names := make([]string, 0, len(oldVals))
	for wl := range oldVals {
		if newVals[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "spread", "verdict")
	for _, wl := range names {
		for _, def := range defs {
			o, n := oldVals[wl][def.Name], newVals[wl][def.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := medianOf(o), medianOf(n)
			// worse > 0 means the new side is worse, as a share of the old median.
			worse := (nm - om) / math.Abs(om)
			if def.Better == "higher" {
				worse = -worse
			}
			spread := math.Max(quartileSpread(o), quartileSpread(n))
			verdict := "same"
			switch {
			case math.Abs(worse) > def.Bound && spread > def.Bound:
				verdict = "unresolved (spread > bound)"
			case worse > def.Bound && advisory:
				verdict = "regressed (advisory)"
			case worse > def.Bound:
				verdict, regressed = "regressed", true
			case worse < -def.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-14s %-12s %12.6g %12.6g %+7.1f%% %6.2f %6.1f%%  %s\n",
				wl, def.Name, om, nm, 100*(nm-om)/math.Abs(om), def.Bound, 100*spread, verdict)
		}
	}

	// Exact outputs, seed by seed.
	type key struct {
		workload string
		seed     int64
	}
	before := map[key]*result{}
	for _, r := range oldRec.Runs {
		if !r.Traced {
			before[key{r.Workload, r.Seed}] = r
		}
	}
	compared, moved := 0, 0
	for _, r := range newRec.Runs {
		prev, ok := before[key{r.Workload, r.Seed}]
		if r.Traced || !ok {
			continue
		}
		if prev.Fingerprint != r.Fingerprint {
			return regressed, fmt.Errorf("%s seed %d: the two sets ran different inputs (fingerprints %s and %s)", r.Workload, r.Seed, prev.Fingerprint, r.Fingerprint)
		}
		old := prev.Detail
		names := make([]string, 0, len(r.Detail))
		for name := range r.Detail {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m, o := r.Detail[name], old[name]
			if _, ok := old[name]; m.Exact == "" || !ok {
				continue
			}
			compared++
			delta := m.Value - o.Value
			if math.Abs(delta) <= exactTolerance[m.Unit] {
				continue
			}
			moved++
			verdict := "improved"
			if (delta < 0) == (m.Exact == "higher") {
				verdict, regressed = "regressed", true
			}
			fmt.Fprintf(w, "%-14s seed %-3d %-24s %10.6g -> %-10.6g %s  %s\n", r.Workload, r.Seed, name, o.Value, m.Value, m.Unit, verdict)
		}
	}
	fmt.Fprintf(w, "exact outputs: %d compared seed by seed, %d moved\n", compared, moved)
	return regressed, nil
}
