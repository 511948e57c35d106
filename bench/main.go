// Command bench is the repository's benchmark: five workloads, measured
// end to end through the real cmd/reconserve binary and the public
// refrecon package, and layer by layer by timing calls into each layer's
// exported functions from outside. BENCHMARK.json at the repository root
// names the workloads and metrics; bench/README.md explains them.
//
// Usage (from the repository root):
//
//	go run ./bench                                  every workload once, all metrics
//	go run ./bench -workload read-biblio -seed 2    one workload
//	go run ./bench -trace 1                         the traced run: per-layer metrics
//	go run ./bench -runs 10 -out new.json           a set of runs, recorded
//	go run ./bench -compare old.json new.json       verdict per metric and workload
//
// With -workload the last line of standard output is the one JSON object
// the benchmark contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// buildDir is where the server binary, data directories and span files
// go; .gitignore names it.
const buildDir = ".bench_build"

// recording is the document -out writes and -compare reads: the host
// guard and every run of a set.
type recording struct {
	Host hostInfo  `json:"host"`
	Runs []*result `json:"runs"`
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Int("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file")
	scale := flag.String("scale", "full", "input sizes: full or smoke")
	runs := flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "write every run of the set to this JSON file")
	compare := flag.Bool("compare", false, "compare two recorded sets: -compare old.json new.json")
	flag.Parse()

	m, err := loadManifest()
	if err != nil {
		fatal("%v", err)
	}
	if *seconds == 0 {
		*seconds = m.RunSeconds
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: go run ./bench -compare old.json new.json")
		}
		regressed, err := compareFiles(os.Stdout, m.EndToEnd, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	sz, ok := scales[*scale]
	if !ok {
		fatal("unknown scale %q (want full or smoke)", *scale)
	}
	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		selected = []workloadDef{w}
	}
	if *seconds < 1 || *runs < 1 {
		fatal("-seconds and -runs must be at least 1")
	}

	e, err := newEnv(m, buildDir, sz)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(e.detail, "host nproc %d gomaxprocs %d %s load1 %.2f commit %s degraded %v\n",
		e.host.NProc, e.host.GOMAXPROCS, e.host.GoVersion, e.host.Load1, e.host.Commit, e.host.Degraded)

	rec := recording{Host: e.host}
	allCorrect := true
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			var res *result
			if *trace != 0 {
				res, err = runTraced(e, w, s)
			} else {
				res, err = w.run(e, s, *seconds)
			}
			if err != nil {
				fatal("%s seed %d: %v", w.Name, s, err)
			}
			if err := res.print(e.detail, os.Stdout); err != nil {
				fatal("%v", err)
			}
			allCorrect = allCorrect && res.Correct
			rec.Runs = append(rec.Runs, res)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fatal("write %s: %v", *out, err)
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// newEnv reads the host guard and builds the server binary; neither is
// part of any workload's set-up time.
func newEnv(m *manifest, buildDir string, sz sizes) (*env, error) {
	host := readHost()
	bin, err := buildServer(buildDir)
	if err != nil {
		return nil, err
	}
	scratch, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	return &env{manifest: m, host: host, sz: sz, bin: bin, scratch: scratch, detail: io.Writer(os.Stdout)}, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "bench: "+strings.TrimSpace(fmt.Sprintf(format, args...)))
	os.Exit(2)
}
