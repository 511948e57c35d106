// Command loadgen replays a deterministic mixed ingest+query workload
// against a reconciliation service and reports per-mode latency
// histograms, sustained throughput, and error counts as JSON — the
// standing load harness behind every scaling claim in this repo.
//
// Usage:
//
//	loadgen -target http://127.0.0.1:8080 -dataset biblio -refs 5000 \
//	        -queries 2000 -clients 32 [-rate 500] [-o report.json]
//	loadgen -dataset catalog -refs 5000 -queries 2000 -clients 32
//
// Without -target, loadgen starts an in-process serve.Service and drives
// it directly, isolating engine cost from HTTP/JSON stack cost; compare
// the two reports to see what the wire adds. With -target, the server
// must run the workload's schema (reconserve -schema pim for biblio,
// -schema catalog for catalog) and should start empty — the workload
// ingests its own corpus. -rate switches from closed-loop (N clients,
// next query on completion) to open-loop (fixed arrival rate; latency is
// measured from the intended arrival, so queueing delay counts). The
// same -dataset/-refs/-queries/-seed always produce the identical
// request stream.
//
// User errors exit 2 before any load: an unknown -dataset, a negative
// -rate, and -clients with -rate but no -target (nothing to size).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"refrecon/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	target := flag.String("target", "", "base URL of a live reconserve (empty: run in-process)")
	dataset := flag.String("dataset", "biblio", "workload dataset: biblio or catalog")
	refs := flag.Int("refs", 2000, "corpus size in references")
	queries := flag.Int("queries", 500, "number of reconcile queries")
	seed := flag.Int64("seed", 1, "workload seed")
	clients := flag.Int("clients", 8, "concurrent query clients (closed-loop workers)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in queries/sec (0: closed loop)")
	batch := flag.Int("batch", 256, "target ingest batch size")
	collective := flag.Float64("collective", 0.25, "fraction of queries in collective mode")
	out := flag.String("o", "", "report output file (default stdout)")
	flag.Parse()
	if _, err := loadgen.SchemaFor(*dataset); err != nil {
		usageErrorf("unknown -dataset %q (want biblio or catalog)", *dataset)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "clients" && *rate > 0 && *target == "" {
			usageErrorf("-clients sizes the closed loop or -target's connection pool; an in-process -rate run has neither")
		}
	})
	if *rate < 0 {
		usageErrorf("-rate takes queries/sec >= 0 (0: closed loop)")
	}

	cfg := loadgen.Defaults(*dataset, *refs, *queries, *seed)
	cfg.BatchSize = *batch
	cfg.Collective = *collective

	w, err := loadgen.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("workload: %s, %d refs in %d batches, %d queries (seed %d)",
		cfg.Dataset, cfg.Refs, len(w.Batches), len(w.Queries), cfg.Seed)

	var t loadgen.Target
	if *target != "" {
		t = loadgen.NewHTTPTarget(*target, *clients)
	} else {
		inproc, err := loadgen.NewInProcTarget(w)
		if err != nil {
			log.Fatal(err)
		}
		t = inproc
	}

	rep, err := loadgen.Run(w, t, loadgen.Options{Concurrency: *clients, RateQPS: *rate})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s loop, %d clients: %.1f q/s over %.2fs; plain p50/p99 %.2f/%.2f ms (%d), collective p50/p99 %.2f/%.2f ms (%d), %d transport errors, %d query errors",
		rep.Mode, rep.Concurrency, rep.QPS, rep.DurationSec,
		rep.Plain.P50MS, rep.Plain.P99MS, rep.Plain.Count,
		rep.Collective.P50MS, rep.Collective.P99MS, rep.Collective.Count,
		rep.TransportErrors, rep.QueryErrors)

	w2 := os.Stdout
	if *out != "" {
		if w2, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
	}
	enc := json.NewEncoder(w2)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if err := w2.Close(); err != nil { // stdout too: a failed write shows here
		log.Fatal(err)
	}
	if rep.TransportErrors > 0 || rep.QueryErrors > 0 {
		fmt.Fprintln(os.Stderr, "loadgen: errors occurred during replay")
		os.Exit(1)
	}
}

// usageErrorf reports a user error and exits 2, as flag does for a malformed flag.
func usageErrorf(format string, args ...any) { log.Printf(format, args...); os.Exit(2) }
