// Command reconserve runs the reconciliation service: an HTTP server
// exposing the OpenRefine reconciliation API, ingest, entity/explain
// lookups, and metrics over a snapshot-isolated incremental session.
//
// Usage:
//
//	reconserve [-addr :8080] [-in dataset.json] [-name refrecon]
//	           [-schema pim|catalog]
//	           [-evidence attr|nameemail|article|contact] [-constraints=true]
//	           [-audit] [-data-dir DIR [-checkpoint-every N]]
//	           [-collective-max-nodes N] [-collective-max-hops N]
//	           [-collective-budget-ms MS]
//
// With -in, the dataset (cmd/pimgen JSON format) is reconciled at startup
// as the first batch; without it the service starts empty and is
// populated through POST /ingest. With -data-dir, every acknowledged
// ingest batch is fsynced to a write-ahead log under DIR before it is
// applied, snapshot checkpoints are written every N committed batches,
// and a restart recovers the previous state — after a crash by replaying
// the log, after a clean shutdown from the final checkpoint. The server
// shuts down gracefully on SIGINT/SIGTERM: in-flight ingest drains, a
// final checkpoint is written, and the log is closed before exit.
//
// User errors exit 2 before the service starts: an unknown -schema or
// -evidence, -checkpoint-every without -data-dir, a collective bound < 1,
// an -in file that the schema refuses (the message names the record and
// attribute), -in against a -data-dir that already holds state.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"refrecon/internal/collective"
	"refrecon/internal/obs"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/serve"
)

// Connection limits for the public listener: a client gets this long to
// send its request headers, and an idle keep-alive connection is closed
// after this long. Bodies are bounded by size (serve's 413), not time,
// because a legitimate ingest batch can take a while to upload.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reconserve: ")
	addr := flag.String("addr", ":8080", "listen address")
	in := flag.String("in", "", "dataset JSON to reconcile at startup (optional)")
	name := flag.String("name", "refrecon", "service name advertised in the manifest")
	schemaName := flag.String("schema", "pim", "information-space schema: pim (Person/Article/Venue) or catalog (Product/Manufacturer)")
	evidence := flag.String("evidence", "contact", "evidence level: attr, nameemail, article, contact")
	constraints := flag.Bool("constraints", true, "enforce negative-evidence constraints")
	auditFlag := flag.Bool("audit", false, "verify structural invariants after every batch (slower)")
	dataDir := flag.String("data-dir", "", "durability directory: write-ahead batch log + snapshot checkpoints (empty = in-memory only)")
	ckptEvery := flag.Int("checkpoint-every", 16, "write a checkpoint every N committed batches (requires -data-dir; negative disables periodic checkpoints)")
	collNodes := flag.Int("collective-max-nodes", 512, "collective mode: max reference-pair nodes expanded per query")
	collHops := flag.Int("collective-max-hops", 2, "collective mode: max expansion hops from the query")
	collBudget := flag.Float64("collective-budget-ms", 250, "collective mode: wall-clock budget per query in ms (negative disables)")
	flag.Parse()

	cfg := recon.DefaultConfig()
	cfg.Constraints = *constraints
	cfg.Audit = *auditFlag
	// Engine counters are atomics, cheap enough to leave on in a serving
	// process; /metrics and expvar expose them under "engine".
	cfg.Obs = &obs.Observer{Counters: obs.NewCounters()}
	var err error
	if cfg.Evidence, err = recon.ParseEvidenceLevel(*evidence); err != nil {
		usageErrorf("-evidence: %v", err)
	}
	var sch *schema.Schema
	switch *schemaName {
	case "pim":
		sch = schema.PIM()
	case "catalog":
		sch = schema.Catalog()
	default:
		usageErrorf("unknown -schema %q (want pim or catalog)", *schemaName)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "checkpoint-every" && *dataDir == "" {
			usageErrorf("-checkpoint-every needs -data-dir: an in-memory service writes no checkpoints")
		}
	})
	if *collNodes < 1 || *collHops < 1 || *collBudget == 0 {
		usageErrorf("-collective-max-nodes and -collective-max-hops take a count >= 1, -collective-budget-ms a nonzero time (negative disables the budget)")
	}
	collCfg := collective.Config{
		MaxNodes: *collNodes,
		MaxHops:  *collHops,
		Budget:   time.Duration(*collBudget * float64(time.Millisecond)), // serve maps negative to "no time budget"
	}

	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	// The file is decoded here and admitted once, by the service's first
	// Ingest, the door every batch takes.
	var seed []serve.IngestRef
	if *in != "" {
		data, err := os.ReadFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		b, err := reference.DecodeBatch(data)
		if err != nil {
			usageErrorf("-in %s: %v", *in, err)
		}
		seed = b.References
		log.Printf("loaded %s: %d references", *in, len(seed))
	}

	start := time.Now()
	svc, err := serve.NewFromStore(serve.Config{
		Schema:          sch,
		Recon:           cfg,
		Name:            *name,
		DataDir:         *dataDir,
		CheckpointEvery: *ckptEvery,
		Collective:      collCfg,
	}, seed)
	if errors.Is(err, serve.ErrReseed) {
		usageErrorf("-in %s cannot seed -data-dir %s: %v", *in, *dataDir, err)
	}
	if errors.Is(err, recon.ErrBatchRejected) {
		usageErrorf("-in %s: %v", *in, err)
	}
	if err != nil {
		log.Fatal(err)
	}
	v := svc.View()
	log.Printf("initial snapshot v%d: %d references, %d entities (%.1fms)",
		v.Snapshot.Version, v.Snapshot.RefCount(), len(v.Snapshot.Entities()),
		float64(time.Since(start).Microseconds())/1000)
	if d := svc.Metrics().Durability; d != nil {
		log.Printf("durable session in %s: recovery=%s, %d batches replayed (%.1fms)",
			*dataDir, d.Recovery, d.RecoveryBatches, d.RecoveryMS)
	}

	expvar.Publish("reconserve", expvar.Func(func() any { return svc.Metrics() }))
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case sig := <-sigc:
		log.Printf("received %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
	// Drain any in-flight ingest, write the final checkpoint, and seal the
	// log; the next start takes the fast restore path.
	if err := svc.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	m := svc.Metrics()
	fmt.Fprintf(os.Stderr, "reconserve: served %d queries (%d errors), %d ingest batches\n",
		m.Queries, m.QueryErrors, m.Ingest.Batches)
}

// usageErrorf reports a user error and exits 2, as flag does for a malformed flag.
func usageErrorf(format string, args ...any) { log.Printf(format, args...); os.Exit(2) }
