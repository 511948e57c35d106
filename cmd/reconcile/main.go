// Command reconcile runs reference reconciliation over a dataset and
// reports the resulting partitions and (when gold labels are present)
// quality metrics.
//
// Usage:
//
//	reconcile -in dataset.json [-mode full|traditional|propagation|merge]
//	          [-evidence attr|nameemail|article|contact] [-constraints=true]
//	          [-workers N] [-shards N] [-bucketcap N] [-audit]
//	          [-dump partitions.json] [-explain id,id] [-dot graph.dot]
//	          [-trace trace.json] [-progress]
//
// The input is the JSON format written by cmd/pimgen (or dataset.WriteJSON).
// The INDEPDEC baseline of §5.2 is -mode traditional -evidence attr
// -constraints=false.
// With -trace, the run records phase/round/enrichment spans and writes
// them as Chrome trace-event JSON (load the file in chrome://tracing or
// Perfetto); -progress renders round-by-round progress to stderr.
//
// User errors exit 2 before any work: an unknown -mode or -evidence, a
// negative count, a malformed -explain, -explain or -dot with -shards ≠ 1,
// an -in dataset that is not PIM-schema (a catalog file, say).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"refrecon/internal/dataset"
	"refrecon/internal/metrics"
	"refrecon/internal/obs"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reconcile: ")
	in := flag.String("in", "", "input dataset JSON (required)")
	mode := flag.String("mode", "full", "mode: full, traditional, propagation, merge")
	evidence := flag.String("evidence", "contact", "evidence level: attr, nameemail, article, contact")
	constraints := flag.Bool("constraints", true, "enforce negative-evidence constraints")
	workers := flag.Int("workers", 0, "goroutines scoring candidate pairs (0 = NumCPU, 1 = serial; results are identical at any setting)")
	shards := flag.Int("shards", 1, "reconcile closed components in N concurrent shards, with the monolithic answer (0 = one per CPU, 1 = single monolithic run)")
	bucketCap := flag.Int("bucketcap", 0, "override the blocking bucket cap (0 = keep the default; lower caps tame saturated buckets on large scaled corpora)")
	auditFlag := flag.Bool("audit", false, "verify structural invariants at every phase boundary (slower, aborts on the first violation)")
	dump := flag.String("dump", "", "write partitions as JSON to this file")
	explain := flag.String("explain", "", "explain a pair decision, e.g. -explain 12,45")
	dot := flag.String("dot", "", "write the dependency graph in Graphviz DOT format to this file")
	tracePath := flag.String("trace", "", "write phase/round spans as Chrome trace-event JSON to this file")
	progress := flag.Bool("progress", false, "render round-by-round progress to stderr")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := recon.DefaultConfig()
	cfg.Constraints = *constraints
	cfg.Workers = *workers
	cfg.Audit = *auditFlag
	cfg.Shards = *shards
	modes := map[string]recon.Mode{"full": recon.ModeFull, "traditional": recon.ModeTraditional,
		"propagation": recon.ModePropagation, "merge": recon.ModeMerge}
	var ok bool
	if cfg.Mode, ok = modes[strings.ToLower(*mode)]; !ok {
		usageErrorf("unknown -mode %q (want full, traditional, propagation or merge)", *mode)
	}
	var err error
	if cfg.Evidence, err = recon.ParseEvidenceLevel(*evidence); err != nil {
		usageErrorf("-evidence: %v", err)
	}
	if *workers < 0 || *shards < 0 || *bucketCap < 0 {
		usageErrorf("-workers, -shards and -bucketcap take a count >= 0")
	}
	if *bucketCap > 0 {
		cfg.BucketCap = *bucketCap
	}
	var explainA, explainB int
	if _, err := fmt.Sscanf(*explain, "%d,%d", &explainA, &explainB); *explain != "" && err != nil {
		usageErrorf("bad -explain %q (want \"id,id\"): %v", *explain, err)
	}
	// -explain and -dot read the propagated graph, which only a session
	// retains; sessions propagate monolithically.
	if (*explain != "" || *dot != "") && *shards != 1 {
		usageErrorf("-explain and -dot need the session graph; use them with -shards 1")
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := dataset.ReadJSON(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Store.Validate(schema.PIM()); err != nil {
		usageErrorf("-in %s is not a PIM-schema dataset (Person/Article/Venue): %v", *in, err)
	}
	fmt.Printf("dataset %s: %d references\n", ds.Name, ds.Store.Len())

	start := time.Now()
	var observer *obs.Observer
	if *tracePath != "" || *progress {
		observer = &obs.Observer{Counters: obs.NewCounters()}
		if *tracePath != "" {
			observer.Trace = obs.NewTracer()
			observer.Profile = true
		}
		if *progress {
			observer.Progress = obs.NewProgress(os.Stderr, 250*time.Millisecond)
		}
		cfg.Obs = observer
	}
	rc := recon.New(schema.PIM(), cfg)
	var res *recon.Result
	var sess *recon.Session
	if *explain != "" || *dot != "" {
		sess = rc.NewSession(ds.Store)
		res, err = sess.Reconcile()
	} else {
		res, err = rc.Reconcile(ds.Store)
	}
	if err != nil {
		log.Fatal(err)
	}
	if observer != nil {
		c := observer.Counters.Snapshot()
		fmt.Printf("obs: %d rounds, queue high-water %d, requeues %d real / %d strong / %d weak, simfn cache %d hits / %d misses\n",
			c.Rounds, c.QueueHighWater, c.RequeueReal, c.RequeueStrong, c.RequeueWeak,
			c.SimfnCacheHits, c.SimfnCacheMisses)
	}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := observer.Trace.WriteJSON(tf); err != nil {
			log.Fatal(err)
		}
		if err := tf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%d events)\n", *tracePath, len(observer.Trace.Events()))
	}
	st := res.Stats
	fmt.Printf("graph: %d nodes, %d edges from %d candidate pairs (built in %s)\n",
		st.GraphNodes, st.GraphEdges, st.CandidatePairs, st.BuildTime.Round(time.Millisecond))
	fmt.Printf("build: enumerate %s, score %s, wire %s, associations %s\n",
		st.EnumerateTime.Round(time.Millisecond), st.ScoreTime.Round(time.Millisecond),
		st.WireTime.Round(time.Millisecond), st.AssociationsTime.Round(time.Millisecond))
	truncated := ""
	if st.Engine.Truncated {
		truncated = ", TRUNCATED at step cap"
	}
	fmt.Printf("engine: %d steps, %d merges, %d folds, %d reactivations%s (propagated in %s)\n",
		st.Engine.Steps, st.Engine.Merges, st.Engine.Folds, st.Engine.Reactivate, truncated,
		st.PropagateTime.Round(time.Millisecond))
	if sh := st.Shard; sh.Components > 0 {
		fmt.Printf("shards: %d groups over %d closed components (largest weight %d), %d constant value copies\n",
			sh.Shards, sh.Components, sh.LargestComponent, sh.ValueReplicas)
	}
	if st.Engine.EdgeAdds > 0 {
		fmt.Printf("dedup: %d edges examined over %d edge adds (mean %.1f)\n",
			st.Engine.DedupProbes, st.Engine.EdgeAdds, float64(st.Engine.DedupProbes)/float64(st.Engine.EdgeAdds))
	}
	fmt.Printf("closure: %d non-merge constraint nodes honored (closed in %s)\n",
		st.NonMergeNodes, st.ClosureTime.Round(time.Millisecond))
	if st.AuditChecks > 0 {
		fmt.Printf("audit: %d invariant checks passed\n", st.AuditChecks)
	}
	fmt.Print("largest partition's share of its class:")
	for _, class := range ds.Store.Classes() {
		fmt.Printf(" %s %.3f", class, res.LargestShare(class))
	}
	fmt.Println()
	if *explain != "" {
		exp, err := sess.Explain(reference.ID(explainA), reference.ID(explainB))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(exp.String())
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			log.Fatal(err)
		}
		if err := sess.WriteDOT(f, nil); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dependency graph written to %s\n", *dot)
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	for _, class := range ds.Store.Classes() {
		rep := metrics.Evaluate(ds.Store, class, res.Partitions[class])
		if rep.References > 0 {
			fmt.Printf("%-10s %4d partitions  P=%.3f R=%.3f F=%.3f (over %d labeled refs, %d entities)\n",
				class, len(res.Partitions[class]), rep.Precision, rep.Recall, rep.F1, rep.References, rep.Entities)
		} else {
			fmt.Printf("%-10s %4d partitions (no gold labels)\n", class, len(res.Partitions[class]))
		}
	}
	fmt.Printf("reconciled in %s\n", elapsed)

	if *dump != "" {
		out, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", " ")
		if err := enc.Encode(res.Partitions); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("partitions written to %s\n", *dump)
	}
}

// usageErrorf reports a user error and exits 2, as flag does for a malformed flag.
func usageErrorf(format string, args ...any) { log.Printf(format, args...); os.Exit(2) }
