// Command tracecheck validates a Chrome trace-event JSON file produced by
// reconcile -trace (or any tracer built on internal/obs). It checks the
// structural rules a trace viewer relies on — well-formed JSON, the
// traceEvents array, known phase codes, non-negative timestamps and
// durations — plus the span-model contract of this repository: build,
// propagate, and closure phase spans present and strictly ordered, the
// four build stage spans (enumerate, score, wire, associations) inside the
// build span in that order, and every round span nested inside the
// propagate phase span. Exits 0 and
// prints a one-line summary on success; exits 1 with a diagnostic
// otherwise. CI runs it as the trace smoke stage.
//
// Usage:
//
//	tracecheck trace.json
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	"refrecon/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracecheck: ")
	if len(os.Args) != 2 {
		log.Fatal("usage: tracecheck trace.json")
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		log.Fatalf("not valid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		log.Fatal("traceEvents is empty")
	}

	phases := map[string]obs.TraceEvent{}
	stages := map[string]obs.TraceEvent{}
	rounds := 0
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "X", "i", "B", "E":
		default:
			log.Fatalf("event %d (%s): unknown phase code %q", i, e.Name, e.Ph)
		}
		if e.TS < 0 || e.Dur < 0 {
			log.Fatalf("event %d (%s): negative ts/dur", i, e.Name)
		}
		if e.Name == "" {
			log.Fatalf("event %d: empty name", i)
		}
		switch e.Cat {
		case "phase":
			if _, dup := phases[e.Name]; dup {
				log.Fatalf("duplicate phase span %q", e.Name)
			}
			phases[e.Name] = e
		case "build":
			if _, dup := stages[e.Name]; dup {
				log.Fatalf("duplicate build stage span %q", e.Name)
			}
			stages[e.Name] = e
		case "round":
			rounds++
		}
	}

	for _, want := range []string{"build", "propagate", "closure"} {
		if _, ok := phases[want]; !ok {
			log.Fatalf("missing phase span %q", want)
		}
	}
	build, prop, clos := phases["build"], phases["propagate"], phases["closure"]
	if !(end(build) <= prop.TS && end(prop) <= clos.TS) {
		log.Fatalf("phases out of order: build [%v,%v] propagate [%v,%v] closure [%v,%v]",
			build.TS, end(build), prop.TS, end(prop), clos.TS, end(clos))
	}
	// The stages run one after another inside build; what is left of the
	// build span beside them is its self time.
	at := build.TS
	for _, want := range []string{"build.enumerate", "build.score", "build.wire", "build.associations"} {
		st, ok := stages[want]
		if !ok {
			log.Fatalf("missing build stage span %q", want)
		}
		if st.TS < at || end(st) > end(build) {
			log.Fatalf("build stage %q [%v,%v] out of order or outside build [%v,%v]",
				want, st.TS, end(st), build.TS, end(build))
		}
		at = end(st)
	}
	for _, e := range doc.TraceEvents {
		if e.Cat != "round" {
			continue
		}
		if e.TS < prop.TS || end(e) > end(prop) {
			log.Fatalf("round span %q [%v,%v] not nested in propagate [%v,%v]",
				e.Name, e.TS, end(e), prop.TS, end(prop))
		}
	}
	fmt.Printf("tracecheck: ok: %d events, %d phases, %d build stages, %d rounds\n",
		len(doc.TraceEvents), len(phases), len(stages), rounds)
}

func end(e obs.TraceEvent) float64 { return e.TS + e.Dur }
