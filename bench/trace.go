package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one request
// share Req, its index in the workload's stream; Parent names the rung
// above in the ladder.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Req     int    `json:"req"`
	StartNS int64  `json:"startNs"`
	EndNS   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced reference pass runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// timedFunc times one call into a layer for request req; the adapter's
// multi-step probes take one so their inner calls land in the trace.
type timedFunc func(name string, req int, fn func()) time.Duration

// under returns a timedFunc recording spans whose parent is the named rung.
func (t *tracer) under(parent string) timedFunc {
	return func(name string, req int, fn func()) time.Duration { return t.timed(name, parent, req, fn) }
}

// timed runs fn and returns its duration, recording a span when tracing.
func (t *tracer) timed(name, parent string, req int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if t != nil {
		t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req,
			StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds()})
	}
	return end.Sub(start)
}

func (t *tracer) write(path string, meta any) error {
	doc := struct {
		Meta  any    `json:"meta"`
		Spans []span `json:"spans"`
	}{meta, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ladder holds, per rung, the duration each request took at that rung;
// rungs run top (outermost layer) to bottom. A request a rung does not
// apply to is NaN-free: it is simply absent from every rung.
type ladder struct {
	rungs []string
	ms    [][]float64 // [rung][request]
}

func newLadder(rungs ...string) *ladder {
	return &ladder{rungs: rungs, ms: make([][]float64, len(rungs))}
}

// add records one request's durations, one per rung.
func (l *ladder) add(durations ...time.Duration) {
	for i, d := range durations {
		l.ms[i] = append(l.ms[i], ms(d))
	}
}

func (l *ladder) n() int { return len(l.ms[0]) }

// rung returns the samples of the named rung.
func (l *ladder) rung(name string) []float64 {
	for i, r := range l.rungs {
		if r == name {
			return l.ms[i]
		}
	}
	return nil
}

// selfTimes is the ladder arithmetic: a rung's self time for a request is
// its duration minus the duration of the rung below; the bottom rung's
// self time is its whole duration. It returns the median self time per
// rung.
func (l *ladder) selfTimes() []float64 {
	out := make([]float64, len(l.rungs))
	for i := range l.rungs {
		diffs := make([]float64, l.n())
		for r := range diffs {
			diffs[r] = l.ms[i][r]
			if i+1 < len(l.rungs) {
				diffs[r] -= l.ms[i+1][r]
			}
		}
		out[i] = medianOf(diffs)
	}
	return out
}

// coverage is the sum of the median self times over the top rung's
// median: 1 when the rungs account for the whole request.
func (l *ladder) coverage() float64 {
	top := medianOf(l.ms[0])
	if top == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range l.selfTimes() {
		sum += s
	}
	return sum / top
}
