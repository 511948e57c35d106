package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records structured spans and renders them in the Chrome
// trace-event JSON format (chrome://tracing, Perfetto, Speedscope all
// read it). Spans are "complete" events ("ph":"X") with microsecond
// timestamps relative to the tracer's creation; nesting is positional —
// a viewer nests span B inside span A when B's [ts, ts+dur) interval
// lies within A's on the same (pid, tid) lane.
//
// All methods are safe for concurrent use and safe on a nil receiver:
// a nil tracer hands out inert Spans whose End is a no-op, so call sites
// need no guard beyond the pointer they already hold.
type Tracer struct {
	start   time.Time
	mu      sync.Mutex
	events  []TraceEvent
	nextTID atomic.Int64
}

// TraceEvent is one Chrome trace-event record. TS and Dur are
// microseconds; PH is the event phase ("X" complete, "i" instant).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer returns a tracer whose timestamps are relative to now.
func NewTracer() *Tracer { return &Tracer{start: time.Now()} }

// Span is an in-flight trace span; End (or EndArgs) closes it. The zero
// Span is inert.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	tid   int64
	begin time.Time
}

// Begin opens a span on the main lane (tid 1). On a nil tracer it
// returns an inert span.
func (t *Tracer) Begin(cat, name string) Span { return t.BeginTID(cat, name, 1) }

// BeginTID opens a span on an explicit lane; concurrent request handlers
// use distinct lanes (see NextTID) so their spans do not falsely nest.
func (t *Tracer) BeginTID(cat, name string, tid int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, tid: tid, begin: time.Now()}
}

// NextTID allocates a fresh lane id (lanes 1.. are caller-managed; the
// engine uses lane 1).
func (t *Tracer) NextTID() int64 {
	if t == nil {
		return 0
	}
	return t.nextTID.Add(1) + 1
}

// End closes the span with no args.
func (s Span) End() { s.EndArgs(nil) }

// EndArgs closes the span, attaching args to the recorded event.
func (s Span) EndArgs(args map[string]any) {
	if s.t == nil {
		return
	}
	s.t.record(s.cat, s.name, s.tid, s.begin, time.Now(), args)
}

// Complete records a span that started at begin and ends now, on the main
// lane. It lets hot paths avoid constructing a Span when the outcome
// decides whether the event is worth recording at all.
func (t *Tracer) Complete(cat, name string, begin time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.record(cat, name, 1, begin, time.Now(), args)
}

func (t *Tracer) record(cat, name string, tid int64, begin, end time.Time, args map[string]any) {
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: t.since(begin), Dur: t.since(end) - t.since(begin),
		PID: 1, TID: tid, Args: args,
	})
	t.mu.Unlock()
}

// since converts an absolute time to trace microseconds.
func (t *Tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.start).Nanoseconds()) / 1e3
}

// Events returns a copy of the recorded events in recording order (which
// is completion order for spans, not start order).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	return out
}

// traceFile is the JSON object format of a Chrome trace file.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON renders the recorded events as a Chrome trace-event JSON
// document.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteJSON on a nil Tracer")
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"})
}
