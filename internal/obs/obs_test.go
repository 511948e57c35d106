package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// Instant records a zero-duration marker event on the main lane.
func (t *Tracer) Instant(cat, name string, args map[string]any) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "i",
		TS: t.since(now), PID: 1, TID: 1, Args: args,
	})
	t.mu.Unlock()
}

func TestTracerSpansAndJSON(t *testing.T) {
	tr := NewTracer()
	outer := tr.Begin("phase", "propagate")
	inner := tr.Begin("round", "round 1")
	time.Sleep(time.Millisecond)
	inner.EndArgs(map[string]any{"steps": 3})
	outer.End()
	tr.Instant("mark", "checkpoint", nil)

	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	// Spans record on completion, so the inner round lands first.
	round, phase, inst := ev[0], ev[1], ev[2]
	if round.Name != "round 1" || round.Ph != "X" {
		t.Fatalf("first event = %+v, want round 1 complete span", round)
	}
	if phase.Name != "propagate" || phase.Cat != "phase" {
		t.Fatalf("second event = %+v, want propagate phase span", phase)
	}
	if inst.Ph != "i" {
		t.Fatalf("instant event ph = %q, want i", inst.Ph)
	}
	// Time containment: the round must nest inside the phase span.
	if round.TS < phase.TS || round.TS+round.Dur > phase.TS+phase.Dur {
		t.Fatalf("round [%v,%v] not inside phase [%v,%v]",
			round.TS, round.TS+round.Dur, phase.TS, phase.TS+phase.Dur)
	}
	if got := round.Args["steps"]; got != 3 {
		t.Fatalf("round args = %v, want steps:3", round.Args)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output is not valid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("trace file = %d events, unit %q", len(doc.TraceEvents), doc.DisplayTimeUnit)
	}
}

func TestTracerNilReceiver(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("phase", "build") // must not panic
	sp.End()
	sp.EndArgs(map[string]any{"x": 1})
	tr.Complete("cat", "n", time.Now(), nil)
	tr.Instant("cat", "n", nil)
	if ev := tr.Events(); ev != nil {
		t.Fatalf("nil tracer returned events: %v", ev)
	}
	if tr.NextTID() != 0 {
		t.Fatal("nil tracer allocated a lane")
	}
	if err := tr.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteJSON on nil tracer should error")
	}
}

func TestTracerConcurrentLanes(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.BeginTID("http", "GET /x", tr.NextTID())
			sp.End()
		}()
	}
	wg.Wait()
	ev := tr.Events()
	if len(ev) != 8 {
		t.Fatalf("got %d events, want 8", len(ev))
	}
	lanes := map[int64]bool{}
	for _, e := range ev {
		if lanes[e.TID] {
			t.Fatalf("lane %d reused across concurrent requests", e.TID)
		}
		lanes[e.TID] = true
	}
}

func TestCountersSnapshotAndMax(t *testing.T) {
	c := NewCounters()
	c.Steps.Add(5)
	c.Merges.Add(2)
	UpdateMax(&c.QueueHighWater, 7)
	UpdateMax(&c.QueueHighWater, 3) // lower: must not regress
	s := c.Snapshot()
	if s.Steps != 5 || s.Merges != 2 || s.QueueHighWater != 7 {
		t.Fatalf("snapshot = %+v", s)
	}
	var nilC *Counters
	if got := nilC.Snapshot(); got != (CounterSnapshot{}) {
		t.Fatalf("nil snapshot = %+v, want zero", got)
	}
}

func TestProgressCallbackGetsEveryEvent(t *testing.T) {
	var got []Event
	p := &Progress{Fn: func(e Event) { got = append(got, e) }, Interval: time.Hour}
	for i := 1; i <= 5; i++ {
		p.Emit(Event{Phase: "propagate", Round: i})
	}
	if len(got) != 5 {
		t.Fatalf("callback saw %d events, want 5 (callback must not be rate-limited)", len(got))
	}
	for i, e := range got {
		if e.Round != i+1 {
			t.Fatalf("event %d round = %d", i, e.Round)
		}
	}
}

func TestProgressWriterRateLimited(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Hour)
	p.Emit(Event{Phase: "propagate", Round: 1})              // first always renders
	p.Emit(Event{Phase: "propagate", Round: 2})              // suppressed by interval
	p.Emit(Event{Phase: "propagate", Round: 3, Final: true}) // final always renders
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Fatalf("rendered %d lines, want 2 (first + final):\n%s", lines, buf.String())
	}
	if !strings.Contains(buf.String(), "done") {
		t.Fatalf("final line missing done marker:\n%s", buf.String())
	}
}

func TestProgressNilReceiver(t *testing.T) {
	var p *Progress
	p.Emit(Event{Phase: "build"}) // must not panic
}

func TestObserverNilAccessors(t *testing.T) {
	var o *Observer
	if o.Tracer() != nil || o.Counter() != nil || o.Progressor() != nil || o.Profiling() {
		t.Fatal("nil observer leaked a non-nil facet")
	}
	o = &Observer{}
	if o.Tracer() != nil || o.Counter() != nil || o.Progressor() != nil || o.Profiling() {
		t.Fatal("empty observer leaked a non-nil facet")
	}
}

func TestDoRunsFunction(t *testing.T) {
	ran := false
	Do("build", func() { ran = true })
	if !ran {
		t.Fatal("Do did not run the function")
	}
}

func TestHistogramQuantilesAndSummary(t *testing.T) {
	h := NewHistogram([]int64{1, 2, 4, 8})
	if h.quantile(0.5) != 0 || h.Summary().Count != 0 {
		t.Fatal("empty histogram is not all zero")
	}
	for v := int64(1); v <= 8; v++ { // buckets: {1} {2} {3,4} {5..8}
		h.Observe(v)
	}
	h.Observe(100) // overflow bucket: quantiles there read the exact max
	s := h.Summary()
	if s.Count != 9 || s.Max != 100 || s.Mean != 136.0/9 {
		t.Errorf("summary = %+v", s)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.25, 4}, {0.5, 8}, {0.9, 100}, {1, 100}} {
		if got := h.quantile(tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %d, want %d (bucket upper bound)", tc.q, got, tc.want)
		}
	}
}

func TestHistogramLatencyBuckets(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe((25 * time.Microsecond).Nanoseconds())
	h.Observe((30 * time.Microsecond).Nanoseconds())
	h.Observe((40 * time.Millisecond).Nanoseconds())
	l := h.Latency()
	// Both short ones land in the second ×1.5 bucket (20µs, 30µs, 45µs, ...).
	if l.Count != 3 || l.P50MS != 0.03 || l.MaxMS != 40 {
		t.Errorf("latency summary = %+v", l)
	}
	if l.P99MS < 40 || l.P99MS > 40*1.5 {
		t.Errorf("p99 = %v ms, want the bucket bound above 40 ms", l.P99MS)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				h.Observe(int64(w*each + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != workers*each || s.Max != workers*each {
		t.Errorf("count %d max %d after %d concurrent observations", s.Count, s.Max, workers*each)
	}
	var n int64 = workers * each
	if want := float64(n*(n+1)/2) / float64(n); s.Mean != want {
		t.Errorf("mean = %v, want %v", s.Mean, want)
	}
}
