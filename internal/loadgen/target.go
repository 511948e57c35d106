package loadgen

// Replay targets. The HTTP target drives a live reconserve over its wire
// protocol (one reconcile query per request, ingest batches as JSON
// bodies); the in-process target calls internal/serve directly, isolating
// engine cost from HTTP/JSON stack cost when the two reports are read
// side by side.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"refrecon/internal/reference"
	"refrecon/internal/serve"
)

// Outcome classifies one query's result.
type Outcome struct {
	// Err is true when the server answered the query with a per-query
	// error envelope (transport failures surface as Go errors instead).
	Err bool
	// Results is the candidate count.
	Results int
}

// Target is anything the replayer can drive.
type Target interface {
	// Ingest applies one batch; any failure is a transport error.
	Ingest(batch []serve.IngestRef) error
	// Query resolves one reconcile query. The error return is transport
	// failure; per-query errors land in the Outcome.
	Query(q serve.ReconQuery) (Outcome, error)
	// Metrics fetches the server's metrics snapshot (nil if unsupported).
	Metrics() (*serve.MetricsSnapshot, error)
}

// HTTPTarget replays against a live server over HTTP.
type HTTPTarget struct {
	Base   string
	Client *http.Client
}

// NewHTTPTarget builds a target for the base URL ("http://host:port"),
// with a connection pool sized for the given client concurrency.
func NewHTTPTarget(base string, concurrency int) *HTTPTarget {
	if concurrency < 1 {
		concurrency = 1
	}
	tr := &http.Transport{
		MaxIdleConns:        concurrency * 2,
		MaxIdleConnsPerHost: concurrency * 2,
		IdleConnTimeout:     90 * time.Second,
	}
	return &HTTPTarget{Base: base, Client: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (t *HTTPTarget) Ingest(batch []serve.IngestRef) error {
	body, err := json.Marshal(reference.Batch{References: batch})
	if err != nil {
		return err
	}
	resp, err := t.Client.Post(t.Base+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return nil
}

func (t *HTTPTarget) Query(q serve.ReconQuery) (Outcome, error) {
	body, err := json.Marshal(map[string]serve.ReconQuery{"q": q})
	if err != nil {
		return Outcome{}, err
	}
	resp, err := t.Client.Post(t.Base+"/reconcile", "application/json", bytes.NewReader(body))
	if err != nil {
		return Outcome{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return Outcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Outcome{}, fmt.Errorf("reconcile: status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	var out map[string]struct {
		Result []json.RawMessage `json:"result"`
		Error  string            `json:"error"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return Outcome{}, fmt.Errorf("reconcile: decode: %w", err)
	}
	r, ok := out["q"]
	if !ok {
		return Outcome{}, fmt.Errorf("reconcile: response missing query key")
	}
	if r.Error != "" {
		return Outcome{Err: true}, nil
	}
	return Outcome{Results: len(r.Result)}, nil
}

func (t *HTTPTarget) Metrics() (*serve.MetricsSnapshot, error) {
	resp, err := t.Client.Get(t.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// InProcTarget replays directly against a serve.Service, bypassing the
// HTTP and JSON layers.
type InProcTarget struct {
	Svc *serve.Service
}

// NewInProcTarget starts an empty in-process service over the workload's
// schema.
func NewInProcTarget(w *Workload) (*InProcTarget, error) {
	svc, err := serve.New(serve.Config{Schema: w.Schema, Name: "loadgen-inproc"})
	if err != nil {
		return nil, err
	}
	return &InProcTarget{Svc: svc}, nil
}

func (t *InProcTarget) Ingest(batch []serve.IngestRef) error {
	_, err := t.Svc.Ingest(batch)
	return err
}

func (t *InProcTarget) Query(q serve.ReconQuery) (Outcome, error) {
	cands, err := t.Svc.Query(q)
	if err != nil {
		return Outcome{Err: true}, nil
	}
	return Outcome{Results: len(cands)}, nil
}

func (t *InProcTarget) Metrics() (*serve.MetricsSnapshot, error) {
	m := t.Svc.Metrics()
	return &m, nil
}
