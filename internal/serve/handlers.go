package serve

// HTTP surface. All read handlers resolve the published View once at the
// top and serve the whole request from it, so a concurrent ingest cannot
// change the data mid-response; the snapshot version backing each
// response is echoed in the X-Snapshot-Version header.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"refrecon/internal/obs"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
)

const maxBodyBytes = 64 << 20 // 64 MiB ingest/batch ceiling

// Handler returns the service's HTTP mux:
//
//	GET  /                    OpenRefine service manifest
//	GET|POST /reconcile       batched reconciliation queries, or a data-
//	                          extension request (extend payload)
//	GET  /suggest/entity      entity-label prefix autocomplete
//	GET  /preview/{id}        HTML entity flyout
//	GET  /properties          propose extendable properties for a type
//	GET  /entity/{id}         entity document for any member reference id
//	GET  /explain/{a}/{b}     merge explanation for a reference pair
//	POST /ingest              apply one reference batch
//	GET  /metrics             service metrics (JSON)
//	GET  /healthz, /readyz    liveness / readiness
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleManifest)
	mux.HandleFunc("GET /reconcile", s.handleReconcile)
	mux.HandleFunc("POST /reconcile", s.handleReconcile)
	mux.HandleFunc("GET /suggest/entity", s.handleSuggest)
	mux.HandleFunc("GET /preview/{id}", s.handlePreview)
	mux.HandleFunc("GET /properties", s.handleProposeProperties)
	mux.HandleFunc("GET /entity/{id}", s.handleEntity)
	mux.HandleFunc("GET /explain/{a}/{b}", s.handleExplain)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.view.Load() == nil {
			writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: "no snapshot published"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	if tr := s.obs().Tracer(); tr != nil {
		return traceRequests(tr, mux)
	}
	return mux
}

// traceRequests wraps a handler so every request records one span. Each
// request gets its own trace lane (tid): concurrent requests would
// otherwise appear nested by time containment on a shared lane.
func traceRequests(tr *obs.Tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := tr.BeginTID("http", r.Method+" "+r.URL.Path, tr.NextTID())
		h.ServeHTTP(w, r)
		sp.End()
	})
}

// statusFor maps a service error to an HTTP status through the exported
// recon sentinels — errors.Is instead of string matching. A rejected
// batch is the client's fault (400); schema violations outside a batch
// rejection mean the stored data no longer validates (422); a cancelled
// reconcile or a shutting-down service is a transient server-side
// condition (503) the client should retry.
func statusFor(err error) int {
	switch {
	case errors.Is(err, recon.ErrBatchRejected):
		return http.StatusBadRequest
	case errors.Is(err, recon.ErrSchemaViolation):
		return http.StatusUnprocessableEntity
	case errors.Is(err, recon.ErrCanceled), errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(doc)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// readBody reads a request body already capped by http.MaxBytesReader,
// answering 413 for one over the cap and 400 for any other read failure.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "read body: %v", err)
		return nil, false
	}
	return body, true
}

func snapshotHeader(w http.ResponseWriter, v *View) {
	if v != nil {
		w.Header().Set("X-Snapshot-Version", strconv.Itoa(v.Snapshot.Version))
	}
}

func (s *Service) handleManifest(w http.ResponseWriter, r *http.Request) {
	scheme := "http"
	if r.TLS != nil {
		scheme = "https"
	}
	writeJSON(w, http.StatusOK, s.Manifest(scheme+"://"+r.Host))
}

// handleReconcile implements the batch query endpoint and, per the
// OpenRefine 0.2 protocol, the data-extension endpoint on the same path:
// queries={"q0": {...}, ...} or extend={"ids": [...], "properties":
// [...]} as form values (GET query string or POST form). A raw JSON POST
// body is also accepted — either the bare queries object or an
// {"extend": {...}} envelope.
func (s *Service) handleReconcile(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes) // bounds the form parse too
	raw := r.FormValue("queries")
	rawExtend := r.FormValue("extend")
	if raw == "" && rawExtend == "" && r.Method == http.MethodPost {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var envelope struct {
			Extend json.RawMessage `json:"extend"`
		}
		if json.Unmarshal(body, &envelope) == nil && len(envelope.Extend) > 0 {
			rawExtend = string(envelope.Extend)
		} else {
			raw = string(body)
		}
	}
	if rawExtend != "" {
		var req ExtendRequest
		if err := json.Unmarshal([]byte(rawExtend), &req); err != nil {
			writeErr(w, http.StatusBadRequest, "parse extend: %v", err)
			return
		}
		v := s.view.Load()
		snapshotHeader(w, v)
		writeJSON(w, http.StatusOK, s.extend(v, req))
		return
	}
	if raw == "" {
		writeErr(w, http.StatusBadRequest, "missing queries parameter")
		return
	}
	var batch map[string]ReconQuery
	if err := json.Unmarshal([]byte(raw), &batch); err != nil {
		writeErr(w, http.StatusBadRequest, "parse queries: %v", err)
		return
	}
	v := s.view.Load()
	snapshotHeader(w, v)
	out := make(map[string]any, len(batch))
	for key, q := range batch {
		cands, err := s.query(v, q)
		if err != nil {
			out[key] = map[string]string{"error": err.Error()}
			continue
		}
		out[key] = toWire(cands)
	}
	writeJSON(w, http.StatusOK, out)
}

// entityFor resolves the {id} path value — any member reference id — to
// its entity in the published snapshot. When it cannot, it has answered 400
// or 404 itself and returns a nil entity.
func (s *Service) entityFor(w http.ResponseWriter, r *http.Request) (*recon.Entity, *recon.Snapshot) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad entity id %q", r.PathValue("id"))
		return nil, nil
	}
	v := s.view.Load()
	snapshotHeader(w, v)
	snap := v.Snapshot
	if id < 0 || id >= snap.RefCount() {
		writeErr(w, http.StatusNotFound, "reference %d not in snapshot (have %d references)", id, snap.RefCount())
		return nil, nil
	}
	ent := snap.EntityOf(reference.ID(id))
	if ent == nil {
		writeErr(w, http.StatusNotFound, "reference %d has no entity assignment", id)
	}
	return ent, snap
}

func (s *Service) handleEntity(w http.ResponseWriter, r *http.Request) {
	ent, snap := s.entityFor(w, r)
	if ent == nil {
		return
	}
	writeJSON(w, http.StatusOK, EntityDoc{
		ID:              strconv.Itoa(int(ent.Canonical)),
		Name:            ent.Name(),
		Type:            []TypeRef{{ID: ent.Class, Name: ent.Class}},
		Canonical:       ent.Canonical,
		Members:         ent.Members,
		Atomic:          ent.Atomic,
		SnapshotVersion: snap.Version,
	})
}

// handleSuggest serves entity-label prefix autocomplete. OpenRefine
// sends the typed text as "prefix"; "limit" optionally bounds the hits.
func (s *Service) handleSuggest(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if l := r.FormValue("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", l)
			return
		}
		limit = n
	}
	v := s.view.Load()
	snapshotHeader(w, v)
	writeJSON(w, http.StatusOK, s.suggest(v, r.FormValue("prefix"), limit))
}

// handlePreview serves the HTML flyout for one entity id (a canonical
// reference id, as returned by reconcile and suggest).
func (s *Service) handlePreview(w http.ResponseWriter, r *http.Request) {
	s.met.previews.Add(1)
	ent, snap := s.entityFor(w, r)
	if ent == nil {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, previewHTML(ent, snap.Version))
}

// handleProposeProperties lists the extendable properties of a type.
func (s *Service) handleProposeProperties(w http.ResponseWriter, r *http.Request) {
	snapshotHeader(w, s.view.Load())
	writeJSON(w, http.StatusOK, s.ProposeProperties(r.FormValue("type")))
}

func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	a, errA := strconv.Atoi(r.PathValue("a"))
	b, errB := strconv.Atoi(r.PathValue("b"))
	if errA != nil || errB != nil {
		writeErr(w, http.StatusBadRequest, "bad reference pair %q/%q", r.PathValue("a"), r.PathValue("b"))
		return
	}
	v := s.view.Load()
	snapshotHeader(w, v)
	exp, err := v.Snapshot.Explain(reference.ID(a), reference.ID(b))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainDoc{
		A:               exp.A,
		B:               exp.B,
		Same:            exp.Same,
		Path:            exp.Path,
		Direct:          exp.Direct,
		Rendered:        exp.String(),
		SnapshotVersion: v.Snapshot.Version,
	})
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	b, err := reference.DecodeBatch(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// net/http cancels r.Context() when the client hangs up. By then the
	// batch may be logged and stored, and a cancelled commit would poison
	// the session and make the next ingest rebuild the whole store — so the
	// ingest runs to completion whoever is still listening.
	resp, err := s.ingest(context.WithoutCancel(r.Context()), b.References)
	if err != nil {
		code := statusFor(err)
		if code == http.StatusServiceUnavailable {
			// A closing service (ErrUnavailable) is about to restart: a
			// prompt retry is expected to succeed.
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, code, "%v", err)
		return
	}
	snapshotHeader(w, s.view.Load())
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
