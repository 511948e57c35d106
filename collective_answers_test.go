// Serving-answer pin for the collective query mode: a loadgen biblio stream
// (a quarter of it collective) is answered through the HTTP handler of an
// in-memory service, and every response body plus the final collective
// counters hash to one recorded value. Any change to how Resolve expands,
// builds or memoizes a neighbourhood must leave that hash alone.
package refrecon_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"refrecon/internal/loadgen"
	"refrecon/internal/recon"
	"refrecon/internal/serve"
)

// collectiveAnswersHash is the SHA-256 of every answer and the final
// collective counters of the stream below.
const collectiveAnswersHash = "48d0b1f4a3f5b1f26452da660323c9aaefe97a20c0adf3c9a03a329b6942e3f3"

func TestCollectiveAnswersUnchanged(t *testing.T) {
	w, err := loadgen.Build(loadgen.Defaults("biblio", 600, 3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	loaded := func() http.Handler {
		// reconserve's model; Budget -1 lifts the serving default's
		// wall-clock budget, the one budget that is not a pure function of
		// the query.
		cfg := serve.Config{Schema: w.Schema, Recon: recon.DefaultConfig(), Name: "answers"}
		cfg.Collective.Budget = -1
		svc, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range w.Batches {
			if _, err := svc.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
		return svc.Handler()
	}
	get := func(h http.Handler, method, path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	bodies := make([][]byte, len(w.Queries))
	for i, q := range w.Queries {
		if bodies[i], err = json.Marshal(map[string]serve.ReconQuery{"q": q}); err != nil {
			t.Fatal(err)
		}
	}

	h := loaded()
	sum := sha256.New()
	answers := make([][]byte, len(bodies))
	for i, b := range bodies {
		answers[i] = get(h, http.MethodPost, "/reconcile", b)
		sum.Write(answers[i])
	}
	var m serve.MetricsSnapshot
	if err := json.Unmarshal(get(h, http.MethodGet, "/metrics", nil), &m); err != nil {
		t.Fatal(err)
	}
	if m.CollectiveQueries == 0 || m.CollectiveDegraded == 0 || m.CollectiveDegraded == m.CollectiveQueries {
		t.Fatalf("stream must hold fitting and degraded collective queries: %d of %d degraded",
			m.CollectiveDegraded, m.CollectiveQueries)
	}
	fmt.Fprintf(sum, "%d %d %+v", m.CollectiveQueries, m.CollectiveDegraded, m.CollectiveExpansion)
	if got := hex.EncodeToString(sum.Sum(nil)); got != collectiveAnswersHash {
		t.Errorf("answers hash %s, want %s", got, collectiveAnswersHash)
	}

	// The stream again from four goroutines on a freshly published view,
	// so their queries fill and read that view's per-matcher memo
	// concurrently.
	h = loaded()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(bodies); i += 4 {
				if got := get(h, http.MethodPost, "/reconcile", bodies[i]); !bytes.Equal(got, answers[i]) {
					t.Errorf("query %d: concurrent answer %s, want %s", i, got, answers[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
