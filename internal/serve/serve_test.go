package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"refrecon/internal/datagen/cora"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// personStore builds three person references where the first two share an
// email account (a hard merge) and the third is unrelated.
func personStore() *reference.Store {
	store := reference.NewStore()
	store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Alice Smith").
		AddAtomic(schema.AttrEmail, "asmith@cs.example.edu"))
	store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "A. Smith").
		AddAtomic(schema.AttrEmail, "asmith@cs.example.edu"))
	store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Bob Jones").
		AddAtomic(schema.AttrEmail, "bjones@ee.example.edu"))
	return store
}

func newTestServer(t *testing.T, store *reference.Store) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := NewFromStore(Config{Schema: schema.PIM(), Name: "refrecon-test"}, seedOf(store))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

func postReconcile(t *testing.T, base string, queries map[string]ReconQuery) (map[string]ReconResult, *http.Response) {
	t.Helper()
	body, err := json.Marshal(queries)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/reconcile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reconcile status %d", resp.StatusCode)
	}
	var out map[string]ReconResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp
}

func TestServeManifest(t *testing.T) {
	_, ts := newTestServer(t, personStore())
	var m Manifest
	resp := getJSON(t, ts.URL+"/", &m)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(m.Versions) != 1 || m.Versions[0] != "0.2" {
		t.Errorf("versions = %v, want [0.2]", m.Versions)
	}
	if m.Name != "refrecon-test" || m.IdentifierSpace == "" || m.SchemaSpace == "" {
		t.Errorf("manifest identity incomplete: %+v", m)
	}
	types := make(map[string]bool)
	for _, tr := range m.DefaultTypes {
		types[tr.ID] = true
	}
	for _, want := range []string{schema.ClassPerson, schema.ClassArticle, schema.ClassVenue} {
		if !types[want] {
			t.Errorf("defaultTypes missing %q (got %v)", want, m.DefaultTypes)
		}
	}
	if m.View == nil || !strings.Contains(m.View.URL, "/entity/{{id}}") {
		t.Errorf("view template missing: %+v", m.View)
	}
}

// TestServeReconcileForm covers the protocol's form-encoded transport:
// queries as a URL parameter on GET and as a POST form value.
func TestServeReconcileForm(t *testing.T) {
	_, ts := newTestServer(t, personStore())
	raw := `{"q0":{"query":"Alice Smith","type":"Person","properties":[{"pid":"email","v":"asmith@cs.example.edu"}]}}`

	var viaGet map[string]ReconResult
	getJSON(t, ts.URL+"/reconcile?queries="+url.QueryEscape(raw), &viaGet)

	resp, err := http.PostForm(ts.URL+"/reconcile", url.Values{"queries": {raw}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var viaForm map[string]ReconResult
	if err := json.NewDecoder(resp.Body).Decode(&viaForm); err != nil {
		t.Fatal(err)
	}

	for name, out := range map[string]map[string]ReconResult{"GET": viaGet, "POST form": viaForm} {
		res, ok := out["q0"]
		if !ok || len(res.Result) == 0 {
			t.Fatalf("%s: no candidates: %v", name, out)
		}
		top := res.Result[0]
		if top.ID != "0" || !top.Match {
			t.Errorf("%s: top = %+v, want id 0 with match=true", name, top)
		}
		if top.Score < 99 || top.Score > 100 {
			t.Errorf("%s: score %.2f outside the wire [0,100] scale", name, top.Score)
		}
		if len(top.Type) != 1 || top.Type[0].ID != schema.ClassPerson {
			t.Errorf("%s: type = %v", name, top.Type)
		}
	}
}

// TestServeReconcileCora runs reconcile queries against a generated Cora
// citation corpus: for at least one known-duplicate citation, querying by
// its (noisy) title must rank its gold entity first.
func TestServeReconcileCora(t *testing.T) {
	g, err := cora.Generate(cora.Default(0.05))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, g.Store)
	snap := svc.View().Snapshot

	// Gold-duplicate article references: same non-empty entity label, at
	// least two references.
	byGold := make(map[string][]reference.ID)
	for _, id := range g.Store.ByClass(schema.ClassArticle) {
		r := g.Store.Get(id)
		if r.Entity != "" {
			byGold[r.Entity] = append(byGold[r.Entity], id)
		}
	}
	tried, hits := 0, 0
	for gold, ids := range byGold {
		if len(ids) < 2 || tried >= 10 {
			continue
		}
		title := g.Store.Get(ids[0]).FirstAtomic(schema.AttrTitle)
		if title == "" {
			continue
		}
		tried++
		out, _ := postReconcile(t, ts.URL, map[string]ReconQuery{
			"q0": {Query: title, Type: schema.ClassArticle},
		})
		res := out["q0"]
		if len(res.Result) == 0 {
			continue
		}
		canonical, err := strconv.Atoi(res.Result[0].ID)
		if err != nil {
			t.Fatalf("candidate id %q not numeric", res.Result[0].ID)
		}
		if sr, ok := snap.Ref(reference.ID(canonical)); ok && sr.Entity == gold {
			hits++
		}
	}
	if tried == 0 {
		t.Fatal("cora corpus has no gold-duplicate articles to query")
	}
	if hits == 0 {
		t.Errorf("0/%d known-duplicate queries ranked the gold entity first", tried)
	}
	t.Logf("cora: %d/%d duplicate queries hit the gold entity", hits, tried)
}

func TestServeEntityAndExplain(t *testing.T) {
	svc, ts := newTestServer(t, personStore())

	var ent EntityDoc
	resp := getJSON(t, ts.URL+"/entity/1", &ent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("entity status %d", resp.StatusCode)
	}
	if ent.Canonical != 0 || len(ent.Members) != 2 {
		t.Errorf("entity/1 = %+v, want canonical 0 with members [0 1]", ent)
	}
	if got := resp.Header.Get("X-Snapshot-Version"); got != strconv.Itoa(svc.View().Snapshot.Version) {
		t.Errorf("X-Snapshot-Version = %q", got)
	}

	var exp ExplainDoc
	resp = getJSON(t, ts.URL+"/explain/0/1", &exp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d", resp.StatusCode)
	}
	if !exp.Same || exp.Rendered == "" {
		t.Errorf("explain/0/1 = %+v, want same=true with rendering", exp)
	}
	want, err := svc.View().Snapshot.Explain(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Rendered != want.String() {
		t.Errorf("rendered explanation diverges from snapshot:\nwire: %s\nsnapshot: %s", exp.Rendered, want.String())
	}

	getJSON(t, ts.URL+"/explain/0/2", &exp)
	if exp.Same {
		t.Errorf("explain/0/2 reports same=true for distinct people")
	}

	// Out-of-range lookups are 404, not 500.
	r404, err := http.Get(ts.URL + "/entity/99")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("entity/99 status = %d, want 404", r404.StatusCode)
	}
}

func ingestBody(refs []IngestRef) *bytes.Reader {
	b, _ := json.Marshal(reference.Batch{References: refs})
	return bytes.NewReader(b)
}

func TestServeIngestValidation(t *testing.T) {
	svc, ts := newTestServer(t, personStore())

	// A batch with one bad reference must be rejected whole.
	resp, err := http.Post(ts.URL+"/ingest", "application/json", ingestBody([]IngestRef{
		{Class: schema.ClassPerson, Atomic: map[string][]string{schema.AttrName: {"Carol"}}},
		{Class: "Nope"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status = %d, want 400", resp.StatusCode)
	}
	if got := svc.View().Snapshot.RefCount(); got != 3 {
		t.Fatalf("rejected batch mutated the store: %d references", got)
	}

	// Unknown attributes and out-of-range association targets too.
	for name, batch := range map[string][]IngestRef{
		"unknown attr": {{Class: schema.ClassPerson, Atomic: map[string][]string{"zip": {"x"}}}},
		"assoc range":  {{Class: schema.ClassArticle, Atomic: map[string][]string{schema.AttrTitle: {"T"}}, Assoc: map[string][]reference.ID{schema.AttrAuthoredBy: {99}}}},
		"assoc class":  {{Class: schema.ClassArticle, Atomic: map[string][]string{schema.AttrTitle: {"T"}}, Assoc: map[string][]reference.ID{schema.AttrPublishedIn: {0}}}},
	} {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", ingestBody(batch))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}

	// A good batch with an intra-batch association lands and re-publishes.
	var ir IngestResponse
	resp, err = http.Post(ts.URL+"/ingest", "application/json", ingestBody([]IngestRef{
		{Class: schema.ClassPerson, Atomic: map[string][]string{schema.AttrName: {"Dana White"}}},
		{Class: schema.ClassArticle,
			Atomic: map[string][]string{schema.AttrTitle: {"On Batches"}},
			Assoc:  map[string][]reference.ID{schema.AttrAuthoredBy: {3}}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ir.Added != 2 || ir.FirstID != 3 || ir.LastID != 4 {
		t.Fatalf("good batch: status %d resp %+v", resp.StatusCode, ir)
	}
	if got := svc.View().Snapshot.RefCount(); got != 5 {
		t.Errorf("snapshot refs = %d, want 5", got)
	}
}

// TestServeIngestClientHangUp sends an ingest whose request context is
// already cancelled — net/http's signal that the client hung up. The batch
// is stored either way, so the commit must run to completion instead of
// poisoning the session and forcing the next ingest to rebuild the store.
func TestServeIngestClientHangUp(t *testing.T) {
	svc, err := NewFromStore(Config{Schema: schema.PIM(), Name: "refrecon-test"}, seedOf(personStore()))
	if err != nil {
		t.Fatal(err)
	}
	before := svc.View().Snapshot.Version
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/ingest", ingestBody([]IngestRef{
		{Class: schema.ClassPerson, Atomic: map[string][]string{schema.AttrName: {"Dana White"}}},
	})).WithContext(ctx)
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("hung-up ingest status = %d, want 200: %s", rec.Code, rec.Body)
	}
	if got := svc.Metrics().SessionPoisoned; got != 0 {
		t.Errorf("sessionPoisoned = %d, want 0", got)
	}
	if got, want := rec.Header().Get("X-Snapshot-Version"), strconv.Itoa(before+1); got != want {
		t.Errorf("X-Snapshot-Version = %q, want %q", got, want)
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestServeBodyTooLarge posts one byte more than the body cap: the
// request must be refused with 413, not truncated and answered with a
// parse error.
func TestServeBodyTooLarge(t *testing.T) {
	svc, ts := newTestServer(t, personStore())
	for _, tc := range []struct{ path, contentType string }{
		{"/reconcile", "application/json"},
		{"/reconcile", "application/x-www-form-urlencoded"},
		{"/ingest", "application/json"},
	} {
		resp, err := http.Post(ts.URL+tc.path, tc.contentType, io.LimitReader(zeros{}, maxBodyBytes+1))
		if err != nil {
			t.Fatalf("%s (%s): %v", tc.path, tc.contentType, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s (%s): status = %d, want 413", tc.path, tc.contentType, resp.StatusCode)
		}
	}
	if got := svc.View().Snapshot.RefCount(); got != 3 {
		t.Errorf("oversized requests changed the store: %d references", got)
	}
}

// TestServeIngestWhileQuerying drives concurrent readers against the HTTP
// API while a writer streams ingest batches, under -race. Each reader
// checks every response is internally consistent and that the snapshot
// version it observes never goes backwards.
func TestServeIngestWhileQuerying(t *testing.T) {
	_, ts := newTestServer(t, personStore())
	const batches = 8
	const readers = 4

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastVersion := 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(map[string]ReconQuery{
					"q0": {Query: "Alice Smith", Type: schema.ClassPerson,
						Properties: []QueryProperty{{PID: schema.AttrEmail, V: json.RawMessage(`"asmith@cs.example.edu"`)}}},
				})
				resp, err := http.Post(ts.URL+"/reconcile", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				var out map[string]ReconResult
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Errorf("reader %d: decode: %v", r, err)
					return
				}
				v, err := strconv.Atoi(resp.Header.Get("X-Snapshot-Version"))
				if err != nil || v < lastVersion {
					t.Errorf("reader %d: snapshot version %q went backwards from %d", r, resp.Header.Get("X-Snapshot-Version"), lastVersion)
					return
				}
				lastVersion = v
				res := out["q0"]
				if len(res.Result) == 0 {
					t.Errorf("reader %d: Alice vanished mid-ingest", r)
					return
				}
				if top := res.Result[0]; top.ID != "0" || top.Score < 99 {
					t.Errorf("reader %d: top candidate %+v, want stable id 0", r, top)
					return
				}

				// Entity reads from the same published view are consistent
				// with themselves.
				var ent EntityDoc
				eresp, err := http.Get(ts.URL + "/entity/0")
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				err = json.NewDecoder(eresp.Body).Decode(&ent)
				eresp.Body.Close()
				if err != nil || ent.Canonical != 0 || len(ent.Members) < 2 {
					t.Errorf("reader %d: entity/0 = %+v err=%v", r, ent, err)
					return
				}
			}
		}(r)
	}

	for b := 0; b < batches; b++ {
		refs := []IngestRef{
			{Class: schema.ClassPerson, Atomic: map[string][]string{
				schema.AttrName:  {fmt.Sprintf("Person %d", b)},
				schema.AttrEmail: {fmt.Sprintf("p%d@batch.example.edu", b)},
			}},
			{Class: schema.ClassPerson, Atomic: map[string][]string{
				schema.AttrName:  {fmt.Sprintf("P. %d", b)},
				schema.AttrEmail: {fmt.Sprintf("p%d@batch.example.edu", b)},
			}},
		}
		resp, err := http.Post(ts.URL+"/ingest", "application/json", ingestBody(refs))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest batch %d: status %d", b, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()

	// All batches landed (the initial store counts as the first); the
	// duplicate pairs in each batch merged.
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Ingest.Batches != batches+1 || m.Snapshot.References != 3+2*batches {
		t.Errorf("metrics after ingest: %+v", m)
	}
	if m.Queries == 0 || m.QueryLatency.Count == 0 || m.Candidates.Max == 0 {
		t.Errorf("query metrics not recorded: %+v", m)
	}
	out, _ := postReconcile(t, ts.URL, map[string]ReconQuery{
		"q0": {Query: "Person 3", Type: schema.ClassPerson,
			Properties: []QueryProperty{{PID: schema.AttrEmail, V: json.RawMessage(`"p3@batch.example.edu"`)}}},
	})
	res := out["q0"]
	if len(res.Result) == 0 || !res.Result[0].Match {
		t.Errorf("ingested person not findable after the run: %+v", res)
	}
}

// TestServeTypelessQuery exercises the fan-out path: no type constraint
// queries every class and re-merges.
func TestServeTypelessQuery(t *testing.T) {
	store := personStore()
	store.Add(reference.New(schema.ClassVenue).
		AddAtomic(schema.AttrName, "Conference on Examples"))
	_, ts := newTestServer(t, store)
	out, _ := postReconcile(t, ts.URL, map[string]ReconQuery{
		"q0": {Query: "Bob Jones"},
		"q1": {Query: "Conference on Examples"},
	})
	if res := out["q0"]; len(res.Result) == 0 || res.Result[0].ID != "2" {
		t.Errorf("typeless person query: %+v", res)
	}
	if res := out["q1"]; len(res.Result) == 0 || res.Result[0].Type[0].ID != schema.ClassVenue {
		t.Errorf("typeless venue query: %+v", res)
	}
}

func TestServeQueryConfig(t *testing.T) {
	svc, err := NewFromStore(Config{
		Schema: schema.PIM(),
		Recon:  recon.Config{Evidence: recon.EvidenceContact},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Empty service is ready and answers with no candidates.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("readyz on empty service = %d", r.StatusCode)
	}
	out, _ := postReconcile(t, ts.URL, map[string]ReconQuery{"q0": {Query: "anyone", Type: schema.ClassPerson}})
	if res := out["q0"]; len(res.Result) != 0 {
		t.Errorf("empty service returned candidates: %+v", res)
	}
}
