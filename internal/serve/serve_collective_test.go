package serve

// End-to-end coverage of the collective query mode: manifest
// advertisement, the reconcile handler's mode routing with association
// properties, budget-knob degradation to the attribute-only fallback, and
// the per-mode /metrics split.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// coAuthorStore builds the motivating collective fixture: two Smiths
// whose names tie against the query "J. Smith", separated only by who
// they co-author with.
func coAuthorStore() (store *reference.Store, jane, john, alice reference.ID) {
	store = reference.NewStore()
	jane = store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Jane Smith"))
	john = store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "John Smith"))
	alice = store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Alice Wu"))
	bob := store.Add(reference.New(schema.ClassPerson).
		AddAtomic(schema.AttrName, "Bob Lee"))
	store.Get(jane).AddAssoc(schema.AttrCoAuthor, alice)
	store.Get(john).AddAssoc(schema.AttrCoAuthor, bob)
	return store, jane, john, alice
}

func newCollectiveServer(t *testing.T) (*Service, *httptest.Server, reference.ID, reference.ID, reference.ID) {
	t.Helper()
	store, jane, john, alice := coAuthorStore()
	svc, err := NewFromStore(Config{
		Schema: schema.PIM(),
		Name:   "refrecon-test",
		Recon:  recon.DefaultConfig(),
	}, seedOf(store))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, jane, john, alice
}

// reconRaw is the per-query result envelope with the error alternative,
// as the handler actually emits it.
type reconRaw struct {
	Result []ReconCandidate `json:"result"`
	Error  string           `json:"error"`
}

func postReconcileRaw(t *testing.T, base string, queries map[string]ReconQuery) (map[string]reconRaw, *http.Response) {
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
	var out map[string]reconRaw
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp
}

func TestServeCollectiveManifest(t *testing.T) {
	_, ts, _, _, _ := newCollectiveServer(t)
	var m Manifest
	getJSON(t, ts.URL+"/", &m)
	if m.Collective == nil {
		t.Fatal("manifest advertises no collective section")
	}
	modes := make(map[string]bool)
	for _, mode := range m.Collective.Modes {
		modes[mode] = true
	}
	if !modes[ModeAttribute] || !modes[ModeCollective] {
		t.Errorf("modes = %v, want both %q and %q", m.Collective.Modes, ModeAttribute, ModeCollective)
	}
	if m.Collective.MaxNodes != 512 || m.Collective.MaxHops != 2 || m.Collective.MaxNeighbors != 8 {
		t.Errorf("budget defaults = %+v, want 512/2/8", m.Collective)
	}
	if m.Collective.BudgetMS != 250 {
		t.Errorf("BudgetMS = %v, want the 250ms serving default", m.Collective.BudgetMS)
	}
}

// TestServeCollectiveReconcile drives the full loop through the HTTP
// handler: an attribute query ties the two Smiths; the same query in
// collective mode with a coAuthor property ranks the co-author's Smith
// first. The /metrics document must account for the two modes separately.
func TestServeCollectiveReconcile(t *testing.T) {
	_, ts, jane, john, alice := newCollectiveServer(t)

	attrOut, _ := postReconcileRaw(t, ts.URL, map[string]ReconQuery{
		"q0": {Query: "J. Smith", Type: schema.ClassPerson},
	})
	if len(attrOut["q0"].Result) < 2 {
		t.Fatalf("attribute query found %d candidates, want both Smiths", len(attrOut["q0"].Result))
	}
	if a, b := attrOut["q0"].Result[0], attrOut["q0"].Result[1]; a.Score != b.Score {
		t.Fatalf("fixture broken: attribute scores must tie, got %v vs %v", a.Score, b.Score)
	}

	collOut, resp := postReconcileRaw(t, ts.URL, map[string]ReconQuery{
		"q0": {
			Query: "J. Smith",
			Type:  schema.ClassPerson,
			Mode:  ModeCollective,
			Properties: []QueryProperty{
				{PID: schema.AttrCoAuthor, V: json.RawMessage(strconv.Itoa(int(alice)))},
			},
		},
	})
	if resp.Header.Get("X-Snapshot-Version") == "" {
		t.Error("collective response missing X-Snapshot-Version header")
	}
	res := collOut["q0"]
	if res.Error != "" {
		t.Fatalf("collective query failed: %s", res.Error)
	}
	if len(res.Result) < 2 {
		t.Fatalf("collective query found %d candidates, want both Smiths", len(res.Result))
	}
	if res.Result[0].ID != strconv.Itoa(int(jane)) {
		t.Errorf("top candidate = %+v, want Jane (id %d) first on shared co-author", res.Result[0], jane)
	}
	if res.Result[1].ID != strconv.Itoa(int(john)) {
		t.Errorf("runner-up = %+v, want John (id %d)", res.Result[1], john)
	}
	if res.Result[0].Score <= res.Result[1].Score {
		t.Errorf("relational evidence must break the tie: %v vs %v",
			res.Result[0].Score, res.Result[1].Score)
	}

	var met MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &met)
	if met.Queries != 2 {
		t.Errorf("queries = %d, want 2 (both modes count)", met.Queries)
	}
	if met.QueryLatency.Count != 1 {
		t.Errorf("attribute latency count = %d, want 1", met.QueryLatency.Count)
	}
	if met.CollectiveQueries != 1 || met.CollectiveLatency.Count != 1 {
		t.Errorf("collective split = %d queries / %d latencies, want 1/1",
			met.CollectiveQueries, met.CollectiveLatency.Count)
	}
	if met.CollectiveDegraded != 0 {
		t.Errorf("collectiveDegraded = %d, want 0", met.CollectiveDegraded)
	}
	if met.CollectiveExpansion.Count != 1 || met.CollectiveExpansion.Max == 0 {
		t.Errorf("expansion histogram = %+v, want one observation with nonzero size", met.CollectiveExpansion)
	}
}

// TestServeCollectiveBudgetKnobDegrades lowers the node budget to 1
// through the per-query knob: the query must degrade to the
// attribute-only result — same candidates, no error — and tick the
// degraded counter.
func TestServeCollectiveBudgetKnobDegrades(t *testing.T) {
	_, ts, _, _, alice := newCollectiveServer(t)

	attrOut, _ := postReconcileRaw(t, ts.URL, map[string]ReconQuery{
		"q0": {Query: "J. Smith", Type: schema.ClassPerson},
	})
	collOut, _ := postReconcileRaw(t, ts.URL, map[string]ReconQuery{
		"q0": {
			Query:    "J. Smith",
			Type:     schema.ClassPerson,
			Mode:     ModeCollective,
			MaxNodes: 1,
			Properties: []QueryProperty{
				{PID: schema.AttrCoAuthor, V: json.RawMessage(strconv.Itoa(int(alice)))},
			},
		},
	})
	if collOut["q0"].Error != "" {
		t.Fatalf("budget exhaustion must degrade, not error: %s", collOut["q0"].Error)
	}
	a, c := attrOut["q0"].Result, collOut["q0"].Result
	if len(a) != len(c) {
		t.Fatalf("degraded result has %d candidates, attribute baseline %d", len(c), len(a))
	}
	for i := range a {
		if a[i].ID != c[i].ID || a[i].Score != c[i].Score || a[i].Match != c[i].Match {
			t.Errorf("degraded candidate %d = %+v, want the attribute-only %+v", i, c[i], a[i])
		}
	}

	var met MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &met)
	if met.CollectiveDegraded != 1 {
		t.Errorf("collectiveDegraded = %d, want 1", met.CollectiveDegraded)
	}
}

// TestServeCollectiveErrors pins the failure surface: an unknown mode and
// a malformed association value come back as per-query errors (the batch
// itself still succeeds) and count as query errors, while an association
// id that does not resolve in the published snapshot is dropped as
// unmatched evidence — clients race ingest, so stale or too-new ids are
// routine, not errors.
func TestServeCollectiveErrors(t *testing.T) {
	_, ts, _, _, _ := newCollectiveServer(t)
	out, _ := postReconcileRaw(t, ts.URL, map[string]ReconQuery{
		"badMode": {Query: "J. Smith", Type: schema.ClassPerson, Mode: "turbo"},
		"badAssoc": {
			Query: "J. Smith",
			Type:  schema.ClassPerson,
			Mode:  ModeCollective,
			Properties: []QueryProperty{
				{PID: schema.AttrCoAuthor, V: json.RawMessage(`"not-an-id"`)},
			},
		},
		"unresolvedTarget": {
			Query: "J. Smith",
			Type:  schema.ClassPerson,
			Mode:  ModeCollective,
			Properties: []QueryProperty{
				{PID: schema.AttrCoAuthor, V: json.RawMessage("99")},
			},
		},
	})
	for _, key := range []string{"badMode", "badAssoc"} {
		if out[key].Error == "" {
			t.Errorf("%s: want a per-query error, got %+v", key, out[key])
		}
	}
	if out["unresolvedTarget"].Error != "" || len(out["unresolvedTarget"].Result) == 0 {
		t.Errorf("unresolvedTarget: want scored candidates with the id dropped, got %+v", out["unresolvedTarget"])
	}
	var met MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &met)
	if met.QueryErrors != 2 {
		t.Errorf("queryErrors = %d, want 2", met.QueryErrors)
	}
}
