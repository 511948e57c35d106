package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"refrecon/internal/datagen/pim"
	"refrecon/internal/dataset"
	"refrecon/internal/schema"
)

// FuzzReconcileCodec sends arbitrary bytes to /reconcile, both as the
// queries form value and as a raw JSON body (where an {"extend": …}
// envelope reaches data extension), over a small ingested PIM store. Any
// input is answered 200 or 400 with a JSON body: hostile ids, classes,
// modes and property values reach the snapshot's reference and entity
// lookups, and none of them may panic or answer 5xx.
func FuzzReconcileCodec(f *testing.F) {
	g, err := pim.Generate(pim.DatasetA(0.02))
	if err != nil {
		f.Fatal(err)
	}
	svc, err := NewFromStore(Config{Schema: schema.PIM(), Name: "refrecon-fuzz"}, seedOf(g.Store))
	if err != nil {
		f.Fatal(err)
	}
	h := svc.Handler()
	person := g.Store.Get(g.Store.ByClass(schema.ClassPerson)[0])
	name, last := person.FirstAtomic(schema.AttrName), g.Store.Len()-1
	for _, seed := range []string{
		fmt.Sprintf(`{"q0":{"query":%q,"type":"Person"}}`, name),
		fmt.Sprintf(`{"q0":{"query":%q}}`, name),
		fmt.Sprintf(`{"q0":{"query":%q,"type":"Person","mode":"collective","maxNodes":3}}`, name),
		fmt.Sprintf(`{"q0":{"query":"reconciliation","type":"Article","mode":"collective","properties":[{"pid":%q,"v":["%d","%d","-1"]}]}}`, schema.AttrAuthoredBy, person.ID, last),
		fmt.Sprintf(`{"q0":{"type":"Article","mode":"collective","properties":[{"pid":%q,"v":"99999999999999999999"}]}}`, schema.AttrAuthoredBy),
		fmt.Sprintf(`{"q0":{"type":"Person","properties":[{"pid":%q,"v":{"id":"%d"}},{"pid":"nope","v":1}]}}`, schema.AttrEmail, last+1),
		fmt.Sprintf(`{"extend":{"ids":["%d","%d","-3","x"],"properties":[{"id":%q},{"id":"nope"}]}}`, person.ID, last+1, schema.AttrName),
		`{"q0":{"query":"","type":"Nope","mode":"bogus","limit":-4}}`,
		`{}`, `null`, `[]`, `{"q0":null}`, ``, `{"extend":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		form := httptest.NewRequest(http.MethodGet, "/reconcile?"+url.Values{"queries": {string(data)}}.Encode(), nil)
		body := httptest.NewRequest(http.MethodPost, "/reconcile", strings.NewReader(string(data)))
		body.Header.Set("Content-Type", "application/json")
		for _, req := range []*http.Request{form, body} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %q: status %d: %s", req.Method, data, rec.Code, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %q: status %d, body is not JSON: %q", req.Method, data, rec.Code, rec.Body)
			}
		}
	})
}

// FuzzIngestBody POSTs arbitrary bytes to /ingest on a service seeded with
// a small PIM store. Any body is answered 200, 400 or 413 with a JSON
// body, never a 5xx or a panic, and a body that is not applied leaves the
// store's length and the published snapshot version as they were: a batch
// is applied whole or not at all. The same bytes are also a dataset file
// and the first body POSTed to a fresh service: the two doors either both
// admit them, into stores with equal records, or both refuse them.
func FuzzIngestBody(f *testing.F) {
	g, err := pim.Generate(pim.DatasetA(0.01))
	if err != nil {
		f.Fatal(err)
	}
	svc, err := NewFromStore(Config{Schema: schema.PIM(), Name: "refrecon-fuzz"}, seedOf(g.Store))
	if err != nil {
		f.Fatal(err)
	}
	h := svc.Handler()
	person := g.Store.ByClass(schema.ClassPerson)[0]
	article := g.Store.Get(g.Store.ByClass(schema.ClassArticle)[0])
	batch, err := json.Marshal([]IngestRef{ToIngestRef(g.Store.Get(person)), ToIngestRef(article)})
	if err != nil {
		f.Fatal(err)
	}
	last := g.Store.Len() - 1
	for _, seed := range []string{
		string(batch),
		fmt.Sprintf(`{"references":%s}`, batch),
		fmt.Sprintf(`{"name":"A","references":[{"id":7,"class":"Person","atomic":{"name":["Graphs | Networks","Liddell, Alice"]},"assoc":{%q:[%d]}}]}`, schema.AttrCoAuthor, person),
		fmt.Sprintf(`[{"class":"Article","atomic":{"title":["a \"quoted\"\ntitle"]},"assoc":{%q:[%d,%d]}}]`, schema.AttrAuthoredBy, person, last+1),
		fmt.Sprintf(`[{"class":"Person","assoc":{%q:[-3]}}]`, schema.AttrCoAuthor),
		fmt.Sprintf(`[{"class":"Person","assoc":{%q:[%d]}}]`, schema.AttrCoAuthor, last+2),
		fmt.Sprintf(`[{"class":"Person","assoc":{%q:[%d]}}]`, schema.AttrCoAuthor, article.ID),
		fmt.Sprintf(`[{"class":"Person","assoc":{%q:["x"]}}]`, schema.AttrName),
		`[{"class":"Nope"}]`, `[{"class":"Person","atomic":{"nope":["x"]}}]`, `[{}]`,
		`{"references":[]}`, `{"references":null}`, `[]`, `null`, `{}`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, version := svc.store.Len(), svc.view.Load().Snapshot.Version
		req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(string(data)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%q: status %d: %s", data, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%q: status %d, body is not JSON: %q", data, rec.Code, rec.Body)
		}
		fresh, err := New(Config{Schema: schema.PIM()})
		if err != nil {
			t.Fatal(err)
		}
		frec := httptest.NewRecorder()
		fresh.Handler().ServeHTTP(frec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(data)))
		ds, err := dataset.ReadJSON(bytes.NewReader(data), schema.PIM())
		if (frec.Code == http.StatusOK) != (err == nil) {
			t.Fatalf("%q: a fresh /ingest answers %d, dataset.ReadJSON %v", data, frec.Code, err)
		}
		if err == nil && !reflect.DeepEqual(storeRecords(ds.Store), storeRecords(fresh.store)) {
			t.Fatalf("%q: dataset.ReadJSON and /ingest admit different stores", data)
		}
		if rec.Code == http.StatusOK {
			return
		}
		if got := svc.store.Len(); got != refs {
			t.Fatalf("%q: status %d, but the store grew from %d to %d references", data, rec.Code, refs, got)
		}
		if got := svc.view.Load().Snapshot.Version; got != version {
			t.Fatalf("%q: status %d, but the snapshot version moved from %d to %d", data, rec.Code, version, got)
		}
	})
}
