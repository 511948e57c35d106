package serve

// End-to-end coverage for the OpenRefine ecosystem surface added with the
// traffic-surface PR: properties-filtered reconcile (unknown pids ignored
// per spec), suggest/preview round-trips, propose-properties, and data
// extension against the Cora gold duplicates.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"refrecon/internal/datagen/cora"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func TestServeManifestAdvertisesEcosystemSurface(t *testing.T) {
	_, ts := newTestServer(t, personStore())
	var m Manifest
	getJSON(t, ts.URL+"/", &m)
	if m.Preview == nil || !strings.Contains(m.Preview.URL, "/preview/{{id}}") || m.Preview.Width <= 0 || m.Preview.Height <= 0 {
		t.Errorf("preview block missing or incomplete: %+v", m.Preview)
	}
	if m.Suggest == nil || m.Suggest.Entity == nil || m.Suggest.Entity.ServicePath != "/suggest/entity" {
		t.Errorf("suggest block missing or incomplete: %+v", m.Suggest)
	}
	if m.Extend == nil || m.Extend.ProposeProperties == nil || m.Extend.ProposeProperties.ServicePath != "/properties" {
		t.Errorf("extend block missing or incomplete: %+v", m.Extend)
	}
}

// TestServePropertiesFilter pins the spec behavior for the properties
// array: known atomic pids constrain the match, unknown pids are ignored
// (not errors), and in a typeless fan-out a pid foreign to one class
// still lets that class score.
func TestServePropertiesFilter(t *testing.T) {
	_, ts := newTestServer(t, personStore())

	// A discriminating known property: Bob's email pushes Bob ahead of the
	// name-only match.
	out, _ := postReconcile(t, ts.URL, map[string]ReconQuery{
		"q0": {Type: schema.ClassPerson, Properties: []QueryProperty{
			{PID: schema.AttrEmail, V: json.RawMessage(`"bjones@ee.example.edu"`)},
		}},
	})
	if len(out["q0"].Result) == 0 || out["q0"].Result[0].Name != "Bob Jones" {
		t.Fatalf("email property did not select Bob Jones: %+v", out["q0"].Result)
	}

	// An unknown pid alongside it must be ignored per spec, not turned
	// into a per-query error: same result as above.
	withUnknown, _ := postReconcile(t, ts.URL, map[string]ReconQuery{
		"q0": {Type: schema.ClassPerson, Properties: []QueryProperty{
			{PID: schema.AttrEmail, V: json.RawMessage(`"bjones@ee.example.edu"`)},
			{PID: "no-such-field", V: json.RawMessage(`"whatever"`)},
		}},
	})
	if len(withUnknown["q0"].Result) == 0 || withUnknown["q0"].Result[0].Name != "Bob Jones" {
		t.Fatalf("unknown pid changed the result: %+v", withUnknown["q0"].Result)
	}

	// Typeless fan-out with a Person-only pid: Person entities must still
	// be scored (the pid is simply ignored for Article and Venue).
	fanout, _ := postReconcile(t, ts.URL, map[string]ReconQuery{
		"q0": {Query: "Alice Smith", Properties: []QueryProperty{
			{PID: schema.AttrEmail, V: json.RawMessage(`"asmith@cs.example.edu"`)},
		}},
	})
	if len(fanout["q0"].Result) == 0 {
		t.Fatal("typeless fan-out with a class-specific property returned nothing")
	}

	// Collective mode ignores unknown pids the same way.
	coll, _ := postReconcile(t, ts.URL, map[string]ReconQuery{
		"q0": {Query: "Alice Smith", Type: schema.ClassPerson, Mode: ModeCollective,
			Properties: []QueryProperty{{PID: "no-such-field", V: json.RawMessage(`"x"`)}}},
	})
	if len(coll["q0"].Result) == 0 {
		t.Fatalf("collective query with unknown pid failed: %+v", coll["q0"])
	}
}

func TestServeSuggestRoundTrip(t *testing.T) {
	svc, ts := newTestServer(t, personStore())

	var got SuggestResult
	resp := getJSON(t, ts.URL+"/suggest/entity?prefix="+url.QueryEscape("ali"), &got)
	if resp.Header.Get("X-Snapshot-Version") == "" {
		t.Error("suggest response missing X-Snapshot-Version")
	}
	if len(got.Result) != 1 || got.Result[0].Name != "Alice Smith" {
		t.Fatalf("suggest 'ali' = %+v, want the Alice Smith entity", got.Result)
	}
	if got.Result[0].Description == "" {
		t.Error("suggest hit has no description")
	}
	// The id must be usable against /entity and /preview.
	if _, err := strconv.Atoi(got.Result[0].ID); err != nil {
		t.Fatalf("suggest id %q is not a reference id", got.Result[0].ID)
	}

	// The variant spelling indexes to the same entity: "a. s" prefixes
	// "A. Smith", one of the merged entity's name values.
	var variant SuggestResult
	getJSON(t, ts.URL+"/suggest/entity?prefix="+url.QueryEscape("a. s"), &variant)
	if len(variant.Result) != 1 || variant.Result[0].ID != got.Result[0].ID {
		t.Fatalf("variant-spelling suggest = %+v, want same entity as %q", variant.Result, got.Result[0].ID)
	}

	// Empty prefix suggests nothing; limit bounds the hits.
	var empty SuggestResult
	getJSON(t, ts.URL+"/suggest/entity", &empty)
	if len(empty.Result) != 0 {
		t.Errorf("empty prefix returned %d hits", len(empty.Result))
	}
	if n := svc.Metrics().SuggestRequests; n < 3 {
		t.Errorf("suggestRequests = %d, want >= 3", n)
	}
}

func TestServePreviewRoundTrip(t *testing.T) {
	svc, ts := newTestServer(t, personStore())
	resp, err := http.Get(ts.URL + "/preview/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preview status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("preview content-type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	doc := string(body)
	for _, want := range []string{"Alice Smith", "asmith@cs.example.edu", schema.ClassPerson} {
		if !strings.Contains(doc, want) {
			t.Errorf("preview missing %q:\n%s", want, doc)
		}
	}

	// Out-of-range and unparseable ids fail cleanly.
	for path, want := range map[string]int{"/preview/9999": http.StatusNotFound, "/preview/x": http.StatusBadRequest} {
		r2, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != want {
			t.Errorf("%s status %d, want %d", path, r2.StatusCode, want)
		}
	}
	if n := svc.Metrics().PreviewRequests; n != 3 {
		t.Errorf("previewRequests = %d, want 3", n)
	}
}

func TestServeProposeProperties(t *testing.T) {
	_, ts := newTestServer(t, personStore())
	var doc ProposeDoc
	getJSON(t, ts.URL+"/properties?type="+schema.ClassArticle, &doc)
	got := make(map[string]bool)
	for _, p := range doc.Properties {
		got[p.ID] = true
	}
	for _, want := range []string{schema.AttrTitle, schema.AttrYear, schema.AttrPages} {
		if !got[want] {
			t.Errorf("propose(%s) missing %q: %+v", schema.ClassArticle, want, doc.Properties)
		}
	}
	if got[schema.AttrAuthoredBy] {
		t.Error("propose lists an association attribute; only atomic values are extendable")
	}
	var unknown ProposeDoc
	getJSON(t, ts.URL+"/properties?type=Nope", &unknown)
	if len(unknown.Properties) != 0 {
		t.Errorf("unknown type proposed %+v", unknown.Properties)
	}
}

// TestServeDataExtensionCora reconciles Cora gold duplicates, then
// extends the matched ids and checks the returned values are the unioned
// member attributes of the right entities.
func TestServeDataExtensionCora(t *testing.T) {
	gen, err := cora.Generate(cora.Default(0.05))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, gen.Store)

	// Pick an article entity with >1 member (a resolved gold duplicate)
	// from the published snapshot.
	var entID string
	var wantTitles []string
	for _, ent := range svc.View().Snapshot.Entities() {
		if ent.Class == schema.ClassArticle && len(ent.Members) > 1 {
			entID = strconv.Itoa(int(ent.Canonical))
			wantTitles = ent.Atomic[schema.AttrTitle]
			break
		}
	}
	if entID == "" {
		t.Fatal("no multi-member article entity in the Cora snapshot")
	}

	// Extension via POST JSON envelope.
	req := ExtendRequest{
		IDs:        []string{entID, "999999", "bogus"},
		Properties: []ExtendProperty{{ID: schema.AttrTitle}, {ID: schema.AttrYear}, {ID: "no-such-pid"}},
	}
	body, _ := json.Marshal(map[string]any{"extend": req})
	resp, err := http.Post(ts.URL+"/reconcile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extend status %d", resp.StatusCode)
	}
	var ext ExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&ext); err != nil {
		t.Fatal(err)
	}
	if len(ext.Meta) != 3 || ext.Meta[0].ID != schema.AttrTitle {
		t.Fatalf("extend meta = %+v", ext.Meta)
	}
	row := ext.Rows[entID]
	if row == nil {
		t.Fatalf("no row for entity %s: %+v", entID, ext.Rows)
	}
	var gotTitles []string
	for _, cell := range row[schema.AttrTitle] {
		gotTitles = append(gotTitles, cell.Str)
	}
	if len(gotTitles) != len(wantTitles) {
		t.Fatalf("extend titles = %v, want %v", gotTitles, wantTitles)
	}
	if len(row["no-such-pid"]) != 0 {
		t.Errorf("unknown pid returned values: %+v", row["no-such-pid"])
	}
	// Unknown/bogus ids still get (empty) rows, not errors.
	for _, id := range []string{"999999", "bogus"} {
		r, ok := ext.Rows[id]
		if !ok {
			t.Errorf("no row for unknown id %s", id)
			continue
		}
		for pid, cells := range r {
			if len(cells) != 0 {
				t.Errorf("unknown id %s has values for %s: %+v", id, pid, cells)
			}
		}
	}

	// Extension via form value on the same endpoint.
	rawExtend, _ := json.Marshal(req)
	formResp, err := http.PostForm(ts.URL+"/reconcile", url.Values{"extend": {string(rawExtend)}})
	if err != nil {
		t.Fatal(err)
	}
	defer formResp.Body.Close()
	var ext2 ExtendResponse
	if err := json.NewDecoder(formResp.Body).Decode(&ext2); err != nil {
		t.Fatal(err)
	}
	if len(ext2.Rows[entID][schema.AttrTitle]) != len(wantTitles) {
		t.Errorf("form-value extend disagrees with JSON-body extend")
	}
	if n := svc.Metrics().ExtendRequests; n != 2 {
		t.Errorf("extendRequests = %d, want 2", n)
	}
}

// TestNameLikeAttributeIsOneRule: on a schema with neither a name nor a
// title attribute, the attribute a free-text query binds to, the one an
// entity is labelled by and the one autocomplete indexes are the same —
// schema.Class.NameAttr, here the first declared atomic attribute, which
// is not the alphabetically first.
func TestNameLikeAttributeIsOneRule(t *testing.T) {
	part := &schema.Class{Name: "Part", Attrs: []schema.Attribute{
		{Name: "label", Kind: schema.Atomic},
		{Name: "code", Kind: schema.Atomic},
	}}
	if got := part.NameAttr(); got != "label" {
		t.Fatalf("NameAttr = %q, want the first declared atomic attribute", got)
	}
	store := reference.NewStore()
	store.Add(reference.New("Part").AddAtomic("label", "Widget Prime").AddAtomic("code", "AAA-1"))
	store.Add(reference.New("Part").AddAtomic("label", "Gadget Deluxe").AddAtomic("code", "BBB-2"))
	svc, err := NewFromStore(Config{Schema: schema.MustNew(part)}, store)
	if err != nil {
		t.Fatal(err)
	}

	cands, err := svc.Query(ReconQuery{Query: "Widget Prime", Type: "Part"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || cands[0].Entity.Canonical != 0 || cands[0].Score < 0.99 {
		t.Fatalf("free-text query did not bind to label: %+v", cands)
	}
	if got := cands[0].Entity.Name(); got != "Widget Prime" {
		t.Errorf("Entity.Name = %q, want the label the query bound to", got)
	}
	hits := svc.suggest(svc.View(), "widg", 0).Result
	if len(hits) != 1 || hits[0].ID != "0" || hits[0].Name != "Widget Prime" {
		t.Errorf("suggest 'widg' = %+v, want entity 0 under its label", hits)
	}
	if hits := svc.suggest(svc.View(), "aaa", 0).Result; len(hits) != 0 {
		t.Errorf("suggest 'aaa' = %+v: the code is not the name-like attribute", hits)
	}
}

// TestRequestAnswersFromOneSnapshot: a request loads the view once and its
// query, extend and suggest answers all come from that view, even when an
// ingest publishes a newer snapshot with a matching entity before they run
// (canonical ids are only meaningful against the version that produced
// them, and the X-Snapshot-Version header names the loaded view's).
func TestRequestAnswersFromOneSnapshot(t *testing.T) {
	part := &schema.Class{Name: "Part", Attrs: []schema.Attribute{{Name: "label", Kind: schema.Atomic}}}
	store := reference.NewStore()
	store.Add(reference.New("Part").AddAtomic("label", "Widget Prime"))
	svc, err := NewFromStore(Config{Schema: schema.MustNew(part)}, store)
	if err != nil {
		t.Fatal(err)
	}
	pinned := svc.View()
	if _, err := svc.Ingest([]IngestRef{{Class: "Part", Atomic: map[string][]string{"label": {"Widget Deluxe"}}}}); err != nil {
		t.Fatal(err)
	}
	live := svc.View()
	if live.Snapshot.Version <= pinned.Snapshot.Version {
		t.Fatalf("ingest did not publish: version %d after %d", live.Snapshot.Version, pinned.Snapshot.Version)
	}

	q := ReconQuery{Query: "Widget Deluxe", Type: "Part"}
	ext := ExtendRequest{IDs: []string{"1"}, Properties: []ExtendProperty{{ID: "label"}}}
	for _, tc := range []struct {
		name     string
		v        *View
		entities int
	}{{"pinned", pinned, 1}, {"live", live, 2}} {
		cands, err := svc.query(tc.v, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != tc.entities {
			t.Errorf("%s query: %d candidates, want %d", tc.name, len(cands), tc.entities)
		}
		for _, c := range cands {
			if tc.v.Snapshot.EntityOf(c.Entity.Canonical) != c.Entity {
				t.Errorf("%s query: candidate %d is not an entity of version %d", tc.name, c.Entity.Canonical, tc.v.Snapshot.Version)
			}
		}
		if hits := svc.suggest(tc.v, "widg", 0).Result; len(hits) != tc.entities {
			t.Errorf("%s suggest: %d hits, want %d", tc.name, len(hits), tc.entities)
		}
		// Reference 1 exists only in the newer snapshot.
		if cells := svc.extend(tc.v, ext).Rows["1"]["label"]; len(cells) != tc.entities-1 {
			t.Errorf("%s extend of the ingested reference: %d cells, want %d", tc.name, len(cells), tc.entities-1)
		}
	}
}
