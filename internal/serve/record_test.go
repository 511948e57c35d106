package serve

// Tests for the one reference record at the service boundary: the wire and
// log bytes it produces, the dataset-file promise in codec.go, the one
// schema check behind every site that used to carry its own, and the one
// way a reference enters a service.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"refrecon/internal/datagen/pim"
	"refrecon/internal/dataset"
	"refrecon/internal/durable"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// goldenBatch is one ingest body as a client sends it, and — byte for byte
// — the write-ahead-log payload the service stores for it. The bytes were
// produced by the service before IngestRef became reference.Record; a
// change to either is a wire or disk format change.
const goldenBatch = `[{"id":7,"class":"Person","source":"email","entity":"P1",` +
	`"atomic":{"email":["asmith@cs.example.edu"],"name":["Alice Smith","A. Smith"]},` +
	`"assoc":{"emailContact":[1]}},` +
	`{"class":"Person","atomic":{"name":["Bob \u003cJones\u003e \u0026 co"]}}]`

func TestIngestWireGolden(t *testing.T) {
	svc, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte(goldenBatch)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("golden batch: status %d", resp.StatusCode)
	}
	if len(svc.history) != 1 || svc.history[0].Kind != durable.KindBatch {
		t.Fatalf("history = %+v, want one batch record", svc.history)
	}
	if got := string(svc.history[0].Payload); got != goldenBatch {
		t.Errorf("logged payload changed:\n got %s\nwant %s", got, goldenBatch)
	}
	if got := svc.store.Get(0).Atomic(schema.AttrName); !reflect.DeepEqual(got, []string{"Alice Smith", "A. Smith"}) {
		t.Errorf("stored names = %v", got)
	}
}

// storeRecords renders a store as records, the comparable form.
func storeRecords(s *reference.Store) []reference.Record {
	out := make([]reference.Record, 0, s.Len())
	for _, r := range s.All() {
		out = append(out, r.Record())
	}
	return out
}

// seedOf renders a store as the seed NewFromStore ingests.
func seedOf(s *reference.Store) []IngestRef {
	out := make([]IngestRef, 0, s.Len())
	for _, r := range s.All() {
		out = append(out, ToIngestRef(r))
	}
	return out
}

// TestDatasetFileIsIngestBody holds codec.go to its promise: a dataset
// file written by cmd/pimgen is an /ingest body as it stands, and its
// "references" array is one too; either way the service's store equals the
// store dataset.ReadJSON builds from the same file.
func TestDatasetFileIsIngestBody(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.02))
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := (&dataset.Dataset{Name: "A", Store: g.Store}).WriteJSON(&file); err != nil {
		t.Fatal(err)
	}
	read, err := dataset.ReadJSON(bytes.NewReader(file.Bytes()), schema.PIM())
	if err != nil {
		t.Fatal(err)
	}
	want := storeRecords(read.Store)
	if len(want) == 0 || !reflect.DeepEqual(want, storeRecords(g.Store)) {
		t.Fatalf("dataset file does not round-trip the generated store (%d refs)", len(want))
	}
	var parts struct {
		References json.RawMessage `json:"references"`
	}
	if err := json.Unmarshal(file.Bytes(), &parts); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"whole file": file.Bytes(), "references array": parts.References} {
		svc, err := New(Config{Schema: schema.PIM()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
		if got := storeRecords(svc.store); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ingested store differs from dataset.ReadJSON's", name)
		}
	}
}

// TestBadRecordsAtEveryCheckSite drives one table of schema violations
// through every place that checks a record — a reconcile over a store
// (a commit's Store.Validate), an ingest batch (in process and over HTTP),
// a dataset file (dataset.ReadJSON), a replayed log record, a plain query
// and a collective query — which all reach reference.Record.Check, the
// four doors through Store.Admit. The sentinels and statuses are the ones
// each site has always answered with. The stored context is personStore:
// three persons, ids 0–2.
func TestBadRecordsAtEveryCheckSite(t *testing.T) {
	article := func(assoc map[string][]reference.ID) reference.Record {
		return reference.Record{Class: schema.ClassArticle, Atomic: map[string][]string{schema.AttrTitle: {"T"}}, Assoc: assoc}
	}
	cases := []struct {
		name string
		rec  reference.Record
		// okStored: valid as a stored reference; only a query refuses it.
		okStored bool
		// noStore: a store cannot hold the violation (AddAssoc drops a
		// negative target), so it cannot reach a reconcile.
		noStore bool
		// noQuery: a query cannot express the violation (it has no batch
		// to point forward into).
		noQuery bool
	}{
		{name: "unknown class", rec: reference.Record{Class: "Martian"}},
		{name: "unknown attribute", rec: reference.Record{Class: schema.ClassPerson, Atomic: map[string][]string{"shoeSize": {"42"}}}},
		{name: "association used as atomic", rec: reference.Record{Class: schema.ClassPerson, Atomic: map[string][]string{schema.AttrCoAuthor: {"x"}}}},
		{name: "atomic used as association", rec: reference.Record{Class: schema.ClassPerson, Assoc: map[string][]reference.ID{schema.AttrName: {0}}}},
		{name: "target out of range", rec: article(map[string][]reference.ID{schema.AttrAuthoredBy: {99}})},
		{name: "negative target", rec: article(map[string][]reference.ID{schema.AttrAuthoredBy: {-1}}), noStore: true},
		// The dataset-file door once dropped this link and admitted the rest.
		{name: "negative coAuthor link", rec: reference.Record{Class: schema.ClassPerson, Assoc: map[string][]reference.ID{schema.AttrCoAuthor: {-3}}}, noStore: true},
		{name: "target of wrong class", rec: article(map[string][]reference.ID{schema.AttrPublishedIn: {0}})},
		// The batch is [rec, a person]: id 4 is the person behind rec, a
		// legal forward reference for a store or a batch, but not a stored
		// reference a query could name.
		{name: "forward reference inside the batch", rec: article(map[string][]reference.ID{schema.AttrAuthoredBy: {4}}), okStored: true},
		{name: "forward reference to the wrong class", rec: article(map[string][]reference.ID{schema.AttrPublishedIn: {4}}), noQuery: true},
	}
	filler := reference.Record{Class: schema.ClassPerson, Atomic: map[string][]string{schema.AttrName: {"Dana White"}}}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batch := []IngestRef{tc.rec, filler}
			svc, ts := newTestServer(t, personStore())
			stored := svc.View() // the three persons, whatever is ingested below

			// Site 1: a reconcile validates its whole store.
			if !tc.noStore {
				store := personStore()
				for _, rec := range batch {
					store.Add(rec.Reference())
				}
				_, err := recon.New(schema.PIM(), recon.DefaultConfig()).Reconcile(store)
				if tc.okStored {
					if err != nil {
						t.Errorf("reconcile: %v, want success", err)
					}
				} else if !errors.Is(err, recon.ErrSchemaViolation) || errors.Is(err, recon.ErrBatchRejected) {
					t.Errorf("reconcile: %v, want ErrSchemaViolation alone", err)
				}
			}

			// Site 2: an ingest batch, all-or-nothing, over HTTP and in
			// process.
			resp, err := http.Post(ts.URL+"/ingest", "application/json", ingestBody(batch))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			_, err = svc.Ingest(batch)
			if tc.okStored {
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("ingest: err %v, status %d, want success", err, resp.StatusCode)
				}
			} else {
				if !errors.Is(err, recon.ErrBatchRejected) || !errors.Is(err, recon.ErrSchemaViolation) {
					t.Errorf("ingest: %v, want ErrBatchRejected and ErrSchemaViolation", err)
				}
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("ingest: status %d, want 400", resp.StatusCode)
				}
				if got := svc.View().Snapshot.RefCount(); got != 3 {
					t.Errorf("rejected batch left %d references, want 3", got)
				}
			}

			// Site 3: a dataset file holding the stored persons and then
			// the batch, read into an empty store.
			file, err := json.Marshal(reference.Batch{Name: "f", References: append(storeRecords(personStore()), batch...)})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := dataset.ReadJSON(bytes.NewReader(file), schema.PIM())
			if tc.okStored {
				if err != nil || ds.Store.Len() != 5 {
					t.Errorf("dataset file: %v, want five references", err)
				}
			} else if err == nil {
				t.Error("dataset file: admitted")
			}

			// Site 4: the batch as a logged record behind the stored
			// persons' batch; recovery replays it through the same door or
			// fails naming its ordinal.
			dir := t.TempDir()
			logged, err := NewFromStore(durableConfig(dir), seedOf(personStore()))
			if err != nil {
				t.Fatal(err)
			}
			payload, err := json.Marshal(batch)
			if err != nil {
				t.Fatal(err)
			}
			if err := logged.log.Append(durable.Record{Kind: durable.KindBatch, Ordinal: 2, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			crash(t, logged)
			recovered, err := New(durableConfig(dir))
			if tc.okStored {
				if err != nil {
					t.Fatalf("replay: %v, want success", err)
				}
				if got := recovered.store.Len(); got != 5 {
					t.Errorf("replay: %d references, want 5", got)
				}
				recovered.Close()
			} else if err == nil || !strings.Contains(err.Error(), "batch 2: reference 3: ") {
				t.Errorf("replay: %v, want an error naming batch 2 and its reference 3", err)
			}

			// Sites 5 and 6: the record as a query against the stored
			// persons. The plain matcher reads no associations, so only a
			// fault in the class or the atomic part is its to refuse.
			if tc.noQuery {
				return
			}
			q := recon.Query{Class: tc.rec.Class, Atomic: tc.rec.Atomic, Assoc: tc.rec.Assoc}
			if _, _, err := stored.Collective.Match(q); err == nil {
				t.Error("collective query: no error")
			}
			_, _, err = stored.Matcher.Match(q)
			if wantErr := len(tc.rec.Assoc) == 0; wantErr != (err != nil) {
				t.Errorf("plain query: err %v, want an error: %v", err, wantErr)
			}
		})
	}
}

// TestInitialStoreIsFirstBatch pins the one way in: starting a service
// over a store is starting it empty and ingesting the store's records, in
// memory and — through the log — across a crash.
func TestInitialStoreIsFirstBatch(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.02))
	if err != nil {
		t.Fatal(err)
	}
	batch := seedOf(g.Store)
	viaIngest, err := New(Config{Schema: schema.PIM()})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, viaIngest, [][]IngestRef{batch})
	want := viewFingerprint(t, viaIngest.View())
	wantStats := viaIngest.View().Snapshot.Stats

	check := func(name string, svc *Service) {
		t.Helper()
		v := svc.View()
		if got := viewFingerprint(t, v); got != want {
			t.Errorf("%s: view differs from New + Ingest", name)
		}
		if v.Snapshot.Version != 1 {
			t.Errorf("%s: version %d, want 1", name, v.Snapshot.Version)
		}
		if !reflect.DeepEqual(storeRecords(svc.store), storeRecords(g.Store)) {
			t.Errorf("%s: store differs from the initial store", name)
		}
		got := v.Snapshot.Stats
		if got.CandidatePairs != wantStats.CandidatePairs || got.GraphNodes != wantStats.GraphNodes ||
			got.GraphEdges != wantStats.GraphEdges || got.Engine.Merges != wantStats.Engine.Merges ||
			got.Engine.Steps != wantStats.Engine.Steps {
			t.Errorf("%s: stats %+v, want %+v", name, got, wantStats)
		}
	}

	inMemory, err := NewFromStore(Config{Schema: schema.PIM()}, batch)
	if err != nil {
		t.Fatal(err)
	}
	check("in memory", inMemory)
	if m := inMemory.Metrics(); m.Ingest.Batches != 1 || int(m.Ingest.References) != g.Store.Len() {
		t.Errorf("initial store not counted as one ingest batch: %+v", m.Ingest)
	}

	dir := t.TempDir()
	durableSvc, err := NewFromStore(durableConfig(dir), batch)
	if err != nil {
		t.Fatal(err)
	}
	check("durable", durableSvc)
	if len(durableSvc.history) != 1 || durableSvc.history[0].Ordinal != 1 {
		t.Fatalf("history = %d records, want the store as batch ordinal 1", len(durableSvc.history))
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(durableSvc.history[0].Payload, payload) {
		t.Error("the initial store's log record is not the ingest batch's")
	}
	crash(t, durableSvc)
	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.recovery.Mode != "replay" {
		t.Errorf("recovery mode %q, want replay", recovered.recovery.Mode)
	}
	check("after crash", recovered)
}

// TestDurableIncoherentCheckpointReplays rewrites the final checkpoint
// with a snapshot blob that is valid gob and passes the file's CRC but
// whose partitions name a reference it does not carry. DecodeSnapshot
// used to panic on it; recovery must get an error and replay instead.
func TestDurableIncoherentCheckpointReplays(t *testing.T) {
	batches := durBatches()
	dir := t.TempDir()
	svc, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc, batches)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	ck, err := durable.LatestCheckpoint(dir)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint after Close: %v", err)
	}
	// Gob matches fields by name, so this stands in for recon's wire form.
	var blob bytes.Buffer
	err = gob.NewEncoder(&blob).Encode(struct {
		Version    int
		Refs       []reference.Record
		Partitions map[string][][]reference.ID
		Assignment map[reference.ID]int
	}{
		Version:    len(batches),
		Refs:       []reference.Record{{Class: schema.ClassPerson}},
		Partitions: map[string][][]reference.ID{schema.ClassPerson: {{0, 7}, {}}},
		Assignment: map[reference.ID]int{0: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recon.DecodeSnapshot(blob.Bytes()); err == nil {
		t.Fatal("the incoherent blob decodes; the test would prove nothing")
	}
	ck.Snapshot = blob.Bytes()
	if _, err := durable.WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}

	truth := truthService(t, batches)
	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.recovery.Mode != "replay" {
		t.Errorf("recovery mode = %q, want replay", recovered.recovery.Mode)
	}
	if got, want := recovered.View().Snapshot.Version, len(batches); got != want {
		t.Errorf("recovered version = %d, want %d", got, want)
	}
	if got, want := viewFingerprint(t, recovered.View()), viewFingerprint(t, truth.View()); got != want {
		t.Errorf("replay after an incoherent checkpoint differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}
