package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"refrecon/internal/datagen/biblio"
	"refrecon/internal/durable"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// durBatches is the shared ingest history for the durability tests: three
// batches whose incremental evolution exercises merges within a batch,
// merges across batches (batch 2's A. Smith joins batch 1's Alice via the
// shared email), and an association (batch 3's article authored by ref 0).
func durBatches() [][]IngestRef {
	return [][]IngestRef{
		{
			{Class: schema.ClassPerson, Atomic: map[string][]string{
				schema.AttrName:  {"Alice Smith"},
				schema.AttrEmail: {"asmith@cs.example.edu"},
			}},
			{Class: schema.ClassPerson, Atomic: map[string][]string{
				schema.AttrName:  {"Bob Jones"},
				schema.AttrEmail: {"bjones@ee.example.edu"},
			}},
		},
		{
			{Class: schema.ClassPerson, Atomic: map[string][]string{
				schema.AttrName:  {"A. Smith"},
				schema.AttrEmail: {"asmith@cs.example.edu"},
			}},
		},
		{
			{Class: schema.ClassArticle, Atomic: map[string][]string{
				schema.AttrTitle: {"Reference Reconciliation in Complex Information Spaces"},
			}, Assoc: map[string][]reference.ID{
				schema.AttrAuthoredBy: {0},
			}},
			{Class: schema.ClassPerson, Atomic: map[string][]string{
				schema.AttrName: {"Carol White"},
			}},
		},
	}
}

func durableConfig(dir string) Config {
	return Config{Schema: schema.PIM(), DataDir: dir}
}

// viewFingerprint renders the published view's observable state — version,
// references, entity partition, and every pair-explain answer — into one
// deterministic string. Two services with equal fingerprints answer every
// read endpoint identically.
func viewFingerprint(t *testing.T, v *View) string {
	t.Helper()
	if v == nil {
		t.Fatal("no published view")
	}
	snap := v.Snapshot
	var b strings.Builder
	fmt.Fprintf(&b, "version=%d refs=%d\n", snap.Version, snap.RefCount())
	ents := snap.Entities()
	sort.Slice(ents, func(i, j int) bool { return ents[i].Canonical < ents[j].Canonical })
	for _, e := range ents {
		fmt.Fprintf(&b, "entity %s/%d members=%v\n", e.Class, e.Canonical, e.Members)
	}
	for a := 0; a < snap.RefCount(); a++ {
		for bb := a + 1; bb < snap.RefCount(); bb++ {
			exp, err := snap.Explain(reference.ID(a), reference.ID(bb))
			if err != nil {
				fmt.Fprintf(&b, "explain %d/%d err\n", a, bb)
				continue
			}
			fmt.Fprintf(&b, "explain %d/%d same=%v %s\n", a, bb, exp.Same, exp.String())
		}
	}
	return b.String()
}

// ingestAll pushes the batches through the service, failing on any error.
func ingestAll(t *testing.T, svc *Service, batches [][]IngestRef) {
	t.Helper()
	for i, b := range batches {
		if _, err := svc.Ingest(b); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
	}
}

// crash abandons a durable service the way SIGKILL would: the log file
// descriptor is closed (everything acknowledged is already fsynced) but no
// final checkpoint is written and the service is never used again.
func crash(t *testing.T, svc *Service) {
	t.Helper()
	if svc.log == nil {
		t.Fatal("crash: service has no log")
	}
	if err := svc.log.Close(); err != nil {
		t.Fatal(err)
	}
}

// truthService replays the same batches through a purely in-memory
// service — the uninterrupted run every recovery must match.
func truthService(t *testing.T, batches [][]IngestRef) *Service {
	t.Helper()
	svc, err := New(Config{Schema: schema.PIM()})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc, batches)
	return svc
}

// TestDurableKillPoints is the acceptance test: kill -9 after any batch's
// fsync point, restart from the same data dir, and the recovered service
// must publish the same X-Snapshot-Version and the same pair-decision
// fingerprint as an uninterrupted in-memory run of the same history.
func TestDurableKillPoints(t *testing.T) {
	batches := durBatches()
	for k := 0; k <= len(batches); k++ {
		t.Run(fmt.Sprintf("after%dBatches", k), func(t *testing.T) {
			truth := truthService(t, batches[:k])
			want := viewFingerprint(t, truth.View())

			dir := t.TempDir()
			svc, err := New(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, svc, batches[:k])
			crash(t, svc)

			recovered, err := New(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			if got := viewFingerprint(t, recovered.View()); got != want {
				t.Errorf("recovered state differs from uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
			}
			if got, want := recovered.View().Snapshot.Version, k; got != want {
				t.Errorf("recovered version = %d, want %d", got, want)
			}
			wantMode := "replay"
			if k == 0 {
				wantMode = "fresh"
			}
			if recovered.recovery.Mode != wantMode {
				t.Errorf("recovery mode = %q, want %q", recovered.recovery.Mode, wantMode)
			}
		})
	}
}

// TestDurableCleanShutdownFastRestore checks the Close → reopen path: the
// final checkpoint makes the next start restore without replaying, and the
// restored service answers HTTP reads with the same X-Snapshot-Version.
func TestDurableCleanShutdownFastRestore(t *testing.T) {
	batches := durBatches()
	dir := t.TempDir()
	svc, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc, batches)
	want := viewFingerprint(t, svc.View())
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(batches[0]); !errors.Is(err, ErrUnavailable) {
		t.Errorf("ingest after Close = %v, want ErrUnavailable", err)
	}

	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.recovery.Mode != "checkpoint" {
		t.Errorf("recovery mode = %q, want checkpoint", recovered.recovery.Mode)
	}
	if got := viewFingerprint(t, recovered.View()); got != want {
		t.Errorf("fast restore differs from pre-shutdown state:\nwant:\n%s\ngot:\n%s", want, got)
	}

	ts := httptest.NewServer(recovered.Handler())
	defer ts.Close()
	var ent EntityDoc
	resp := getJSON(t, ts.URL+"/entity/0", &ent)
	if got := resp.Header.Get("X-Snapshot-Version"); got != fmt.Sprint(len(batches)) {
		t.Errorf("X-Snapshot-Version = %q, want %d", got, len(batches))
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Durability == nil || m.Durability.Recovery != "checkpoint" {
		t.Errorf("metrics durability = %+v, want recovery=checkpoint", m.Durability)
	}

	// The restored service keeps ingesting where the old one stopped.
	resp2, err := recovered.Ingest([]IngestRef{{Class: schema.ClassPerson,
		Atomic: map[string][]string{schema.AttrName: {"Dave Green"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(batches) + 1; resp2.SnapshotVersion != want {
		t.Errorf("post-restore ingest version = %d, want %d", resp2.SnapshotVersion, want)
	}
}

// TestDurableFastRestoreServesCollective checks that the view a checkpoint
// restore publishes is a whole view: before any further ingest republishes,
// a collective-mode query gets the answer it got before the clean shutdown
// and the manifest still advertises the collective block. (restoreFast
// once built its view by hand, without the collective matcher, and the
// first collective query after a clean restart dereferenced nil.)
func TestDurableFastRestoreServesCollective(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc, durBatches())
	q := ReconQuery{Query: "Alice Smith", Type: schema.ClassPerson, Mode: ModeCollective}
	wantCands, err := svc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantCands) == 0 {
		t.Fatal("collective query found no candidate before the restart")
	}
	want := toWire(wantCands)
	wantManifest := svc.Manifest("").Collective
	if wantManifest == nil {
		t.Fatal("manifest has no collective block before the restart")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.recovery.Mode != "checkpoint" {
		t.Fatalf("recovery mode = %q, want checkpoint", recovered.recovery.Mode)
	}
	gotCands, err := recovered.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := toWire(gotCands); !reflect.DeepEqual(got, want) {
		t.Errorf("collective answer after fast restore:\nwant %+v\ngot  %+v", want, got)
	}
	if got := recovered.Manifest("").Collective; !reflect.DeepEqual(got, wantManifest) {
		t.Errorf("manifest collective block after fast restore = %+v, want %+v", got, wantManifest)
	}
}

// TestDurableTornTail appends a partial record to the last segment (a
// crash mid-write) and checks recovery truncates it and lands on the state
// of the last complete batch.
func TestDurableTornTail(t *testing.T) {
	batches := durBatches()
	dir := t.TempDir()
	svc, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc, batches[:2])
	crash(t, svc)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible header promising a payload that never arrived.
	if _, err := f.Write([]byte{1, 3, 0, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	truth := truthService(t, batches[:2])
	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got, want := viewFingerprint(t, recovered.View()), viewFingerprint(t, truth.View()); got != want {
		t.Errorf("torn-tail recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestDurableTruncatedCheckpoint corrupts the newest checkpoint and checks
// recovery falls back to the previous generation plus the retained log —
// which also exercises duplicate replay, since the older checkpoint's
// records overlap the segments.
func TestDurableTruncatedCheckpoint(t *testing.T) {
	batches := durBatches()
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CheckpointEvery = 1 // checkpoint after every batch
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc, batches)
	crash(t, svc)

	cks, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 {
		t.Fatalf("checkpoint generations = %d, want 2 (%v)", len(cks), cks)
	}
	sort.Strings(cks)
	newest := cks[len(cks)-1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	truth := truthService(t, batches)
	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.recovery.Mode != "replay" {
		t.Errorf("recovery mode = %q, want replay (older checkpoint + log tail)", recovered.recovery.Mode)
	}
	if recovered.recovery.Batches != len(batches) {
		t.Errorf("recovery batches = %d, want %d (checkpoint records + deduped tail)",
			recovered.recovery.Batches, len(batches))
	}
	if got, want := viewFingerprint(t, recovered.View()), viewFingerprint(t, truth.View()); got != want {
		t.Errorf("checkpoint-fallback recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if got, want := recovered.View().Snapshot.Version, len(batches); got != want {
		t.Errorf("recovered version = %d, want %d", got, want)
	}
}

// TestDurablePoisonLifecycleReplay pins the lifecycle-marker contract: a
// cancelled commit poisons the session live, and a crash-replay must
// reproduce that same evolution — poison marker and all — so the rebuilt
// state and version match the surviving process exactly.
func TestDurablePoisonLifecycleReplay(t *testing.T) {
	batches := durBatches()
	dir := t.TempDir()
	svc, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.ingest(ctx, batches[1]); !errors.Is(err, recon.ErrCanceled) {
		t.Fatalf("cancelled ingest = %v, want recon.ErrCanceled", err)
	}
	if got := svc.Metrics().SessionPoisoned; got != 1 {
		t.Errorf("sessionPoisoned = %d, want 1", got)
	}
	// The failed batch is accepted (logged + stored) but not committed;
	// the published view stays at the previous version.
	if v := svc.View(); v.Snapshot.Version != 1 {
		t.Errorf("version after poisoned commit = %d, want 1", v.Snapshot.Version)
	}

	// The next ingest rebuilds from the whole store and publishes a view
	// whose version never regressed.
	if _, err := svc.Ingest(batches[2]); err != nil {
		t.Fatal(err)
	}
	want := viewFingerprint(t, svc.View())
	if v := svc.View(); v.Snapshot.Version != 3 {
		t.Errorf("version after rebuild = %d, want 3", v.Snapshot.Version)
	}
	crash(t, svc)

	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := viewFingerprint(t, recovered.View()); got != want {
		t.Errorf("poison-lifecycle replay differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestIngestCancelMaps503 checks the HTTP contract for a poisoned-session
// retry: 503 plus a Retry-After hint, and the retried request succeeds.
func TestIngestCancelMaps503(t *testing.T) {
	svc, ts := newTestServer(t, personStore())
	// Poison directly (an HTTP request context cannot be cancelled
	// deterministically mid-commit from a test).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := []IngestRef{{Class: schema.ClassPerson,
		Atomic: map[string][]string{schema.AttrName: {"Eve Black"}}}}
	if _, err := svc.ingest(ctx, batch); !errors.Is(err, recon.ErrCanceled) {
		t.Fatalf("cancelled ingest = %v, want recon.ErrCanceled", err)
	}
	if got := statusFor(fmt.Errorf("reconcile: %w", recon.ErrCanceled)); got != http.StatusServiceUnavailable {
		t.Errorf("statusFor(ErrCanceled) = %d, want 503", got)
	}

	// After Close, ingest over HTTP answers 503 with Retry-After.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/json",
		strings.NewReader(`[{"class":"Person","atomic":{"name":["Frank"]}}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest after Close status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After header")
	}
}

// TestPublishFailureKeepsCoherence pins the publish-failure bugfix: when
// the view swap fails after the store already holds the batch, the old
// view stays published at its version, the session is poisoned, and the
// next ingest publishes a view covering both batches.
func TestPublishFailureKeepsCoherence(t *testing.T) {
	svc, err := NewFromStore(Config{Schema: schema.PIM()}, seedOf(personStore()))
	if err != nil {
		t.Fatal(err)
	}
	before := svc.View()
	boom := errors.New("boom")
	svc.publishHook = func() error { return boom }
	batch := []IngestRef{{Class: schema.ClassPerson,
		Atomic: map[string][]string{schema.AttrName: {"Grace Hall"}}}}
	if _, err := svc.Ingest(batch); !errors.Is(err, boom) {
		t.Fatalf("ingest with failing publish = %v, want boom", err)
	}
	after := svc.View()
	if after != before {
		t.Error("failed publish swapped the view")
	}
	if got := svc.Metrics().SessionPoisoned; got != 1 {
		t.Errorf("sessionPoisoned = %d, want 1", got)
	}

	svc.publishHook = nil
	resp, err := svc.Ingest([]IngestRef{{Class: schema.ClassPerson,
		Atomic: map[string][]string{schema.AttrName: {"Heidi Park"}}}})
	if err != nil {
		t.Fatal(err)
	}
	v := svc.View()
	if v.Snapshot.Version <= before.Snapshot.Version {
		t.Errorf("version did not advance past %d: %d", before.Snapshot.Version, v.Snapshot.Version)
	}
	// Both the failed batch's reference and the new one are in the
	// published snapshot: store and view agree again.
	if want := before.Snapshot.RefCount() + 2; v.Snapshot.RefCount() != want {
		t.Errorf("published refs = %d, want %d", v.Snapshot.RefCount(), want)
	}
	if resp.SnapshotVersion != v.Snapshot.Version {
		t.Errorf("response version %d != published %d", resp.SnapshotVersion, v.Snapshot.Version)
	}
}

// TestCloseDrainsInFlightIngest checks Close blocks until an in-flight
// ingest finishes, then seals the service and writes the final checkpoint
// covering the drained batch.
func TestCloseDrainsInFlightIngest(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	svc.publishHook = func() error {
		close(entered)
		<-release
		return nil
	}
	batch := []IngestRef{{Class: schema.ClassPerson,
		Atomic: map[string][]string{schema.AttrName: {"Ivan Cole"}}}}
	ingestDone := make(chan error, 1)
	go func() {
		_, err := svc.Ingest(batch)
		ingestDone <- err
	}()
	<-entered
	svc.publishHook = nil // next publish (none expected) runs clean

	closeDone := make(chan error, 1)
	go func() { closeDone <- svc.Close() }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while an ingest held the writer lock")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-ingestDone; err != nil {
		t.Fatalf("drained ingest failed: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatal(err)
	}

	// The final checkpoint covers the drained batch: fast restore.
	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.recovery.Mode != "checkpoint" {
		t.Errorf("recovery mode = %q, want checkpoint", recovered.recovery.Mode)
	}
	if got := recovered.View().Snapshot.RefCount(); got != 1 {
		t.Errorf("recovered refs = %d, want 1", got)
	}
}

// TestDurableRestartIngestCrashReplay covers the double-restart lifecycle:
// a clean shutdown, a fast restore, further ingest on the restored service
// (whose first commit resumes the session from the history), then a
// crash. The replay must land on the restored process's state bit for bit.
func TestDurableRestartIngestCrashReplay(t *testing.T) {
	batches := durBatches()
	dir := t.TempDir()
	svc, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc, batches[:2])
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if restored.recovery.Mode != "checkpoint" {
		t.Fatalf("first restart mode = %q, want checkpoint", restored.recovery.Mode)
	}
	if _, err := restored.Ingest(batches[2]); err != nil {
		t.Fatal(err)
	}
	want := viewFingerprint(t, restored.View())
	crash(t, restored)

	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.recovery.Mode != "replay" {
		t.Errorf("second restart mode = %q, want replay", recovered.recovery.Mode)
	}
	if got := viewFingerprint(t, recovered.View()); got != want {
		t.Errorf("restart-ingest-crash replay differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestDurableLegacyColdMarker recovers a data dir as older versions wrote
// it: biblio batches, a clean-shutdown checkpoint, a KindCold marker at the
// checkpoint's ordinal (logged by the restart, whose session then rebuilt
// from scratch on its next commit), the remaining batches, then a crash.
// Replay reads the marker as a poison after a committed batch, so the dir
// recovers to the state its writer had.
func TestDurableLegacyColdMarker(t *testing.T) {
	const k = 3
	batches := biblioBatches(t, 400, 64, 1)
	cfg := Config{Schema: schema.PIM(), Recon: recon.DefaultConfig(), DataDir: t.TempDir()}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc, batches[:k])
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	lg, _, err := durable.OpenLog(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(durable.Record{Kind: durable.KindCold, Ordinal: k}); err != nil {
		t.Fatal(err)
	}
	for i, b := range batches[k:] {
		payload, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Append(durable.Record{Kind: durable.KindBatch, Ordinal: uint64(k + 1 + i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	truth, err := New(Config{Schema: cfg.Schema, Recon: cfg.Recon})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, truth, batches[:k])
	truth.sess.Poison()
	ingestAll(t, truth, batches[k:])
	want := viewFingerprint(t, truth.View())

	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.recovery.Mode != "replay" {
		t.Errorf("recovery mode = %q, want replay", recovered.recovery.Mode)
	}
	if got := viewFingerprint(t, recovered.View()); got != want {
		t.Error("legacy cold-marker recovery differs from a session poisoned after the checkpointed batch")
	}
}

// biblioBatches generates the biblio corpus (loadgen's, and mixed-biblio's)
// at refs references and cuts it into ingest batches of about size
// references, each cut extended until no reference in the batch links past
// its end.
func biblioBatches(t *testing.T, refs, size int, seed int64) [][]IngestRef {
	t.Helper()
	g, err := biblio.Generate(biblio.Default(refs, seed))
	if err != nil {
		t.Fatal(err)
	}
	all := g.Store.All()
	var out [][]IngestRef
	for start := 0; start < len(all); {
		end := min(start+size, len(all))
		for i := start; i < end; i++ {
			for _, attr := range all[i].AssocAttrs() {
				for _, to := range all[i].Assoc(attr) {
					end = max(end, int(to)+1)
				}
			}
		}
		batch := make([]IngestRef, 0, end-start)
		for _, r := range all[start:end] {
			batch = append(batch, ToIngestRef(r))
		}
		out = append(out, batch)
		start = end
	}
	return out
}

// TestDurableRestartAnywhere: a clean restart is not an input. For every
// cut k of a biblio history, a service closed after batch k and restarted
// on its data dir, then fed the rest, publishes what a never-restarted
// service publishes.
func TestDurableRestartAnywhere(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		batches := biblioBatches(t, 400, 64, seed)
		cfg := Config{Schema: schema.PIM(), Recon: recon.DefaultConfig()}
		truth, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, truth, batches)
		want := viewFingerprint(t, truth.View())
		for k := 1; k < len(batches); k++ {
			cfg.DataDir = t.TempDir()
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, svc, batches[:k])
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			restarted, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if restarted.recovery.Mode != "checkpoint" {
				t.Fatalf("seed %d cut %d: recovery mode = %q, want checkpoint", seed, k, restarted.recovery.Mode)
			}
			ingestAll(t, restarted, batches[k:])
			if got := viewFingerprint(t, restarted.View()); got != want {
				t.Errorf("seed %d: restart after batch %d of %d moved the answer", seed, k, len(batches))
			}
			restarted.Close()
		}
	}
}

// TestDurableSeedStore checks a pre-populated store seeds a fresh data
// dir as batch 1 and survives a crash, and that reseeding an existing dir
// is refused.
func TestDurableSeedStore(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewFromStore(durableConfig(dir), seedOf(personStore()))
	if err != nil {
		t.Fatal(err)
	}
	want := viewFingerprint(t, svc.View())
	crash(t, svc)

	if _, err := NewFromStore(durableConfig(dir), seedOf(personStore())); err == nil {
		t.Error("reseeding a non-empty data dir should be refused")
	}

	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := viewFingerprint(t, recovered.View()); got != want {
		t.Errorf("seeded-store recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if got := recovered.View().Snapshot.Version; got != 1 {
		t.Errorf("seeded-store version = %d, want 1", got)
	}
}
