package serve

// Package serve is the long-running reconciliation service: a
// single-writer recon.Session owns ingest, and every committed batch
// publishes an immutable View (snapshot + query matcher) through an
// atomic pointer. Reads — reconcile queries, entity and explain lookups,
// metrics — run entirely against the published View, so they never block
// on ingest and never observe a half-applied batch; writers pay the
// snapshot copy, readers pay nothing.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"refrecon/internal/collective"
	"refrecon/internal/durable"
	"refrecon/internal/obs"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// ErrUnavailable marks requests refused because the service is shutting
// down (Close has drained ingest and sealed the log). It maps to 503 with
// a Retry-After hint like a cancelled commit.
var ErrUnavailable = errors.New("serve: service unavailable")

// Fixed protocol values: the manifest URIs, and the candidate limit of a
// query that names none.
const (
	identifierSpace = "urn:refrecon:entity"
	schemaSpace     = "urn:refrecon:schema"
	defaultLimit    = 10
)

// Config configures a Service.
type Config struct {
	// Schema is the information-space schema (required).
	Schema *schema.Schema
	// Recon configures the underlying reconciler.
	Recon recon.Config
	// Name is the service name advertised in the manifest.
	Name string
	// DataDir enables durability: every validated ingest batch is framed,
	// appended to a segment log under this directory, and fsynced before
	// the commit runs, and snapshot checkpoints are written periodically.
	// On startup the service recovers the previous state from the
	// directory (see internal/serve/durability.go). Empty keeps the
	// service purely in-memory.
	DataDir string
	// CheckpointEvery writes a checkpoint after that many committed
	// batches (default 16; negative disables periodic checkpoints — a
	// final one is still written by Close). Ignored without DataDir.
	CheckpointEvery int
	// Collective bounds the collective query mode. Unset fields take the
	// collective package defaults, except Budget: a serving process must
	// never run an unbounded fixed point per query, so a zero Budget
	// defaults to 250ms (set it negative to genuinely disable the time
	// budget). Per-query knobs can only lower these.
	Collective collective.Config
}

// View is one published read state: an immutable snapshot and its query
// matcher. Views are never mutated after publication.
type View struct {
	Snapshot   *recon.Snapshot
	Matcher    *recon.Matcher
	Collective *recon.CollectiveMatcher
	Published  time.Time

	// suggestIdx is the lazily built prefix-autocomplete index over the
	// snapshot's entity labels (see suggest.go). Built at most once per
	// view, on the first /suggest request, so publishes stay cheap.
	suggestOnce sync.Once
	suggestIdx  []suggestEntry
}

// Service is the reconciliation service. One goroutine at a time may
// ingest (Ingest serializes internally); any number may query.
type Service struct {
	cfg     Config
	mu      sync.Mutex // guards sess + store writes and all durability state
	sess    *recon.Session
	store   *reference.Store
	view    atomic.Pointer[View]
	met     *metrics
	started time.Time
	// classNames is the schema's class-name fan-out order, cached once:
	// Schema.Classes sorts and allocates per call, and typeless queries hit
	// it on every request.
	classNames []string

	// Durability state (zero/nil without Config.DataDir); mu-guarded.
	// history is the full record sequence — batches plus lifecycle
	// markers — that reproduces the current state when replayed; it is
	// what checkpoints persist. accepted is the ordinal of the last batch
	// that reached the log and store; committed is the ordinal whose
	// commit last published a view (accepted > committed while the
	// session is poisoned). lastCkpt is the newest checkpoint's ordinal.
	log       *durable.Log
	history   []durable.Record
	accepted  uint64
	committed uint64
	lastCkpt  uint64
	closed    bool
	recovery  recoveryInfo

	// publishHook, when set, runs inside publish before the view swap —
	// a test seam for injecting publish failures and for observing the
	// critical section.
	publishHook func() error
}

// New starts a service over an empty store and publishes the initial
// view. With Config.DataDir, the previous state is recovered from the
// checkpoint and segment log first.
func New(cfg Config) (*Service, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("serve: Config.Schema is required")
	}
	if cfg.Name == "" {
		cfg.Name = "refrecon"
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 16
	}
	if cfg.Collective.Budget == 0 {
		cfg.Collective.Budget = 250 * time.Millisecond
	} else if cfg.Collective.Budget < 0 {
		cfg.Collective.Budget = 0
	}
	s := &Service{cfg: cfg, met: newMetrics(), started: time.Now()}
	for _, c := range cfg.Schema.Classes() {
		s.classNames = append(s.classNames, c.Name)
	}
	if cfg.DataDir != "" {
		if err := s.recover(); err != nil {
			if s.log != nil {
				s.log.Close()
			}
			return nil, err
		}
	} else if err := s.openEmpty(); err != nil {
		return nil, err
	}
	s.syncDurabilityGauges()
	return s, nil
}

// ErrReseed is NewFromStore's refusal to seed a data dir that already
// holds state.
var ErrReseed = errors.New("already holds state")

// NewFromStore starts a service and ingests the store's references as its
// first batch: a stored dataset is an ingest batch, so this is New plus one
// Ingest. With Config.DataDir the store may seed only a fresh directory;
// against one that already holds state the start is refused (the directory
// is left as any start followed by a crash leaves it).
func NewFromStore(cfg Config, store *reference.Store) (*Service, error) {
	s, err := New(cfg)
	if err != nil || store.Len() == 0 {
		return s, err
	}
	if len(s.history) > 0 {
		s.log.Close()
		return nil, fmt.Errorf("serve: data dir %q %w; the initial store must be empty (remove the directory to reseed)", cfg.DataDir, ErrReseed)
	}
	batch := make([]IngestRef, 0, store.Len())
	for _, r := range store.All() {
		batch = append(batch, ToIngestRef(r))
	}
	if _, err := s.Ingest(batch); err != nil {
		if s.log != nil {
			s.log.Close()
		}
		return nil, fmt.Errorf("serve: initial store: %w", err)
	}
	return s, nil
}

// openSession starts the single-writer session over an empty store and
// runs its initial (empty) reconcile, so the session always has a result
// to snapshot — on a fresh start, and during replay even when every
// recorded batch was poisoned.
func (s *Service) openSession() error {
	s.store = reference.NewStore()
	s.sess = recon.New(s.cfg.Schema, s.cfg.Recon).NewSession(s.store)
	if _, err := s.sess.Reconcile(); err != nil {
		return fmt.Errorf("serve: initial reconcile: %w", err)
	}
	return nil
}

// openEmpty is the start with no prior state: an empty session, published.
func (s *Service) openEmpty() error {
	if err := s.openSession(); err != nil {
		return err
	}
	return s.publish()
}

// publish exports a snapshot of the session's current result, builds its
// matcher, and swaps it in as the live view. The snapshot version is the
// service's committed batch ordinal — a counter that survives session
// rebuilds (a poisoned session restarts its internal batch numbering, and
// the published version must never regress). Callers must hold mu (or be
// the constructor, before the service escapes).
func (s *Service) publish() error {
	snap, err := s.sess.Snapshot()
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if s.publishHook != nil {
		if err := s.publishHook(); err != nil {
			return fmt.Errorf("serve: publish: %w", err)
		}
	}
	snap.Version = int(s.committed)
	s.view.Store(s.newView(snap))
	return nil
}

// newView is the one place a View is built: the snapshot's matcher, the
// collective matcher over it, and the publication time. Both a live
// publish and a checkpoint restore go through it, so every published view
// answers every query mode.
func (s *Service) newView(snap *recon.Snapshot) *View {
	matcher := recon.NewMatcher(s.cfg.Schema, s.cfg.Recon, snap)
	return &View{
		Snapshot:   snap,
		Matcher:    matcher,
		Collective: recon.NewCollectiveMatcher(matcher, s.cfg.Collective),
		Published:  time.Now(),
	}
}

// View returns the currently published read state.
func (s *Service) View() *View { return s.view.Load() }

// obs returns the observer threaded through the reconciler config (nil
// when observability is off).
func (s *Service) obs() *obs.Observer { return s.cfg.Recon.Obs }

// Ingest admits one batch whole (reference.Store.Admit, the door a dataset
// file and a replayed log record take too), reconciles it incrementally,
// and publishes a fresh view. It returns the applied id range and the new
// snapshot version. A refused batch — an error wrapping
// recon.ErrBatchRejected — leaves the service unchanged (with durability
// on, nothing reaches the log either).
//
// Once a batch is admitted it is logged (fsync) before any state mutates,
// so an acknowledged batch survives a crash at any later point. A commit
// that fails after that — a cancelled context, an audit failure, a
// publish error — poisons the session explicitly: the batch's references
// stay in the store, the previous view stays published at its version, a
// poison marker is logged so crash recovery reproduces the same
// evolution, and the next ingest rebuilds from the whole store. The
// failed request maps to 503 with a Retry-After hint (recon.ErrCanceled).
func (s *Service) Ingest(batch []IngestRef) (IngestResponse, error) {
	return s.ingest(context.Background(), batch)
}

// ingest is Ingest honoring ctx at phase and propagation-round boundaries.
func (s *Service) ingest(ctx context.Context, batch []IngestRef) (IngestResponse, error) {
	if len(batch) == 0 {
		return IngestResponse{}, fmt.Errorf("%w: empty batch", recon.ErrBatchRejected)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return IngestResponse{}, fmt.Errorf("%w: shutting down", ErrUnavailable)
	}
	start := time.Now()
	base := s.store.Len()
	if err := s.store.Admit(s.cfg.Schema, batch); err != nil {
		return IngestResponse{}, fmt.Errorf("%w: %w: %w", recon.ErrBatchRejected, recon.ErrSchemaViolation, err)
	}
	ord := s.accepted + 1
	if s.log != nil {
		payload, err := json.Marshal(batch)
		if err != nil {
			return IngestResponse{}, fmt.Errorf("%w: encode batch: %w", recon.ErrBatchRejected, err)
		}
		rec := durable.Record{Kind: durable.KindBatch, Ordinal: ord, Payload: payload}
		if err := s.log.Append(rec); err != nil {
			// Nothing was applied; the service stays coherent at the
			// previous batch, but refuses to acknowledge unlogged data.
			s.met.durErrors.Add(1)
			return IngestResponse{}, fmt.Errorf("serve: wal append: %w", err)
		}
		s.history = append(s.history, rec)
	}
	s.accepted = ord
	for _, r := range batch {
		s.store.Add(r.Reference())
	}
	if _, err := s.sess.CommitContext(ctx); err != nil {
		s.poisonSession(ord)
		s.syncDurabilityGauges()
		return IngestResponse{}, fmt.Errorf("reconcile: %w", err)
	}
	prevCommitted := s.committed
	s.committed = ord
	if err := s.publish(); err != nil {
		// The store holds the batch but no view was published for it:
		// roll the version back to the coherent published state and
		// poison so the next commit rebuilds store and view together.
		s.committed = prevCommitted
		s.poisonSession(ord)
		s.syncDurabilityGauges()
		return IngestResponse{}, err
	}
	elapsed := time.Since(start)
	s.met.recordIngest(len(batch), elapsed)
	s.maybeCheckpoint()
	s.syncDurabilityGauges()
	return IngestResponse{
		Added:           len(batch),
		FirstID:         reference.ID(base),
		LastID:          reference.ID(base + len(batch) - 1),
		SnapshotVersion: s.view.Load().Snapshot.Version,
		References:      s.store.Len(),
		ElapsedMS:       float64(elapsed.Nanoseconds()) / 1e6,
	}, nil
}

// poisonSession records that batch ord's commit failed after its
// references reached the store: the session is marked for a from-scratch
// rebuild, the poisoned-session counter ticks, and with durability on a
// poison marker is appended so a crash-replay reproduces the same
// lifecycle. Callers hold mu.
func (s *Service) poisonSession(ord uint64) {
	s.sess.Poison()
	s.met.poisoned.Add(1)
	if s.log == nil {
		return
	}
	rec := durable.Record{Kind: durable.KindPoison, Ordinal: ord}
	if err := s.log.Append(rec); err != nil {
		// The marker could not be made durable; a crash before the next
		// successful append would replay this batch as committed. The log
		// marks itself broken on sync failures, so subsequent ingests
		// fail loudly rather than widen the divergence.
		s.met.durErrors.Add(1)
		return
	}
	s.history = append(s.history, rec)
}

// Close drains any in-flight ingest (it blocks on the writer lock), seals
// the service against further ingests, writes a final checkpoint so the
// next start takes the fast restore path, and closes the segment log.
// Reads keep serving the published view. Safe to call more than once.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.log == nil {
		return nil
	}
	if len(s.history) > 0 && maxOrdinal(s.history) > s.lastCkpt {
		s.checkpoint()
	}
	err := s.log.Close()
	s.syncDurabilityGauges()
	return err
}

// Query resolves one reconciliation query against the published view.
func (s *Service) Query(q ReconQuery) ([]recon.Candidate, error) {
	return s.query(s.view.Load(), q)
}

// query resolves one reconciliation query against the view the request
// loaded — one request answers from one snapshot, whatever ingest publishes
// meanwhile — recording latency and candidate-set size (per mode). An empty
// Type fans the query out to every class and re-merges the results: there
// a class the query does not fit (an unbindable property, a matcher error)
// is ruled out silently, while a typed query reports the error. In
// collective mode the view's CollectiveMatcher scores with bounded
// expand-and-resolve, under the server's budgets lowered (never raised) by
// the query's knobs.
func (s *Service) query(v *View, q ReconQuery) ([]recon.Candidate, error) {
	coll := false
	switch q.Mode {
	case "", ModeAttribute:
	case ModeCollective:
		coll = true
	default:
		s.met.recordQuery(0, 0, true)
		return nil, fmt.Errorf("unknown query mode %q (want %q or %q)", q.Mode, ModeAttribute, ModeCollective)
	}
	start := time.Now()
	limit := q.Limit
	if limit <= 0 {
		limit = defaultLimit
	}
	var cc collective.Config
	if coll {
		cc = v.Collective.Config()
		if q.MaxNodes > 0 && q.MaxNodes < cc.MaxNodes {
			cc.MaxNodes = q.MaxNodes
		}
		if q.MaxHops > 0 && q.MaxHops < cc.MaxHops {
			cc.MaxHops = q.MaxHops
		}
		if q.BudgetMS > 0 {
			if b := time.Duration(q.BudgetMS * float64(time.Millisecond)); cc.Budget == 0 || b < cc.Budget {
				cc.Budget = b
			}
		}
	}

	var all []recon.Candidate
	totalRefs, totalPairs := 0, 0
	degraded := false
	record := func(failed bool) {
		if coll {
			s.met.recordCollective(time.Since(start), totalRefs, totalPairs, degraded, failed)
		} else {
			s.met.recordQuery(time.Since(start), totalRefs, failed)
		}
	}
	classes := s.classNames
	if q.Type != "" {
		classes = []string{q.Type}
	}
	for _, class := range classes {
		rq, err := s.bindQuery(v, class, q, limit, coll)
		var cands []recon.Candidate
		var stats recon.CollectiveStats
		if err == nil {
			if coll {
				cands, stats, err = v.Collective.MatchConfig(*rq, cc)
			} else {
				cands, stats.MatchStats, err = v.Matcher.Match(*rq)
			}
		}
		if err != nil {
			if q.Type != "" {
				record(true)
				return nil, err
			}
			continue
		}
		totalRefs += stats.CandidateRefs
		totalPairs += stats.Expansion.PairNodes
		degraded = degraded || stats.Expansion.Degraded
		all = append(all, cands...)
	}
	all = v.Matcher.Rank(all, limit)
	record(false)
	return all, nil
}

// bindQuery builds the recon.Query for one class. The free-text query
// binds to the class's name-like attribute (schema.Class.NameAttr) and
// properties naming an atomic attribute become atomic constraints; pids foreign to
// the class are ignored, as the OpenRefine spec requires — clients send
// one properties array against heterogeneous types, so an unknown pid is
// routine, not an error. Properties naming an association attribute count
// only with assoc set (collective mode), their values parsed as stored
// reference ids; ids that don't resolve in the published snapshot — a
// racing ingest, or evidence from a newer snapshot than the one this query
// landed on — are dropped as unmatched evidence rather than failing the
// query.
func (s *Service) bindQuery(v *View, class string, q ReconQuery, limit int, assoc bool) (*recon.Query, error) {
	c, ok := s.cfg.Schema.Class(class)
	if !ok {
		return nil, fmt.Errorf("unknown type %q", class)
	}
	rq := recon.Query{Class: class, Atomic: make(map[string][]string, len(q.Properties)+1), Limit: limit}
	for _, p := range q.Properties {
		a, ok := c.Attr(p.PID)
		if !ok || (a.Kind == schema.Association && !assoc) {
			continue
		}
		vals := p.values()
		if a.Kind == schema.Atomic {
			if len(vals) > 0 {
				rq.Atomic[p.PID] = append(rq.Atomic[p.PID], vals...)
			}
			continue
		}
		for _, vs := range vals {
			n, err := strconv.Atoi(vs)
			if err != nil {
				return nil, fmt.Errorf("association property %q: value %q is not a stored reference id", p.PID, vs)
			}
			sr, ok := v.Snapshot.Ref(reference.ID(n))
			if !ok || sr.Class != a.Target {
				continue
			}
			if rq.Assoc == nil {
				rq.Assoc = make(map[string][]reference.ID)
			}
			rq.Assoc[p.PID] = append(rq.Assoc[p.PID], reference.ID(n))
		}
	}
	if q.Query != "" {
		if attr := c.NameAttr(); attr != "" {
			rq.Atomic[attr] = append(rq.Atomic[attr], q.Query)
		}
	}
	return &rq, nil
}

// Manifest builds the OpenRefine service manifest.
func (s *Service) Manifest(baseURL string) Manifest {
	m := Manifest{
		Versions:        []string{"0.2"},
		Name:            s.cfg.Name,
		IdentifierSpace: identifierSpace,
		SchemaSpace:     schemaSpace,
	}
	for _, c := range s.cfg.Schema.Classes() {
		m.DefaultTypes = append(m.DefaultTypes, TypeRef{ID: c.Name, Name: c.Name})
	}
	if baseURL != "" {
		m.View = &ManifestView{URL: baseURL + "/entity/{{id}}"}
		m.Preview = &ManifestPreview{URL: baseURL + "/preview/{{id}}", Width: previewWidth, Height: previewHeight}
		m.Suggest = &SuggestManifest{Entity: &SuggestService{ServiceURL: baseURL, ServicePath: "/suggest/entity"}}
		m.Extend = &ExtendManifest{ProposeProperties: &SuggestService{ServiceURL: baseURL, ServicePath: "/properties"}}
	}
	if v := s.view.Load(); v != nil && v.Collective != nil {
		cc := v.Collective.Config()
		m.Collective = &CollectiveManifest{
			Modes:        []string{ModeAttribute, ModeCollective},
			MaxNodes:     cc.MaxNodes,
			MaxHops:      cc.MaxHops,
			MaxNeighbors: collective.MaxNeighbors,
			BudgetMS:     float64(cc.Budget.Nanoseconds()) / 1e6,
		}
	}
	return m
}

// Metrics renders the service counters plus snapshot/store gauges. When
// the reconciler carries an obs.Counters set, its engine counters are
// merged in under "engine" (and thus reach expvar through
// cmd/reconserve's publisher).
func (s *Service) Metrics() MetricsSnapshot {
	out := s.met.snapshot()
	if c := s.obs().Counter(); c != nil {
		snap := c.Snapshot()
		out.Engine = &snap
	}
	if v := s.view.Load(); v != nil {
		out.Snapshot = SnapshotInfo{
			Version:        v.Snapshot.Version,
			AgeSeconds:     time.Since(v.Published).Seconds(),
			References:     v.Snapshot.RefCount(),
			Entities:       len(v.Snapshot.Entities()),
			OverMergeClass: v.Snapshot.Stats.OverMergeClass,
			OverMergeShare: v.Snapshot.Stats.OverMergeShare,
		}
		out.StoreReferences = v.Snapshot.RefCount()
	}
	if s.cfg.DataDir != "" {
		out.Durability = s.met.durability(s.recovery)
	}
	out.UptimeSeconds = time.Since(s.started).Seconds()
	return out
}
