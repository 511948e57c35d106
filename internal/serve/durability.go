package serve

// Durability wiring over internal/durable: write-ahead batch logging,
// snapshot checkpoints, and startup recovery.
//
// The engine is deterministic per ingest history, so recovery replays the
// logged history through the same single-writer Session path that applied
// it live, preserving the original batch boundaries. Incremental results
// depend on those boundaries (a rebatched replay is only
// superset-consistent, not bit-identical), so the log records the full
// lifecycle: one KindBatch record per validated batch, a KindPoison
// marker when a batch's commit failed after its references reached the
// store (the live session was poisoned and rebuilt on the next commit),
// and a KindCold marker when a restart restored the view from a
// checkpoint without the session's incremental graph. Replaying batches
// and markers in order therefore lands on exactly the state the live
// process had — same published version, same pair decisions.
//
// Checkpoints persist the full record history plus the published
// snapshot. A clean shutdown writes a final checkpoint, so the next start
// skips replay entirely: rebuild the store from the checkpoint's batch
// records (cheap appends, no reconcile), publish the decoded snapshot,
// and log a KindCold marker recording that the incremental session state
// was dropped. After a crash the service replays the history from the
// start — with one shortcut: batches behind the last poison/cold marker
// that is followed by further batches only feed the store, because the
// marker's rebuild discarded their incremental contribution anyway.
//
// Two checkpoint generations are kept, and segments are compacted only
// through the previous generation's ordinal, so a corrupt newest
// checkpoint always leaves an older checkpoint plus the segments that
// cover the gap.

import (
	"encoding/json"
	"fmt"
	"time"

	"refrecon/internal/durable"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
)

// recoveryInfo describes how the service started, for /metrics.
type recoveryInfo struct {
	// Mode is "fresh" (no prior state), "checkpoint" (fast restore from a
	// checkpoint covering the whole log), or "replay" (history replayed
	// through the session).
	Mode string
	// Batches is the number of batch records recovered.
	Batches int
	// Millis is the wall-clock recovery time.
	Millis float64
}

// maxOrdinal returns the highest record ordinal in a history.
func maxOrdinal(recs []durable.Record) uint64 {
	var max uint64
	for _, r := range recs {
		if r.Ordinal > max {
			max = r.Ordinal
		}
	}
	return max
}

func countBatches(recs []durable.Record) int {
	n := 0
	for _, r := range recs {
		if r.Kind == durable.KindBatch {
			n++
		}
	}
	return n
}

// applyRecord appends a logged batch record's references to the store.
func applyRecord(store *reference.Store, rec durable.Record) error {
	var batch []IngestRef
	if err := json.Unmarshal(rec.Payload, &batch); err != nil {
		return fmt.Errorf("batch %d: %w", rec.Ordinal, err)
	}
	applyBatch(store, batch)
	return nil
}

// recover initializes the service from Config.DataDir: it opens the
// segment log (truncating a torn tail), loads the newest valid
// checkpoint, and either starts fresh, restores fast from the checkpoint,
// or replays the history.
func (s *Service) recover() error {
	start := time.Now()
	lg, logRecs, err := durable.OpenLog(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("serve: open segment log: %w", err)
	}
	s.log = lg
	ck, err := durable.LatestCheckpoint(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("serve: load checkpoint: %w", err)
	}

	if len(logRecs) == 0 && ck == nil {
		s.recovery = recoveryInfo{Mode: "fresh", Millis: msSince(start)}
		return s.openEmpty()
	}

	// Merge the checkpoint's history with the log tail. A crash between
	// checkpoint write and segment compaction leaves records in both
	// places; the ordinal filter dedups batches, and markers at the
	// checkpoint boundary are kept unless the checkpoint already ends
	// with them (reapplying a poison is idempotent anyway).
	all := logRecs
	if ck != nil {
		all = append([]durable.Record(nil), ck.Records...)
		for _, r := range logRecs {
			if r.Ordinal > ck.Ordinal {
				all = append(all, r)
				continue
			}
			if r.IsMarker() && r.Ordinal == ck.Ordinal && !endsWith(ck.Records, r) {
				all = append(all, r)
			}
		}
		s.lastCkpt = ck.Ordinal
	}

	if ck != nil && ck.Ordinal >= maxOrdinal(logRecs) {
		if err := s.restoreFast(ck, all); err == nil {
			s.recovery = recoveryInfo{Mode: "checkpoint", Batches: countBatches(all), Millis: msSince(start)}
			return nil
		}
		// A framed-valid checkpoint whose snapshot fails to decode (or
		// disagrees with its own records) falls back to full replay; the
		// batch records are self-sufficient.
	}

	if err := s.replay(all); err != nil {
		return err
	}
	s.recovery = recoveryInfo{Mode: "replay", Batches: countBatches(all), Millis: msSince(start)}
	return nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// endsWith reports whether history's trailing marker run contains an
// identical marker (same kind and ordinal).
func endsWith(recs []durable.Record, m durable.Record) bool {
	for i := len(recs) - 1; i >= 0; i-- {
		if !recs[i].IsMarker() {
			return false
		}
		if recs[i].Kind == m.Kind && recs[i].Ordinal == m.Ordinal {
			return true
		}
	}
	return false
}

// restoreFast is the clean-shutdown path: the checkpoint covers every log
// record, so the store is rebuilt by plain appends and the published view
// is the checkpoint's decoded snapshot — no reconcile at all. The
// session starts cold (its incremental graph is gone); a KindCold marker
// makes that restart part of the durable history so a later crash-replay
// rebuilds at the same point the live process did.
func (s *Service) restoreFast(ck *durable.Checkpoint, all []durable.Record) error {
	snap, err := recon.DecodeSnapshot(ck.Snapshot)
	if err != nil {
		return err
	}
	store := reference.NewStore()
	for _, r := range all {
		if r.Kind != durable.KindBatch {
			continue
		}
		if err := applyRecord(store, r); err != nil {
			return err
		}
	}
	if err := store.Validate(s.cfg.Schema); err != nil {
		return err
	}
	if snap.RefCount() > store.Len() {
		return fmt.Errorf("snapshot covers %d refs but the log yields %d", snap.RefCount(), store.Len())
	}

	cold := durable.Record{Kind: durable.KindCold, Ordinal: maxOrdinal(all)}
	if err := s.log.Append(cold); err != nil {
		return fmt.Errorf("serve: log cold-restart marker: %w", err)
	}
	s.history = append(all, cold)
	s.store = store
	s.sess = recon.New(s.cfg.Schema, s.cfg.Recon).NewSession(store)
	s.sess.Poison()
	s.accepted = maxOrdinal(all)
	s.committed = uint64(snap.Version)
	s.view.Store(s.newView(snap))
	return nil
}

// replay rebuilds the live state by running the recorded history through
// a fresh session, preserving the original batch boundaries and lifecycle
// markers. Batches behind the last marker that is followed by further
// batches only feed the store: the rebuild that marker triggered
// discarded their incremental contribution, and the first commit after it
// reconciles the whole store exactly as the live rebuild did.
func (s *Service) replay(all []durable.Record) error {
	if err := s.openSession(); err != nil {
		return err
	}

	lastBatch := -1
	for i, r := range all {
		if r.Kind == durable.KindBatch {
			lastBatch = i
		}
	}
	boundary := -1
	for i, r := range all {
		if r.IsMarker() && i < lastBatch {
			boundary = i
		}
	}

	var accepted, committed uint64
	for i, r := range all {
		switch r.Kind {
		case durable.KindBatch:
			if err := applyRecord(s.store, r); err != nil {
				return fmt.Errorf("serve: replay %w", err)
			}
			if r.Ordinal > accepted {
				accepted = r.Ordinal
			}
			if i <= boundary {
				continue // a later rebuild supersedes this commit
			}
			if i+1 < len(all) && all[i+1].Kind == durable.KindPoison {
				continue // the live commit was cancelled; replay the cancellation
			}
			if _, err := s.sess.Reconcile(); err != nil {
				return fmt.Errorf("serve: replay batch %d: %w", r.Ordinal, err)
			}
			committed = r.Ordinal
		case durable.KindPoison, durable.KindCold:
			if i > boundary {
				s.sess.Poison()
			}
		default:
			return fmt.Errorf("serve: replay: unknown record kind %d at ordinal %d", r.Kind, r.Ordinal)
		}
	}

	s.history = all
	s.accepted = accepted
	s.committed = committed
	return s.publish()
}

// maybeCheckpoint writes a checkpoint when enough batches have committed
// since the last one. Callers hold mu.
func (s *Service) maybeCheckpoint() {
	if s.log == nil || s.cfg.CheckpointEvery <= 0 {
		return
	}
	if s.committed == 0 || s.committed < s.lastCkpt+uint64(s.cfg.CheckpointEvery) {
		return
	}
	s.checkpoint()
}

// checkpoint persists the full record history plus the published snapshot,
// prunes to two checkpoint generations, and compacts log segments covered
// by the previous generation (never the newest: if the file just written
// turns out corrupt on the next start, the previous checkpoint plus the
// retained segments still reproduce everything). Checkpoint failures are
// counted but never fail the ingest that triggered them — the log remains
// the source of truth. Callers hold mu.
func (s *Service) checkpoint() {
	v := s.view.Load()
	if v == nil || len(s.history) == 0 {
		return
	}
	blob, err := recon.EncodeSnapshot(v.Snapshot)
	if err != nil {
		s.met.durErrors.Add(1)
		return
	}
	ord := maxOrdinal(s.history)
	size, err := durable.WriteCheckpoint(s.cfg.DataDir, &durable.Checkpoint{
		Ordinal:  ord,
		Records:  s.history,
		Snapshot: blob,
	})
	if err != nil {
		s.met.durErrors.Add(1)
		return
	}
	if s.lastCkpt > 0 {
		if err := s.log.RemoveThrough(s.lastCkpt); err != nil {
			s.met.durErrors.Add(1)
		}
	}
	if err := durable.PruneCheckpoints(s.cfg.DataDir, 2); err != nil {
		s.met.durErrors.Add(1)
	}
	s.lastCkpt = ord
	s.met.checkpoints.Add(1)
	s.met.ckptBytes.Store(size)
	s.met.ckptOrdinal.Store(int64(ord))
}

// syncDurabilityGauges publishes the mu-guarded durability state into the
// lock-free metrics gauges that /metrics reads.
func (s *Service) syncDurabilityGauges() {
	s.met.accepted.Store(int64(s.accepted))
	s.met.committed.Store(int64(s.committed))
	if s.log == nil {
		return
	}
	s.met.historyRecords.Store(int64(len(s.history)))
	s.met.logBytes.Store(s.log.Bytes())
	s.met.logSegments.Store(int64(s.log.Segments()))
}
