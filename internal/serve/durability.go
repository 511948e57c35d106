package serve

// Durability wiring over internal/durable: write-ahead batch logging,
// snapshot checkpoints, and startup recovery.
//
// The engine is deterministic per ingest history, so recovery replays the
// logged history through the same single-writer Session path that applied
// it live, preserving the original batch boundaries. Incremental results
// depend on those boundaries (a rebatched replay is only
// superset-consistent, not bit-identical), so the log records the full
// lifecycle: one KindBatch record per validated batch, and a KindPoison
// marker when a batch's commit failed after its references reached the
// store (the live session was poisoned and rebuilt on the next commit).
// Replaying batches and markers in order therefore lands on exactly the
// state the live process had — same published version, same pair
// decisions.
//
// Checkpoints persist the full record history plus the published
// snapshot. A clean shutdown writes a final checkpoint, so the next start
// skips replay: it admits the checkpoint's batch records into a scratch
// store (no reconcile) and publishes the decoded snapshot. The session
// itself is not restored; the first commit after the restart resumes it
// by replaying the history, and then commits its own batch, so a restart
// never moves an answer. After a crash the service replays the history
// at startup.
//
// Two checkpoint generations are kept, and segments are compacted only
// through the previous generation's ordinal, so a corrupt newest
// checkpoint always leaves an older checkpoint plus the segments that
// cover the gap.

import (
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

// applyRecord admits a logged batch record into the store through the door
// its live ingest took (reference.DecodeBatch, then Store.Admit), so a
// record the live service could not have accepted is an error naming its
// ordinal, never a different store.
func (s *Service) applyRecord(store *reference.Store, rec durable.Record) error {
	b, err := reference.DecodeBatch(rec.Payload)
	if err != nil {
		return fmt.Errorf("batch %d: %w", rec.Ordinal, err)
	}
	if err := store.Admit(s.cfg.Schema, b.References); err != nil {
		return fmt.Errorf("batch %d: %w", rec.Ordinal, err)
	}
	for _, r := range b.References {
		store.Add(r.Reference())
	}
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
	// places; the ordinal filter dedups batches. A marker at the
	// checkpoint's ordinal is kept: it is either a legacy cold marker the
	// checkpoint lacks or a poison it already holds, and a poison applied
	// twice is one poison.
	all := logRecs
	if ck != nil {
		all = append([]durable.Record(nil), ck.Records...)
		for _, r := range logRecs {
			if r.Ordinal > ck.Ordinal || r.Ordinal == ck.Ordinal && r.Kind != durable.KindBatch {
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
	if err := s.publish(); err != nil {
		return err
	}
	s.recovery = recoveryInfo{Mode: "replay", Batches: countBatches(all), Millis: msSince(start)}
	return nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// restoreFast is the clean-shutdown path: the checkpoint covers every log
// record, so its batch records are only admitted (a record the live
// service could not have accepted refuses the checkpoint) and the
// published view is the checkpoint's decoded snapshot — no reconcile at
// all. No session is built: the first ingest resumes it (see ingest).
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
		if err := s.applyRecord(store, r); err != nil {
			return err
		}
	}
	if snap.RefCount() > store.Len() {
		return fmt.Errorf("snapshot covers %d refs but the log yields %d", snap.RefCount(), store.Len())
	}
	s.history = all
	s.accepted = maxOrdinal(all)
	s.committed = uint64(snap.Version)
	s.view.Store(s.newView(snap))
	return nil
}

// replay runs a recorded history through a fresh session at its logged
// batch boundaries and poison markers, and makes the result the service's
// store and session (it publishes nothing). A batch whose next record is
// its poison marker is stored but not committed: its live commit failed,
// and a commit that failed deterministically must not be re-run. A legacy
// KindCold record poisons like KindPoison, but its batch had committed.
// On error the service is left as it was.
func (s *Service) replay(all []durable.Record) error {
	store := reference.NewStore()
	sess := recon.New(s.cfg.Schema, s.cfg.Recon).NewSession(store)
	// The initial empty reconcile gives the session a result to snapshot
	// even when every recorded batch was poisoned.
	if _, err := sess.Reconcile(); err != nil {
		return fmt.Errorf("serve: initial reconcile: %w", err)
	}
	var accepted, committed uint64
	for i, r := range all {
		switch r.Kind {
		case durable.KindBatch:
			if err := s.applyRecord(store, r); err != nil {
				return fmt.Errorf("serve: replay %w", err)
			}
			accepted = max(accepted, r.Ordinal)
			if i+1 < len(all) && all[i+1].Kind == durable.KindPoison {
				continue // the live commit was cancelled; replay the cancellation
			}
			if _, err := sess.Reconcile(); err != nil {
				return fmt.Errorf("serve: replay batch %d: %w", r.Ordinal, err)
			}
			committed = r.Ordinal
		case durable.KindPoison, durable.KindCold:
			sess.Poison()
		default:
			return fmt.Errorf("serve: replay: unknown record kind %d at ordinal %d", r.Kind, r.Ordinal)
		}
	}
	s.store, s.sess = store, sess
	s.history = all
	s.accepted, s.committed = accepted, committed
	return nil
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
