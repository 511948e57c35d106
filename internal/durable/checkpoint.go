package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ckptPattern names checkpoint files by the batch ordinal they cover.
const ckptPattern = "ckpt-%016d.ck"

// Checkpoint is one recovery point: the full record history through
// Ordinal (batches plus lifecycle markers — the compacted equivalent of
// the log segments it supersedes) and an opaque serialized snapshot of
// the state published at Ordinal.
type Checkpoint struct {
	Ordinal  uint64
	Records  []Record
	Snapshot []byte
}

// WriteCheckpoint writes a checkpoint atomically: records are framed into
// a temp file (meta header, history, snapshot, footer), fsynced, renamed
// into place, and the directory entry is fsynced. A crash at any point
// leaves either no checkpoint or a complete one; a truncated file fails
// validation and recovery falls back to the previous checkpoint. It
// returns the file size.
func WriteCheckpoint(dir string, c *Checkpoint) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp := filepath.Join(dir, "ckpt.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var meta [8]byte
	binary.LittleEndian.PutUint64(meta[:], uint64(len(c.Records)))
	werr := appendRecord(w, Record{Kind: kindCkptMeta, Ordinal: c.Ordinal, Payload: meta[:]})
	for _, r := range c.Records {
		if werr != nil {
			break
		}
		werr = appendRecord(w, r)
	}
	if werr == nil {
		werr = appendRecord(w, Record{Kind: kindCkptSnapshot, Ordinal: c.Ordinal, Payload: c.Snapshot})
	}
	if werr == nil {
		werr = appendRecord(w, Record{Kind: kindCkptFooter, Ordinal: c.Ordinal, Payload: meta[:]})
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return 0, werr
	}
	final := filepath.Join(dir, fmt.Sprintf(ckptPattern, c.Ordinal))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	st, err := os.Stat(final)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// readCheckpoint decodes and validates one checkpoint file: every record
// checksum must hold, the structure must be meta/history/snapshot/footer,
// and the footer must agree with the meta header (a truncated file is
// missing it).
func readCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, _, err := decodeRecords(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", filepath.Base(path), err)
	}
	if len(recs) < 3 || recs[0].Kind != kindCkptMeta || len(recs[0].Payload) != 8 {
		return nil, fmt.Errorf("checkpoint %s: missing meta header", filepath.Base(path))
	}
	n := binary.LittleEndian.Uint64(recs[0].Payload)
	if uint64(len(recs)) != n+3 {
		return nil, fmt.Errorf("checkpoint %s: %d records, header promises %d", filepath.Base(path), len(recs), n+3)
	}
	snap, footer := recs[len(recs)-2], recs[len(recs)-1]
	if snap.Kind != kindCkptSnapshot || footer.Kind != kindCkptFooter ||
		footer.Ordinal != recs[0].Ordinal || string(footer.Payload) != string(recs[0].Payload) {
		return nil, fmt.Errorf("checkpoint %s: malformed trailer", filepath.Base(path))
	}
	return &Checkpoint{
		Ordinal:  recs[0].Ordinal,
		Records:  recs[1 : len(recs)-2],
		Snapshot: snap.Payload,
	}, nil
}

// checkpointFiles lists checkpoint file names in dir, newest ordinal
// first.
func checkpointFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		var ord uint64
		if n, _ := fmt.Sscanf(e.Name(), ckptPattern, &ord); n == 1 {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// LatestCheckpoint returns the newest checkpoint in dir that validates,
// skipping corrupt or truncated ones, or nil when none does.
func LatestCheckpoint(dir string) (*Checkpoint, error) {
	names, err := checkpointFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		c, err := readCheckpoint(filepath.Join(dir, name))
		if err == nil {
			return c, nil
		}
	}
	return nil, nil
}

// PruneCheckpoints removes all but the newest keep checkpoint files. The
// service keeps two generations so a corrupt newest checkpoint can fall
// back to its predecessor (whose covering segments are retained: the log
// is only compacted through the previous generation's ordinal).
func PruneCheckpoints(dir string, keep int) error {
	names, err := checkpointFiles(dir)
	if err != nil {
		return err
	}
	for i, name := range names {
		if i < keep {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return syncDir(dir)
}
