package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// segPattern names segment files by a monotone sequence number; recovery
// orders segments by it. The first ordinal inside a segment is always >=
// the last ordinal of its predecessor, so ordering by sequence is
// ordering by ordinal.
const segPattern = "wal-%08d.seg"

// DefaultSegmentBytes is the roll threshold: an append that would push the
// current segment past it starts a new segment first.
const DefaultSegmentBytes = 64 << 20

// ErrLogBroken marks a log whose append path failed in a way that could
// not be rolled back (a partial frame may be on disk mid-file). The log
// refuses further appends; a restart replays and truncates cleanly.
var ErrLogBroken = errors.New("durable: log broken, restart required")

// closedSeg describes one closed (no longer appended) segment.
type closedSeg struct {
	name string
	max  uint64 // highest record ordinal inside
	size int64
}

// Log is the append-only segment log. It is not safe for concurrent use;
// the service's single-writer ingest lock serializes access.
type Log struct {
	dir          string
	f            *os.File
	seq          uint64 // sequence of the open segment
	size         int64  // bytes in the open segment
	max          uint64 // highest ordinal appended to the open segment
	closed       []closedSeg
	SegmentBytes int64
	broken       error
}

// OpenLog opens (creating if needed) the segment log in dir and replays
// every intact record in segment order. A torn tail in the last segment
// is truncated away; torn or corrupt records in any earlier segment are a
// hard error (append-only writing cannot produce them). The returned
// records alias nothing on disk.
func OpenLog(dir string) (*Log, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var segs []string
	for _, e := range entries {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), segPattern, &seq); n == 1 {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)

	l := &Log{dir: dir, SegmentBytes: DefaultSegmentBytes}
	var all []Record
	for i, name := range segs {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		recs, clean, derr := decodeRecords(data)
		if derr != nil {
			if i != len(segs)-1 {
				return nil, nil, fmt.Errorf("durable: segment %s corrupt mid-log: %w", name, derr)
			}
			// Crash mid-append: drop the torn tail, keep the clean prefix.
			if err := os.Truncate(path, int64(clean)); err != nil {
				return nil, nil, fmt.Errorf("durable: truncating torn tail of %s: %w", name, err)
			}
		}
		var max uint64
		for _, r := range recs {
			if r.Ordinal > max {
				max = r.Ordinal
			}
		}
		all = append(all, recs...)
		if i == len(segs)-1 {
			fmt.Sscanf(name, segPattern, &l.seq)
			l.size = int64(clean)
			l.max = max
		} else {
			l.closed = append(l.closed, closedSeg{name: name, max: max, size: int64(clean)})
		}
	}
	if len(segs) == 0 {
		l.seq = 1
	}
	if err := l.openSegment(); err != nil {
		return nil, nil, err
	}
	return l, all, nil
}

// openSegment opens the current segment for appending, creating it (and
// syncing the directory entry) when new.
func (l *Log) openSegment() error {
	path := filepath.Join(l.dir, fmt.Sprintf(segPattern, l.seq))
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	if os.IsNotExist(statErr) {
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	return nil
}

// roll closes the current segment and starts the next one.
func (l *Log) roll() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.closed = append(l.closed, closedSeg{
		name: fmt.Sprintf(segPattern, l.seq),
		max:  l.max,
		size: l.size,
	})
	l.seq++
	l.size = 0
	l.max = 0
	return l.openSegment()
}

// Append frames, writes, and fsyncs one record. On a short write it rolls
// the file back to the record boundary; if even that fails the log is
// marked broken and every further append returns ErrLogBroken.
func (l *Log) Append(r Record) error {
	if l.broken != nil {
		return l.broken
	}
	if l.size > 0 && l.size+recordSize(r) > l.SegmentBytes {
		if err := l.roll(); err != nil {
			return err
		}
	}
	if err := appendRecord(l.f, r); err != nil {
		// A partial frame may be on disk; cut back to the boundary so the
		// live file stays clean for future appends.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("%w (append: %v, rollback: %v)", ErrLogBroken, err, terr)
			return l.broken
		}
		return err
	}
	if err := l.f.Sync(); err != nil {
		// The write may or may not have reached disk; a restart replays
		// whatever prefix is intact. Refuse to continue on an unsyncable
		// log rather than acknowledge unsynced batches.
		l.broken = fmt.Errorf("%w (sync: %v)", ErrLogBroken, err)
		return l.broken
	}
	l.size += recordSize(r)
	if r.Ordinal > l.max {
		l.max = r.Ordinal
	}
	return nil
}

// RemoveThrough rolls the log and deletes every closed segment whose
// records all have ordinal <= through — the compaction step after a
// checkpoint has made those records redundant.
func (l *Log) RemoveThrough(through uint64) error {
	if l.broken != nil {
		return l.broken
	}
	if l.size > 0 {
		if err := l.roll(); err != nil {
			return err
		}
	}
	keep := l.closed[:0]
	for _, s := range l.closed {
		if s.max <= through && s.size > 0 {
			if err := os.Remove(filepath.Join(l.dir, s.name)); err != nil {
				return err
			}
			continue
		}
		keep = append(keep, s)
	}
	l.closed = keep
	return syncDir(l.dir)
}

// Segments returns the number of on-disk segments.
func (l *Log) Segments() int { return len(l.closed) + 1 }

// Bytes returns the total framed bytes across segments.
func (l *Log) Bytes() int64 {
	total := l.size
	for _, s := range l.closed {
		total += s.size
	}
	return total
}

// Close syncs and closes the open segment. Further appends fail.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.broken = fmt.Errorf("%w (closed)", ErrLogBroken)
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
