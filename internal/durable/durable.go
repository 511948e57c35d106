// Package durable is the crash-durability layer of the reconciliation
// service: an append-only, CRC-framed segment log holding one record per
// validated ingest batch, plus atomic snapshot checkpoints.
//
// The engine above this package is deterministic end to end, which makes
// a replay-based durability story essentially free: a batch that reached
// the log is recovered by re-running it through the exact ingest path
// that would have applied it live, and the recovered state is
// bit-identical to an uninterrupted run because replay preserves the
// original batch boundaries (including the poison/reset lifecycle, which
// is recorded as marker records).
//
// The package is storage only: records carry opaque payloads and the
// record kinds defined here; encoding batches and snapshots is the
// caller's business (internal/serve and internal/recon).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record kinds. Kinds >= 10 are reserved for checkpoint file structure.
const (
	// KindBatch is one validated ingest batch. Ordinal is the 1-based
	// batch ordinal; the payload is the caller-encoded batch.
	KindBatch byte = 1
	// KindPoison marks that the commit of the batch with the same ordinal
	// was cancelled after its references reached the store: the live
	// session was poisoned, and replay must skip that batch's commit and
	// poison the session at the same point.
	KindPoison byte = 2
	// KindCold marks a restart that recovered the published view from a
	// checkpoint without rebuilding the session (the fast path): the view
	// through Ordinal is intact, but the session's incremental state was
	// dropped, so the next commit after this marker rebuilt from scratch.
	// Replay must poison the session at the same point to evolve
	// identically.
	KindCold byte = 3

	kindCkptMeta     byte = 10
	kindCkptSnapshot byte = 11
	kindCkptFooter   byte = 12
)

// Record is one framed log entry.
type Record struct {
	Kind    byte
	Ordinal uint64
	Payload []byte
}

// IsMarker reports whether the record is a lifecycle marker rather than a
// batch.
func (r Record) IsMarker() bool { return r.Kind == KindPoison || r.Kind == KindCold }

// Frame layout: kind(1) | ordinal(8, LE) | payloadLen(4, LE) | crc(4, LE)
// | payload. The CRC (Castagnoli) covers kind, ordinal, length, and
// payload, so a corrupted length field fails the checksum like any other
// flip.
const headerSize = 1 + 8 + 4 + 4

// MaxPayload bounds a single record payload (guards replay against a
// corrupted length field allocating unbounded memory before the CRC check
// can reject it).
const MaxPayload = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks an incomplete or checksum-corrupt record at the end of a
// byte stream — the signature of a crash mid-append. Recovery truncates
// the torn tail instead of failing.
var ErrTorn = errors.New("durable: torn record")

// appendRecord frames and writes one record. It does not sync.
func appendRecord(w io.Writer, r Record) error {
	if len(r.Payload) > MaxPayload {
		return fmt.Errorf("durable: payload %d exceeds limit %d", len(r.Payload), MaxPayload)
	}
	var hdr [headerSize]byte
	hdr[0] = r.Kind
	binary.LittleEndian.PutUint64(hdr[1:9], r.Ordinal)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(r.Payload)))
	crc := crc32.Update(0, castagnoli, hdr[:13])
	crc = crc32.Update(crc, castagnoli, r.Payload)
	binary.LittleEndian.PutUint32(hdr[13:17], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(r.Payload)
	return err
}

// recordSize returns the framed size of a record.
func recordSize(r Record) int64 { return int64(headerSize + len(r.Payload)) }

// decodeRecords decodes a byte stream of framed records. It returns the
// fully decoded records and the byte offset of the clean prefix. When the
// stream ends mid-record or the trailing record fails its checksum, err
// wraps ErrTorn and the returned offset points at the start of the torn
// record — everything before it is intact.
func decodeRecords(data []byte) (recs []Record, clean int, err error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < headerSize {
			return recs, off, fmt.Errorf("%w: %d header bytes at offset %d", ErrTorn, len(rest), off)
		}
		n := binary.LittleEndian.Uint32(rest[9:13])
		if n > MaxPayload {
			return recs, off, fmt.Errorf("%w: implausible payload length %d at offset %d", ErrTorn, n, off)
		}
		if len(rest) < headerSize+int(n) {
			return recs, off, fmt.Errorf("%w: %d of %d payload bytes at offset %d", ErrTorn, len(rest)-headerSize, n, off)
		}
		payload := rest[headerSize : headerSize+int(n)]
		crc := crc32.Update(0, castagnoli, rest[:13])
		crc = crc32.Update(crc, castagnoli, payload)
		if got := binary.LittleEndian.Uint32(rest[13:17]); got != crc {
			return recs, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrTorn, off)
		}
		recs = append(recs, Record{
			Kind:    rest[0],
			Ordinal: binary.LittleEndian.Uint64(rest[1:9]),
			Payload: append([]byte(nil), payload...),
		})
		off += headerSize + int(n)
	}
	return recs, off, nil
}
