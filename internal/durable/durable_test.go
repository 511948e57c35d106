package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := Record{Kind: KindBatch, Ordinal: uint64(i + 1), Payload: []byte(fmt.Sprintf("batch-%d-payload", i+1))}
		if i%3 == 2 {
			recs = append(recs, r, Record{Kind: KindPoison, Ordinal: uint64(i + 1)})
			continue
		}
		recs = append(recs, r)
	}
	return recs
}

func encodeAll(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		if err := appendRecord(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRecords(7)
	data := encodeAll(t, want)
	got, clean, err := decodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if clean != len(data) {
		t.Errorf("clean = %d, want %d", clean, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		if w.Payload == nil {
			w.Payload = []byte{}
		}
		g := got[i]
		if g.Payload == nil {
			g.Payload = []byte{}
		}
		if g.Kind != w.Kind || g.Ordinal != w.Ordinal || !bytes.Equal(g.Payload, w.Payload) {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestDecodeTornTail cuts the stream at every byte boundary inside the
// last record: the prefix must decode cleanly and the error must wrap
// ErrTorn with the clean offset at the last intact boundary.
func TestDecodeTornTail(t *testing.T) {
	recs := sampleRecords(3)
	data := encodeAll(t, recs)
	prefix := encodeAll(t, recs[:len(recs)-1])
	for cut := len(prefix) + 1; cut < len(data); cut++ {
		got, clean, err := decodeRecords(data[:cut])
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("cut %d: err = %v, want ErrTorn", cut, err)
		}
		if clean != len(prefix) {
			t.Errorf("cut %d: clean = %d, want %d", cut, clean, len(prefix))
		}
		if len(got) != len(recs)-1 {
			t.Errorf("cut %d: decoded %d records, want %d", cut, len(got), len(recs)-1)
		}
	}
}

// TestDecodeCorruption flips one byte in the middle record: decoding must
// stop at that record with ErrTorn (the CRC catches payload, header, and
// length corruption alike).
func TestDecodeCorruption(t *testing.T) {
	recs := sampleRecords(3)
	one := encodeAll(t, recs[:1])
	for off := len(one); off < len(one)+headerSize+4; off++ {
		data := encodeAll(t, recs)
		data[off] ^= 0x41
		got, clean, err := decodeRecords(data)
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("flip at %d: err = %v, want ErrTorn", off, err)
		}
		if clean != len(one) || len(got) != 1 {
			t.Errorf("flip at %d: clean=%d records=%d, want %d/1", off, clean, len(got), len(one))
		}
	}
}

func TestDecodeImplausibleLength(t *testing.T) {
	data := encodeAll(t, sampleRecords(1))
	// Corrupt the length field to a huge value; decode must reject it
	// before allocating, with ErrTorn.
	data[9], data[10], data[11], data[12] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := decodeRecords(data); !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
}

func openLogT(t *testing.T, dir string) (*Log, []Record) {
	t.Helper()
	l, recs, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestLogAppendReopen(t *testing.T) {
	dir := t.TempDir()
	l, recs := openLogT(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := sampleRecords(5)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := openLogT(t, dir)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("reopen replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Ordinal != want[i].Ordinal ||
			!bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The reopened log keeps appending into the same sequence.
	if err := l2.Append(Record{Kind: KindBatch, Ordinal: 99, Payload: []byte("after reopen")}); err != nil {
		t.Fatal(err)
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLogT(t, dir)
	want := sampleRecords(3)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a crash mid-append: garbage at the end of the live segment.
	seg := filepath.Join(dir, fmt.Sprintf(segPattern, uint64(1)))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{KindBatch, 9, 0, 0})
	f.Close()
	l2, got := openLogT(t, dir)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d (torn tail dropped)", len(got), len(want))
	}
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	var clean int64
	for _, r := range want {
		clean += recordSize(r)
	}
	if st.Size() != clean {
		t.Errorf("segment size %d after truncation, want %d", st.Size(), clean)
	}
}

func TestLogRollAndRemoveThrough(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLogT(t, dir)
	l.SegmentBytes = 64 // force rolls
	var want []Record
	for i := 1; i <= 10; i++ {
		r := Record{Kind: KindBatch, Ordinal: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, 40)}
		want = append(want, r)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 5 {
		t.Fatalf("Segments() = %d, want several after tiny-segment appends", l.Segments())
	}
	if err := l.RemoveThrough(6); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, got := openLogT(t, dir)
	defer l2.Close()
	var ords []uint64
	for _, r := range got {
		ords = append(ords, r.Ordinal)
	}
	if len(got) == 0 || got[0].Ordinal != 7 {
		t.Fatalf("after RemoveThrough(6) replay starts at %v, want ordinal 7", ords)
	}
	if !reflect.DeepEqual(ords, []uint64{7, 8, 9, 10}) {
		t.Errorf("replayed ordinals %v, want [7 8 9 10]", ords)
	}
}

func TestLogMidLogCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLogT(t, dir)
	l.SegmentBytes = 64
	for i := 1; i <= 6; i++ {
		if err := l.Append(Record{Kind: KindBatch, Ordinal: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, 40)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Corrupt the FIRST segment: that is not a torn tail, it is data loss,
	// and recovery must refuse rather than silently drop committed batches.
	seg := filepath.Join(dir, fmt.Sprintf(segPattern, uint64(1)))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	os.WriteFile(seg, data, 0o644)
	if _, _, err := OpenLog(dir); err == nil {
		t.Fatal("OpenLog accepted a corrupt mid-log segment")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := &Checkpoint{Ordinal: 42, Records: sampleRecords(4), Snapshot: []byte("snapshot-blob")}
	size, err := WriteCheckpoint(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Errorf("size = %d, want > 0", size)
	}
	got, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("LatestCheckpoint found nothing")
	}
	if got.Ordinal != want.Ordinal || !bytes.Equal(got.Snapshot, want.Snapshot) {
		t.Errorf("checkpoint = ord %d snap %q, want ord %d snap %q",
			got.Ordinal, got.Snapshot, want.Ordinal, want.Snapshot)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i].Ordinal != want.Records[i].Ordinal ||
			!bytes.Equal(got.Records[i].Payload, want.Records[i].Payload) {
			t.Errorf("record %d = %+v, want %+v", i, got.Records[i], want.Records[i])
		}
	}
}

// TestCheckpointTruncatedFallsBack truncates the newest checkpoint at
// every interesting boundary: LatestCheckpoint must skip it and return
// the older intact generation.
func TestCheckpointTruncatedFallsBack(t *testing.T) {
	dir := t.TempDir()
	older := &Checkpoint{Ordinal: 10, Records: sampleRecords(2), Snapshot: []byte("old")}
	if _, err := WriteCheckpoint(dir, older); err != nil {
		t.Fatal(err)
	}
	newer := &Checkpoint{Ordinal: 20, Records: sampleRecords(4), Snapshot: []byte("new")}
	if _, err := WriteCheckpoint(dir, newer); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf(ckptPattern, uint64(20)))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, headerSize, len(full) / 2, len(full) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LatestCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || got.Ordinal != 10 {
			t.Fatalf("cut %d: fell back to %+v, want ordinal 10", cut, got)
		}
	}
	// Restore the intact newer checkpoint: it wins again.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LatestCheckpoint(dir)
	if err != nil || got == nil || got.Ordinal != 20 {
		t.Fatalf("restored checkpoint not preferred: %+v, %v", got, err)
	}
}

func TestPruneCheckpoints(t *testing.T) {
	dir := t.TempDir()
	for _, ord := range []uint64{5, 10, 15, 20} {
		if _, err := WriteCheckpoint(dir, &Checkpoint{Ordinal: ord, Snapshot: []byte("s")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneCheckpoints(dir, 2); err != nil {
		t.Fatal(err)
	}
	names, err := checkpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("kept %d checkpoints %v, want 2", len(names), names)
	}
	got, err := LatestCheckpoint(dir)
	if err != nil || got == nil || got.Ordinal != 20 {
		t.Fatalf("latest after prune = %+v, %v, want ordinal 20", got, err)
	}
}
