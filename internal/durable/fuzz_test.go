package durable

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSegmentDecode throws arbitrary bytes at the record decoder and
// checks its structural invariants: the clean offset never exceeds the
// input, a clean decode consumes everything, re-encoding the decoded
// records reproduces the clean prefix byte for byte, and decoding is
// idempotent over that prefix. Any failure mode other than a clean decode
// must be reported as ErrTorn — recovery's truncate-the-tail logic relies
// on that.
func FuzzSegmentDecode(f *testing.F) {
	var seed bytes.Buffer
	appendRecord(&seed, Record{Kind: KindBatch, Ordinal: 1, Payload: []byte(`[{"class":"Person"}]`)})
	appendRecord(&seed, Record{Kind: KindPoison, Ordinal: 1})
	appendRecord(&seed, Record{Kind: KindBatch, Ordinal: 2, Payload: []byte("second")})
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{KindBatch, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // implausible length
	f.Add(bytes.Repeat([]byte{0}, headerSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := decodeRecords(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean offset %d outside [0, %d]", clean, len(data))
		}
		if err == nil && clean != len(data) {
			t.Fatalf("clean decode consumed %d of %d bytes", clean, len(data))
		}
		if err != nil && !errors.Is(err, ErrTorn) {
			t.Fatalf("decode failure is not ErrTorn: %v", err)
		}
		var enc bytes.Buffer
		for _, r := range recs {
			if err := appendRecord(&enc, r); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		if !bytes.Equal(enc.Bytes(), data[:clean]) {
			t.Fatalf("re-encoded %d records != clean prefix (%d vs %d bytes)",
				len(recs), enc.Len(), clean)
		}
		again, clean2, err2 := decodeRecords(data[:clean])
		if err2 != nil || clean2 != clean || len(again) != len(recs) {
			t.Fatalf("decode not idempotent over clean prefix: %d/%d records, err %v",
				len(again), len(recs), err2)
		}
	})
}
