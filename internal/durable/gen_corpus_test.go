package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzSegmentDecode when WRITE_CORPUS is set:
//
//	WRITE_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/durable
//
// The committed entries complement the in-code f.Add seeds with
// CRC-valid multi-record streams and surgically corrupted variants, so a
// plain `go test` replays them even without -fuzz.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_CORPUS") == "" {
		t.Skip("set WRITE_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSegmentDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	for _, r := range []Record{
		{Kind: KindBatch, Ordinal: 1, Payload: []byte(`[{"class":"Person","atomic":{"name":["Alice Smith"],"email":["asmith@cs.example.edu"]}}]`)},
		{Kind: KindPoison, Ordinal: 2},
		{Kind: KindBatch, Ordinal: 2, Payload: bytes.Repeat([]byte{0xa5}, 300)},
		{Kind: KindCold, Ordinal: 2},
		{Kind: KindBatch, Ordinal: 3, Payload: nil},
	} {
		if err := appendRecord(&stream, r); err != nil {
			t.Fatal(err)
		}
	}
	full := stream.Bytes()

	flipCRC := append([]byte(nil), full...)
	flipCRC[13] ^= 0xff // first record's CRC byte
	flipKind := append([]byte(nil), full...)
	flipKind[0] = 0x7e // implausible kind, CRC now stale
	huge := []byte{KindBatch, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x3f, 1, 2, 3, 4}

	corpus := map[string][]byte{
		"valid-stream":     full,
		"torn-mid-header":  full[:len(full)-int(recordSize(Record{Kind: KindBatch, Ordinal: 3}))+headerSize/2],
		"torn-mid-payload": full[:headerSize+10],
		"crc-flip":         flipCRC,
		"kind-flip":        flipKind,
		"huge-length":      huge,
		"empty-payload":    full[len(full)-int(recordSize(Record{Kind: KindBatch, Ordinal: 3})):],
	}
	for name, data := range corpus {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", name, len(data))
	}
}
