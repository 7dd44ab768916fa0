package wal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the frame Decoder, the one
// reader that boot replay, Open and the replication client all run,
// and decodes every frame of the input. The contract under attack:
// Decode never panics, the stream ends in io.EOF exactly at the end of
// the input or in a clean ErrTorn or ErrCorrupt, and every decoded
// record re-encodes to exactly the bytes it was decoded from (so
// replay→rewrite cycles cannot drift).
func FuzzWALDecode(f *testing.F) {
	upsert := AppendRecord(nil, Record{Seq: 1, Op: OpUpsert, ID: 3, Vec: []float64{1, -2.5, math.Inf(1)}})
	del := AppendRecord(nil, Record{Seq: 42, Op: OpDelete, ID: 0})
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(upsert)
	f.Add(del)
	truncated := AppendRecord(nil, Record{Seq: 2, Op: OpUpsert, ID: 9, Vec: []float64{3}})
	f.Add(truncated[:len(truncated)-3])
	badCRC := AppendRecord(nil, Record{Seq: 7, Op: OpDelete, ID: 1})
	badCRC[5] ^= 0x80
	f.Add(badCRC)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3})
	f.Add(append(append([]byte{}, upsert...), del...))
	f.Add(append(append([]byte{}, del...), truncated[:len(truncated)-3]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		off := 0
		for {
			rec, err := dec.Decode()
			if err == io.EOF {
				if off != len(data) {
					t.Fatalf("clean end at byte %d of %d", off, len(data))
				}
				return
			}
			if err != nil {
				if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			if rec.Op != OpUpsert && rec.Op != OpDelete {
				t.Fatalf("decoded impossible op %d", rec.Op)
			}
			if rec.Op == OpDelete && rec.Vec != nil {
				t.Fatal("delete decoded with a vector")
			}
			// Round trip: the frame must re-encode to exactly the bytes
			// it was decoded from.
			reenc := AppendRecord(nil, rec)
			if int64(len(reenc)) != frameLen(rec) || off+len(reenc) > len(data) {
				t.Fatalf("frame of %d bytes at offset %d of a %d-byte input", len(reenc), off, len(data))
			}
			if !bytes.Equal(reenc, data[off:off+len(reenc)]) {
				t.Fatalf("re-encoded frame at offset %d differs from its input", off)
			}
			off += len(reenc)
		}
	})
}
