package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Encoder writes framed records to a stream in the same wire format as
// on-disk segments (u32 length | u32 crc32c | payload), so a
// replication response body is byte-for-byte what the follower could
// have read from the leader's own log. Not safe for concurrent use.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode writes one framed record.
func (e *Encoder) Encode(r Record) error {
	e.buf = AppendRecord(e.buf[:0], r)
	_, err := e.w.Write(e.buf)
	return err
}

// Decoder reads framed records from a stream: a segment file at boot
// replay and Open, a replication response body on a follower. It is the
// one place the frame's length and CRC are checked. Decode returns
// io.EOF at a clean frame boundary, an ErrTorn-wrapped error when the
// stream ends mid-frame (a crash-torn segment tail, a connection cut),
// an ErrCorrupt-wrapped error on an invalid frame, and any other read
// error as is. Not safe for concurrent use.
type Decoder struct {
	br  *bufio.Reader
	hdr [frameHeader]byte
	buf []byte
}

// NewDecoder returns a Decoder reading from r. A *bufio.Reader of at
// least 64 KiB is used as is.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, 1<<16)}
}

// Decode reads the next record.
func (d *Decoder) Decode() (Record, error) {
	if _, err := io.ReadFull(d.br, d.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("%w: header fragment", ErrTorn)
		}
		return Record{}, err
	}
	n := int(binary.LittleEndian.Uint32(d.hdr[0:4]))
	if n < payloadMin || n > payloadMax {
		return Record{}, fmt.Errorf("%w: payload length %d outside [%d,%d]", ErrCorrupt, n, payloadMin, payloadMax)
	}
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	buf := d.buf[:n]
	if got, err := io.ReadFull(d.br, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("%w: %d of %d payload bytes", ErrTorn, got, n)
		}
		return Record{}, err
	}
	if got, want := crc32.Checksum(buf, castagnoli), binary.LittleEndian.Uint32(d.hdr[4:8]); got != want {
		return Record{}, fmt.Errorf("%w: crc %08x, want %08x", ErrCorrupt, got, want)
	}
	return decodePayload(buf)
}

// frameLen is the encoded size of r's frame.
func frameLen(r Record) int64 { return int64(frameHeader + payloadMin + 8*len(r.Vec)) }
