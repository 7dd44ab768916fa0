// v3 snapshot format ("EHNASNP3"): the store's one on-disk format, flat
// and page-aligned so the same file serves two loaders. The copy
// loader (RAM mode) reads it once and materializes slabs; the mmap
// loader (cold mode, mmapstore_unix.go) maps it read-only and
// serves VecViews straight out of the mapping, so boot cost is a page
// table — not a heap — and the resident set is whatever the access
// pattern actually touches.
//
// Layout (all integers little-endian; the format is defined LE and the
// casting loaders refuse to run on big-endian hosts):
//
//	header (64 B, CRC32C-terminated)
//	  [0:8)   magic "EHNASNP3"
//	  [8:12)  version u32 = 3
//	  [12:16) dim u32
//	  [16:20) precision u32 (Precision enum; 0 = legacy float64)
//	  [20:24) run count u32 (1; files written while the store was
//	          striped over lock shards have one run per shard)
//	  [24:32) vector count u64
//	  [32:40) WAL watermark u64
//	  [40:44) section alignment u32 = 4096
//	  [44:48) section count u32 (= 3 × runs)
//	  [48:56) section table offset u64
//	  [56:60) reserved u32 = 0
//	  [60:64) CRC32C of bytes [0:60)
//	sections, each padded to the section alignment:
//	  per run, in run order: ids | payload | norms (f32) or sq8 sidecar
//	  (sq8)
//	section table: sectionCount × 40 B entries, then CRC32C of the
//	  entry bytes
//	  entry: kind u32 | run u32 | rows u64 | offset u64 | length u64 |
//	         CRC32C u32 | reserved u32
//
// Sections hold the slab representations verbatim: ids are ascending
// uint32 per run (so the mmap loader resolves membership by binary
// search instead of materializing an id→slot map), payload is the
// native-precision row data, norms are float64, and the sq8 sidecar is
// the 32-byte sq8Meta record. 4096-byte alignment makes every cast
// pointer alignment-safe and lets madvise target vector slabs
// precisely. Every section carries its own CRC32C so a single flipped
// bit anywhere in the file is rejected at open, not served as a
// garbage vector.
package embstore

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"ehna/internal/graph"
	"ehna/internal/vecmath"
)

const (
	v3Magic        = "EHNASNP3"
	v3Version      = 3
	v3HeaderSize   = 64
	v3SectionAlign = 4096
	v3EntrySize    = 40
)

type v3Kind uint32

const (
	v3KindIDs     v3Kind = 1
	v3KindPayload v3Kind = 2
	v3KindNorms   v3Kind = 3
	v3KindMeta    v3Kind = 4
)

var v3CRC = crc32.MakeTable(crc32.Castagnoli)

// ErrNotV3Snapshot is wrapped by the loaders when a file does not start
// with the v3 magic: some other format (a gob image written before the
// v3 format, a model checkpoint), not a damaged v3 snapshot.
var ErrNotV3Snapshot = errors.New("not a v3 snapshot")

// legacyF64 is the header tag of the float64 layout (8-byte lanes,
// float64 norms) that versions before the two-precision store wrote by
// default. No store serves it; LoadSnapshotV3At narrows it.
const legacyF64 Precision = 0

// ErrF64Snapshot is wrapped by LoadSnapshotV3 and OpenMmap — the
// loaders that keep a snapshot's own layout — for a valid legacy
// float64 snapshot. LoadSnapshotV3At converts one to F32 or SQ8.
var ErrF64Snapshot = errors.New("legacy float64 snapshot: convert it by loading at f32 or sq8")

// The casting loaders and writer reinterpret slab memory as raw bytes,
// so the on-disk format inherits the host byte order; it is defined as
// little-endian and refused elsewhere.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// The sq8 sidecar section is the in-memory sq8Meta record written
// verbatim; these asserts pin the layout the format depends on.
var (
	_ [unsafe.Sizeof(sq8Meta{})]byte           = [32]byte{}
	_ [unsafe.Offsetof(sq8Meta{}.Offset)]byte  = [8]byte{}
	_ [unsafe.Offsetof(sq8Meta{}.Norm)]byte    = [16]byte{}
	_ [unsafe.Offsetof(sq8Meta{}.CodeSum)]byte = [24]byte{}
	_ [unsafe.Sizeof(graph.NodeID(0))]byte     = [4]byte{}
)

// sliceBytes reinterprets a slice's backing array as raw bytes.
func sliceBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// castSlice reinterprets raw bytes as a []T. b must be a whole number
// of elements and aligned for T (section alignment guarantees both).
func castSlice[T any](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(*new(T))))
}

// v3PayloadRow returns the payload bytes one row occupies at prec.
func v3PayloadRow(prec Precision, dim int) int {
	switch prec {
	case F32:
		return 4 * dim
	case SQ8:
		return dim
	default: // legacyF64
		return 8 * dim
	}
}

// v3RowBytes returns the expected section length for rows rows of kind k.
func v3RowBytes(k v3Kind, prec Precision, dim int, rows uint64) (uint64, bool) {
	var per uint64
	switch k {
	case v3KindIDs:
		per = 4
	case v3KindPayload:
		per = uint64(v3PayloadRow(prec, dim))
	case v3KindNorms:
		if prec == SQ8 {
			return 0, false
		}
		per = 8
	case v3KindMeta:
		if prec != SQ8 {
			return 0, false
		}
		per = 32
	default:
		return 0, false
	}
	return rows * per, true
}

type v3Section struct {
	kind   v3Kind
	run    uint32
	rows   uint64
	off    uint64
	length uint64
	crc    uint32
}

type v3Layout struct {
	dim       int
	prec      Precision
	runs      int
	count     uint64
	watermark uint64
	tableOff  uint64
	sections  []v3Section
}

// runSections groups a run's sections by kind: [ids, payload,
// norms-or-meta].
func (l *v3Layout) runSections(run int) (ids, payload, extra *v3Section) {
	for i := range l.sections {
		sec := &l.sections[i]
		if int(sec.run) != run {
			continue
		}
		switch sec.kind {
		case v3KindIDs:
			ids = sec
		case v3KindPayload:
			payload = sec
		case v3KindNorms, v3KindMeta:
			extra = sec
		}
	}
	return ids, payload, extra
}

func le32(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}
func le64(b []byte, off int) uint64 {
	return uint64(le32(b, off)) | uint64(le32(b, off+4))<<32
}
func putLE32(b []byte, off int, v uint32) {
	b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func putLE64(b []byte, off int, v uint64) {
	putLE32(b, off, uint32(v))
	putLE32(b, off+4, uint32(v>>32))
}

// parseV3 validates the header and section table of a v3 snapshot image
// and returns its layout. It checks structure and the header/table CRCs
// only — touching O(table) bytes, so an mmap open faults in a handful
// of pages — and leaves per-section payload CRCs to verifySections.
// Every field is bounds- and overflow-checked before use: this is the
// surface FuzzV3Parse hammers.
func parseV3(data []byte) (*v3Layout, error) {
	fail := func(format string, args ...any) (*v3Layout, error) {
		return nil, fmt.Errorf("embstore: v3 snapshot: "+format, args...)
	}
	if len(data) < len(v3Magic) || string(data[:len(v3Magic)]) != v3Magic {
		return nil, fmt.Errorf("embstore: %w: %d bytes without the %q magic", ErrNotV3Snapshot, len(data), v3Magic)
	}
	if len(data) < v3HeaderSize {
		return fail("%d bytes, want at least the %d-byte header", len(data), v3HeaderSize)
	}
	if got := crc32.Checksum(data[:60], v3CRC); got != le32(data, 60) {
		return fail("header CRC mismatch (got %08x, stored %08x)", got, le32(data, 60))
	}
	if v := le32(data, 8); v != v3Version {
		return fail("version %d, want %d", v, v3Version)
	}
	l := &v3Layout{
		dim:       int(le32(data, 12)),
		prec:      Precision(le32(data, 16)),
		runs:      int(le32(data, 20)),
		count:     le64(data, 24),
		watermark: le64(data, 32),
		tableOff:  le64(data, 48),
	}
	if l.dim < 1 || l.dim > 1<<20 {
		return fail("dim %d out of range", l.dim)
	}
	if l.prec != legacyF64 && l.prec != F32 && l.prec != SQ8 {
		return fail("unknown precision %d", int(l.prec))
	}
	if l.runs < 1 || l.runs > 1<<16 {
		return fail("run count %d out of range", l.runs)
	}
	if a := le32(data, 40); a != v3SectionAlign {
		return fail("section alignment %d, want %d", a, v3SectionAlign)
	}
	secCount := le32(data, 44)
	if secCount != uint32(3*l.runs) {
		return fail("%d sections for %d runs, want %d", secCount, l.runs, 3*l.runs)
	}
	tableLen := uint64(secCount)*v3EntrySize + 4
	if l.tableOff < v3HeaderSize || l.tableOff%8 != 0 ||
		l.tableOff > uint64(len(data)) || tableLen > uint64(len(data))-l.tableOff {
		return fail("section table [%d, +%d) outside %d-byte file", l.tableOff, tableLen, len(data))
	}
	table := data[l.tableOff : l.tableOff+tableLen]
	entries := table[:len(table)-4]
	if got := crc32.Checksum(entries, v3CRC); got != le32(table, len(entries)) {
		return fail("section table CRC mismatch")
	}
	l.sections = make([]v3Section, secCount)
	// seen[run] bit-tracks which kinds that run has contributed; a
	// valid file has exactly ids+payload+extra per run.
	seen := make([]uint8, l.runs)
	var total uint64
	var rowsPerRun = make([]uint64, l.runs)
	for i := range l.sections {
		e := entries[i*v3EntrySize:]
		sec := v3Section{
			kind:   v3Kind(le32(e, 0)),
			run:    le32(e, 4),
			rows:   le64(e, 8),
			off:    le64(e, 16),
			length: le64(e, 24),
			crc:    le32(e, 32),
		}
		if int(sec.run) >= l.runs {
			return fail("section %d: run %d out of range", i, sec.run)
		}
		want, ok := v3RowBytes(sec.kind, l.prec, l.dim, sec.rows)
		if !ok || sec.rows > 1<<40 {
			return fail("section %d: kind %d invalid for precision %s", i, sec.kind, l.prec)
		}
		if sec.length != want {
			return fail("section %d: %d bytes for %d rows, want %d", i, sec.length, sec.rows, want)
		}
		if sec.off < v3HeaderSize || sec.off%8 != 0 ||
			sec.off > l.tableOff || sec.length > l.tableOff-sec.off {
			return fail("section %d: [%d, +%d) outside data region", i, sec.off, sec.length)
		}
		var bit uint8
		switch sec.kind {
		case v3KindIDs:
			bit = 1
		case v3KindPayload:
			bit = 2
		default:
			bit = 4
		}
		if seen[sec.run]&bit != 0 {
			return fail("section %d: duplicate kind %d for run %d", i, sec.kind, sec.run)
		}
		seen[sec.run] |= bit
		if sec.kind == v3KindIDs {
			rowsPerRun[sec.run] = sec.rows
			total += sec.rows
		}
		l.sections[i] = sec
	}
	for run, bits := range seen {
		if bits != 7 {
			return fail("run %d is missing sections (have mask %03b)", run, bits)
		}
	}
	for i := range l.sections {
		if sec := &l.sections[i]; sec.rows != rowsPerRun[sec.run] {
			return fail("section %d: %d rows, ids section has %d", i, sec.rows, rowsPerRun[sec.run])
		}
	}
	if total != l.count {
		return fail("header count %d, sections hold %d", l.count, total)
	}
	return l, nil
}

// verifySections checks every section's CRC32C against the image and
// that each run's id section is strictly ascending (the mmap loader
// binary-searches them). O(file) reads — callers on an mmap image
// should advise sequential first and drop the pages after.
func (l *v3Layout) verifySections(data []byte) error {
	for i := range l.sections {
		sec := &l.sections[i]
		b := data[sec.off : sec.off+sec.length]
		if got := crc32.Checksum(b, v3CRC); got != sec.crc {
			return fmt.Errorf("embstore: v3 snapshot: section %d (kind %d, run %d) CRC mismatch (got %08x, stored %08x)",
				i, sec.kind, sec.run, got, sec.crc)
		}
		if sec.kind == v3KindIDs {
			ids := castSlice[graph.NodeID](b)
			for r := 1; r < len(ids); r++ {
				if ids[r] <= ids[r-1] {
					return fmt.Errorf("embstore: v3 snapshot: run %d ids not strictly ascending at row %d", sec.run, r)
				}
			}
		}
	}
	return nil
}

// rowRef locates one live row for the snapshot writer.
type rowRef struct {
	id  graph.NodeID
	row int
}

func cmpRowRef(a, b rowRef) int { return cmp.Compare(a.id, b.id) }

// sortedRowsLocked returns every live row in ascending id order. Caller
// holds s.mu.
func (s *Store) sortedRowsLocked() []rowRef {
	out := make([]rowRef, 0, s.lenLocked())
	s.eachLiveLocked(func(id graph.NodeID, row int) { out = append(out, rowRef{id: id, row: row}) })
	slices.SortFunc(out, cmpRowRef)
	return out
}

// v3Writer tracks the write offset and per-section CRC over a buffered
// writer, sticky-erroring so call sites stay linear.
type v3Writer struct {
	w   *bufio.Writer
	off uint64
	crc uint32
	err error
}

func (vw *v3Writer) write(b []byte) {
	if vw.err != nil {
		return
	}
	n, err := vw.w.Write(b)
	vw.off += uint64(n)
	vw.crc = crc32.Update(vw.crc, v3CRC, b[:n])
	vw.err = err
}

var v3Zeros [v3SectionAlign]byte

// pad advances to the next section-alignment boundary. Padding is
// outside sections: not CRC'd, never read back.
func (vw *v3Writer) pad() {
	if rem := vw.off % v3SectionAlign; rem != 0 {
		crc := vw.crc
		vw.write(v3Zeros[:v3SectionAlign-rem])
		vw.crc = crc
	}
}

// SaveSnapshotV3 writes a v3 snapshot of the store to ws, stamped with
// a WAL watermark: the sequence number through which the image is known
// complete (0 outside a WAL pipeline), handed back by the loaders so
// replay can skip everything the snapshot already contains. The caller
// must guarantee all records ≤ watermark were applied before the call
// starts; records applied concurrently (seq > watermark) may bleed into
// the image, which replay-idempotence makes harmless. The header lands
// last — a zero placeholder goes out first and is patched by seeking
// back once every section CRC is known — so a torn write is never
// parseable. The store is serialized as one run under one hold of its
// read lock (a concurrent upsert is either fully included or fully
// absent), and a cold store folds its overlay over the mapped base as
// it serializes.
func (s *Store) SaveSnapshotV3(ws io.WriteSeeker, watermark uint64) error {
	if !hostLittleEndian {
		return fmt.Errorf("embstore: v3 snapshots require a little-endian host")
	}
	vw := &v3Writer{w: bufio.NewWriterSize(ws, 1<<16)}
	vw.write(make([]byte, v3HeaderSize))
	vw.pad()

	sections := make([]v3Section, 0, 3)
	begin := func(kind v3Kind, n int) *v3Section {
		vw.crc = 0
		sections = append(sections, v3Section{kind: kind, rows: uint64(n), off: vw.off})
		return &sections[len(sections)-1]
	}
	end := func(sec *v3Section) {
		sec.length = vw.off - sec.off
		sec.crc = vw.crc
		vw.pad()
	}
	s.mu.RLock()
	rows := s.sortedRowsLocked()
	n := len(rows)

	sec := begin(v3KindIDs, n)
	for _, r := range rows {
		var idb [4]byte
		putLE32(idb[:], 0, uint32(r.id))
		vw.write(idb[:])
	}
	end(sec)

	var v VecView
	sec = begin(v3KindPayload, n)
	for _, r := range rows {
		s.viewRow(r.row, &v)
		if s.prec == F32 {
			vw.write(sliceBytes(v.F32))
		} else {
			vw.write(sliceBytes(v.Code))
		}
	}
	end(sec)

	if s.prec == SQ8 {
		metas := make([]sq8Meta, n)
		for i, r := range rows {
			s.viewRow(r.row, &v)
			metas[i] = sq8Meta{Scale: v.Scale, Offset: v.Offset, Norm: v.Norm, CodeSum: v.CodeSum}
		}
		// Bytes 28–31 of a record (after codeSum, layout asserted
		// above) are padding no field covers. Zero them so two saves of
		// one store are byte-identical.
		raw := sliceBytes(metas)
		for o := 28; o < len(raw); o += 32 {
			clear(raw[o : o+4])
		}
		sec = begin(v3KindMeta, n)
		vw.write(raw)
		end(sec)
	} else {
		norms := make([]float64, n)
		for i, r := range rows {
			s.viewRow(r.row, &v)
			norms[i] = v.Norm
		}
		sec = begin(v3KindNorms, n)
		vw.write(sliceBytes(norms))
		end(sec)
	}
	s.mu.RUnlock()

	tableOff := vw.off
	table := make([]byte, len(sections)*v3EntrySize+4)
	for i, sec := range sections {
		e := table[i*v3EntrySize:]
		putLE32(e, 0, uint32(sec.kind))
		putLE32(e, 4, sec.run)
		putLE64(e, 8, sec.rows)
		putLE64(e, 16, sec.off)
		putLE64(e, 24, sec.length)
		putLE32(e, 32, sec.crc)
	}
	putLE32(table, len(table)-4, crc32.Checksum(table[:len(table)-4], v3CRC))
	vw.write(table)
	if vw.err == nil {
		vw.err = vw.w.Flush()
	}
	if vw.err != nil {
		return fmt.Errorf("embstore: v3 save: %v", vw.err)
	}

	hdr := make([]byte, v3HeaderSize)
	copy(hdr, v3Magic)
	putLE32(hdr, 8, v3Version)
	putLE32(hdr, 12, uint32(s.dim))
	putLE32(hdr, 16, uint32(s.prec))
	putLE32(hdr, 20, 1)
	putLE64(hdr, 24, uint64(n))
	putLE64(hdr, 32, watermark)
	putLE32(hdr, 40, v3SectionAlign)
	putLE32(hdr, 44, uint32(len(sections)))
	putLE64(hdr, 48, tableOff)
	putLE32(hdr, 60, crc32.Checksum(hdr[:60], v3CRC))
	if _, err := ws.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("embstore: v3 save: %v", err)
	}
	if _, err := ws.Write(hdr); err != nil {
		return fmt.Errorf("embstore: v3 save: %v", err)
	}
	return nil
}

// LoadSnapshotV3 reads a v3 snapshot into a heap-resident store at the
// snapshot's native precision, returning the WAL watermark it was
// stamped with. A legacy float64 snapshot has no native store:
// ErrF64Snapshot. The second argument is ignored: it was the lock-shard
// count of a store that is one slab now, and it stays only until the
// callers that pass DefaultShards drop it.
func LoadSnapshotV3(path string, _ int) (*Store, uint64, error) {
	return loadSnapshotV3(path, 0)
}

// LoadSnapshotV3At is LoadSnapshotV3 at an explicit target precision
// (F32 or SQ8), regardless of the precision the snapshot was written
// in. Same-precision loads are lossless (bit-identical slabs); cross-
// precision loads dequantize each row and re-encode it on the way in,
// carrying the original norm along — the convert-on-boot path that
// lets an f32 snapshot seed an sq8 daemon (and vice versa), and the
// only way in for a legacy float64 one.
func LoadSnapshotV3At(path string, prec Precision) (*Store, uint64, error) {
	if prec != F32 && prec != SQ8 {
		return nil, 0, fmt.Errorf("embstore: v3 load: unknown precision %d (want F32 or SQ8)", prec)
	}
	return loadSnapshotV3(path, prec)
}

// loadSnapshotV3 loads at target; the zero target is the snapshot's own
// precision. Every run of the file lands in the one slab.
func loadSnapshotV3(path string, target Precision) (*Store, uint64, error) {
	if !hostLittleEndian {
		return nil, 0, fmt.Errorf("embstore: v3 snapshots require a little-endian host")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("embstore: v3 load: %v", err)
	}
	l, err := parseV3(data)
	if err != nil {
		return nil, 0, err
	}
	if err := l.verifySections(data); err != nil {
		return nil, 0, err
	}
	if target == 0 {
		if l.prec == legacyF64 {
			return nil, 0, fmt.Errorf("embstore: v3 load %s: %w", path, ErrF64Snapshot)
		}
		target = l.prec
	}
	s, err := New(l.dim, target)
	if err != nil {
		return nil, 0, err
	}
	s.reserveLocked(int(l.count)) // s is not shared yet; the sections bound the count
	dim := l.dim
	var buf []float64
	if target != l.prec {
		buf = make([]float64, dim)
	}
	for run := 0; run < l.runs; run++ {
		idsSec, paySec, extraSec := l.runSections(run)
		ids := castSlice[graph.NodeID](data[idsSec.off : idsSec.off+idsSec.length])
		pay := data[paySec.off : paySec.off+paySec.length]
		extra := data[extraSec.off : extraSec.off+extraSec.length]
		rowB := v3PayloadRow(l.prec, dim)
		for r, id := range ids {
			row := pay[r*rowB : (r+1)*rowB]
			if target == l.prec {
				// Lossless path: move the disk representation straight into
				// the slab, preserving codes and sidecars bit for bit.
				slot := s.ensureSlot(id)
				switch l.prec {
				case F32:
					copy(s.vecs32[slot*dim:(slot+1)*dim], castSlice[float32](row))
					s.norms[slot] = castSlice[float64](extra)[r]
				case SQ8:
					copy(s.codes[slot*dim:(slot+1)*dim], castSlice[int8](row))
					s.meta[slot] = castSlice[sq8Meta](extra)[r]
				}
				continue
			}
			var norm float64
			switch l.prec {
			case legacyF64:
				copy(buf, castSlice[float64](row))
				norm = castSlice[float64](extra)[r]
			case F32:
				vecmath.F32To64(buf, castSlice[float32](row))
				norm = castSlice[float64](extra)[r]
			case SQ8:
				m := castSlice[sq8Meta](extra)[r]
				vecmath.DecodeSQ8(buf, castSlice[int8](row), m.Scale, m.Offset)
				norm = m.Norm
			}
			if _, err := s.upsertNorm(id, buf, norm); err != nil {
				return nil, 0, err
			}
		}
	}
	if s.Len() != int(l.count) && l.count <= math.MaxInt {
		return nil, 0, fmt.Errorf("embstore: v3 load: %d rows materialized, header says %d", s.Len(), l.count)
	}
	return s, l.watermark, nil
}

// attachColdBase points the store's base at the mapped image, one run
// per section triple, and empties the overlay: the structural half of
// an mmap open (OpenMmap, where the lock is uncontended) and of a
// rotation fold (Remap, where the store flips under its write lock
// while readers wait at most for it). Every row is renumbered: the base
// rows in the file's order, and no slab row. The caller owns the
// lifetime of data.
func (s *Store) attachColdBase(l *v3Layout, data []byte) {
	b := &coldBase{runs: make([]baseRun, l.runs)}
	for i := range b.runs {
		idsSec, paySec, extraSec := l.runSections(i)
		r := &b.runs[i]
		r.first = b.rows
		r.ids = castSlice[graph.NodeID](data[idsSec.off : idsSec.off+idsSec.length])
		pay := data[paySec.off : paySec.off+paySec.length]
		extra := data[extraSec.off : extraSec.off+extraSec.length]
		switch s.prec {
		case F32:
			r.vecs32 = castSlice[float32](pay)
			r.norms = castSlice[float64](extra)
		case SQ8:
			r.codes = castSlice[int8](pay)
			r.meta = castSlice[sq8Meta](extra)
		}
		b.rows += len(r.ids)
	}
	s.mu.Lock()
	s.base = b
	clear(s.slot)
	s.free, s.dead = s.free[:0], nil
	s.ids = s.ids[:0]
	s.vecs32 = s.vecs32[:0]
	s.codes = s.codes[:0]
	s.norms = s.norms[:0]
	s.meta = s.meta[:0]
	s.mu.Unlock()
}

// payloadBytes sums the vector-slab section lengths — the bytes
// madvise(MADV_RANDOM) covers and the denominator of the cold tier's
// residency ratio.
func (l *v3Layout) payloadBytes() int64 {
	var n int64
	for i := range l.sections {
		if l.sections[i].kind == v3KindPayload {
			n += int64(l.sections[i].length)
		}
	}
	return n
}
