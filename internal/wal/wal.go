// Package wal is the write-ahead log that makes the serving daemon a
// system of record: every upsert/delete is appended (and made durable
// per the fsync policy) before it is applied to the embstore and index,
// so a crash loses nothing that was acknowledged.
//
// On disk a log is a directory of segment files named by the sequence
// number of their first record (00000000000000000001.wal, ...). Each
// record is a length-prefixed, CRC32C-framed frame:
//
//	u32 LE payload length | u32 LE crc32c(payload) | payload
//	payload = u8 op | u64 LE seq | u32 LE node id | float64 LE vector...
//
// Appends group-commit: concurrent appenders write to one buffered
// writer, and under SyncAlways the first to reach the fsync gate
// flushes everyone queued behind it, so an fsync is paid per commit
// cohort rather than per record. Replay iterates records in sequence
// order and tolerates a torn final record (the tail a crash mid-write
// leaves behind): it stops cleanly at the last valid frame and reports
// where. Open repairs such a tail by truncating it, so the next append
// starts from a clean frame boundary.
//
// Snapshot integration: Rotate seals the active segment and returns
// the sequence number of its last record — the watermark a snapshot
// taken afterwards covers — and TruncateThrough deletes only sealed
// segments entirely at or below a watermark, so records newer than the
// snapshot (and anything still being appended) are never dropped.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ehna/internal/faultfs"
	"ehna/internal/graph"
)

// Op is the record type.
type Op uint8

const (
	// OpUpsert inserts or replaces a vector.
	OpUpsert Op = 1
	// OpDelete removes a vector.
	OpDelete Op = 2
)

// String returns the op's name.
func (o Op) String() string {
	switch o {
	case OpUpsert:
		return "upsert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Record is one logged mutation. Vec is nil for deletes.
type Record struct {
	Seq uint64
	Op  Op
	ID  graph.NodeID
	Vec []float64
}

const (
	frameHeader = 8         // u32 length + u32 crc
	payloadMin  = 1 + 8 + 4 // op + seq + id
	payloadMax  = 1 << 26   // 64 MiB: anything larger is corruption, not a record
	segSuffix   = ".wal"
	segNameLen  = 20 // zero-padded decimal first-seq
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports an incomplete final frame: more bytes were promised
// (by the length prefix, or the header itself) than are present. It is
// the signature a crash mid-append leaves and is tolerated at the tail.
var ErrTorn = errors.New("wal: torn record")

// ErrCorrupt reports a structurally invalid frame: CRC mismatch,
// unknown op, or an impossible length.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrGap reports that replay cannot start at the requested watermark:
// the oldest surviving segment begins after it, so the intervening
// records no longer exist (snapshot truncation moved past the caller).
// A replication follower that hits it must re-bootstrap from a
// snapshot instead of streaming.
var ErrGap = errors.New("wal: records truncated before replay watermark")

// ErrDiverged reports that AppendAt was handed a record whose sequence
// number does not continue the local log — the replication stream and
// the log disagree about history. Refused before any byte is written,
// so it never poisons the log the way a persistence failure does.
var ErrDiverged = errors.New("wal: replication stream diverged from the local log")

// AppendRecord appends the framed encoding of r to dst and returns the
// extended slice.
func AppendRecord(dst []byte, r Record) []byte {
	payload := payloadMin + 8*len(r.Vec)
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader+payload)...)
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(payload))
	p := b[frameHeader:]
	p[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(p[1:9], r.Seq)
	binary.LittleEndian.PutUint32(p[9:13], uint32(r.ID))
	for i, v := range r.Vec {
		binary.LittleEndian.PutUint64(p[13+8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(p, castagnoli))
	return dst
}

// decodePayload decodes a length-sane, CRC-validated payload.
func decodePayload(p []byte) (Record, error) {
	n := len(p)
	r := Record{
		Op:  Op(p[0]),
		Seq: binary.LittleEndian.Uint64(p[1:9]),
		ID:  graph.NodeID(binary.LittleEndian.Uint32(p[9:13])),
	}
	switch r.Op {
	case OpDelete:
		if n != payloadMin {
			return Record{}, fmt.Errorf("%w: delete payload of %d bytes", ErrCorrupt, n)
		}
	case OpUpsert:
		if (n-payloadMin)%8 != 0 {
			return Record{}, fmt.Errorf("%w: upsert payload of %d bytes", ErrCorrupt, n)
		}
		r.Vec = make([]float64, (n-payloadMin)/8)
		for i := range r.Vec {
			r.Vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[13+8*i:]))
		}
	default:
		return Record{}, fmt.Errorf("%w: unknown op %d", ErrCorrupt, p[0])
	}
	return r, nil
}

// SyncPolicy selects when appends are fsynced.
type SyncPolicy int

const (
	// SyncAlways makes every append durable before it returns,
	// group-committed across concurrent appenders. The crash-safe
	// default: an acknowledged write survives power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs in the background every Options.Interval. A
	// crash can lose up to one interval of acknowledged writes; an OS
	// that stays up loses nothing (data is in the page cache).
	SyncInterval
	// SyncNever leaves fsync to segment rotation and Close. Fastest;
	// durability rides entirely on the OS page cache.
	SyncNever
)

// ParseSyncPolicy maps a -fsync flag value onto a policy: "always",
// "never", or a duration like "250ms" (the background sync interval).
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch strings.ToLower(s) {
	case "", "always":
		return SyncAlways, 0, nil
	case "never", "none":
		return SyncNever, 0, nil
	default:
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("wal: fsync policy %q (want always, never, or a positive duration)", s)
		}
		return SyncInterval, d, nil
	}
}

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the background fsync period under SyncInterval
	// (default 100ms).
	Interval time.Duration
	// FS is the filesystem the log persists through (default the real
	// one). Fault drills inject a faultfs.Injector here.
	FS faultfs.FS
	// FirstSeq is the sequence number the log starts at when the
	// directory holds no segments yet (default 1). A follower
	// bootstrapped from a snapshot at watermark W opens its log with
	// FirstSeq W+1, so replicated records keep the leader's numbering
	// and a later Replay(W) finds no gap.
	FirstSeq uint64
}

func (o *Options) fill() {
	if o.Sync == SyncInterval && o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = faultfs.OS()
	}
	if o.FirstSeq == 0 {
		o.FirstSeq = 1
	}
}

// sealedSeg is a closed segment: records [first, last] in path.
type sealedSeg struct {
	path        string
	first, last uint64
	bytes       int64
}

// Log is an append-only write-ahead log over a directory of segments.
// Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex // buffer writes, seq assignment, segment bookkeeping
	f        faultfs.File
	bw       *bufio.Writer
	enc      []byte // frame-encoding scratch
	nextSeq  uint64
	segFirst uint64 // first seq of the active segment
	segBytes int64  // bytes appended to the active segment
	sealed   []sealedSeg
	closed   bool

	syncMu  sync.Mutex // the group-commit gate; also serializes f swaps vs fsync
	syncErr error      // sticky: a failed fsync poisons the log
	durable atomic.Uint64

	stopInterval chan struct{}
	intervalDone chan struct{}
}

// segName returns the file name of the segment whose first record is seq.
func segName(seq uint64) string {
	return fmt.Sprintf("%0*d%s", segNameLen, seq, segSuffix)
}

// parseSegName extracts the first-seq from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) || len(name) != segNameLen+len(segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[:segNameLen], 10, 64)
	return n, err == nil && n > 0
}

// listSegments returns the directory's segment files sorted by first seq.
func listSegments(fsys faultfs.FS, dir string) ([]sealedSeg, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []sealedSeg
	for _, e := range ents {
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, sealedSeg{path: filepath.Join(dir, e.Name()), first: first, bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	// A sealed segment's last record is the next segment's first minus
	// one; the active (final) segment's last is discovered by scanning.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].first <= segs[i].first {
			return nil, fmt.Errorf("wal: segments %s and %s out of order", segs[i].path, segs[i+1].path)
		}
		segs[i].last = segs[i+1].first - 1
	}
	return segs, nil
}

// scanSegment walks every frame of one segment file, calling fn for
// each record, and returns the byte offset and sequence number after
// the last valid record. A torn or corrupt tail, or a sequence break, is
// reported via torn (with the offset where it starts), not as an error;
// read errors and fn errors abort.
func scanSegment(fsys faultfs.FS, path string, firstSeq uint64, fn func(Record) error) (end int64, last uint64, torn bool, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	dec := NewDecoder(bufio.NewReaderSize(f, 1<<20))
	last = firstSeq - 1
	for {
		rec, err := dec.Decode()
		switch {
		case err == io.EOF:
			return end, last, false, nil
		case errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt) || err == nil && rec.Seq != last+1:
			return end, last, true, nil
		case err != nil:
			return end, last, false, fmt.Errorf("wal: %s: reading the frame at offset %d: %w", path, end, err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return end, last, false, err
			}
		}
		end += frameLen(rec)
		last = rec.Seq
	}
}

// Info summarizes a Replay pass.
type Info struct {
	// LastSeq is the sequence number of the last valid record (0 when
	// the log is empty).
	LastSeq uint64
	// Records is the number of records passed to fn.
	Records int
	// Torn reports that the final segment ended in an invalid frame,
	// which replay skipped — the expected residue of a crash mid-append.
	Torn bool
	// TornPath/TornOffset locate the invalid tail when Torn is set.
	TornPath   string
	TornOffset int64
}

// Replay iterates every record with Seq > after, in sequence order,
// across all segments of dir. It tolerates a torn final record in the
// last segment (reported via Info.Torn); corruption anywhere else —
// including a whole missing segment — is an error. A missing or empty
// directory replays zero records.
func Replay(dir string, after uint64, fn func(Record) error) (Info, error) {
	return ReplayFS(faultfs.OS(), dir, after, fn)
}

// ReplayFS is Replay reading through an explicit filesystem, so fault
// drills can exercise boot-time recovery too.
func ReplayFS(fsys faultfs.FS, dir string, after uint64, fn func(Record) error) (Info, error) {
	return ReplayRangeFS(fsys, dir, after, math.MaxUint64, fn)
}

// ReplayRange is Replay bounded above: it iterates records with
// after < Seq ≤ upTo and stops cleanly once the bound is passed,
// without scanning the rest of the log. The replication stream handler
// uses it to ship exactly the durable prefix while appends continue.
func ReplayRange(dir string, after, upTo uint64, fn func(Record) error) (Info, error) {
	return ReplayRangeFS(faultfs.OS(), dir, after, upTo, fn)
}

// errStopReplay threads the upTo early-stop through scanSegment's
// fn-error abort path; it never escapes this package.
var errStopReplay = errors.New("wal: stop replay")

// ReplayRangeFS is ReplayRange reading through an explicit filesystem.
func ReplayRangeFS(fsys faultfs.FS, dir string, after, upTo uint64, fn func(Record) error) (Info, error) {
	var info Info
	if upTo <= after {
		return info, nil
	}
	segs, err := listSegments(fsys, dir)
	if os.IsNotExist(err) {
		return info, nil
	}
	if err != nil {
		return info, err
	}
	// The oldest surviving segment must reach back to the replay start:
	// a gap here means records between the snapshot watermark and the
	// log were lost (mismatched snapshot restored over a truncated log,
	// segments deleted by hand) — refuse to boot on silent data loss.
	if len(segs) > 0 && segs[0].first > after+1 {
		return info, fmt.Errorf("%w: oldest segment starts at seq %d but replay begins after %d: records %d-%d are missing",
			ErrGap, segs[0].first, after, after+1, segs[0].first-1)
	}
	for i, seg := range segs {
		final := i == len(segs)-1
		if i > 0 && seg.first != segs[i-1].last+1 {
			return info, fmt.Errorf("wal: gap between segments: %s ends at %d, %s starts at %d",
				segs[i-1].path, segs[i-1].last, seg.path, seg.first)
		}
		if seg.first > upTo {
			return info, nil
		}
		end, last, torn, err := scanSegment(fsys, seg.path, seg.first, func(r Record) error {
			if r.Seq <= after {
				return nil
			}
			if r.Seq > upTo {
				return errStopReplay
			}
			info.Records++
			return fn(r)
		})
		if errors.Is(err, errStopReplay) {
			if last >= seg.first {
				info.LastSeq = last
			}
			return info, nil
		}
		if err != nil {
			return info, err
		}
		if torn && !final {
			return info, fmt.Errorf("wal: %w in non-final segment %s at offset %d", ErrCorrupt, seg.path, end)
		}
		if !final && last != seg.last {
			return info, fmt.Errorf("wal: sealed segment %s ends at seq %d, want %d", seg.path, last, seg.last)
		}
		if last >= seg.first {
			info.LastSeq = last
		}
		if torn {
			info.Torn, info.TornPath, info.TornOffset = true, seg.path, end
		}
	}
	return info, nil
}

// OldestSeq reports the first sequence number still present in dir's
// segments (0 when the directory holds none). The replication stream
// handler uses it to answer a follower whose watermark predates the
// log with a bootstrap signal instead of a mid-stream failure.
func OldestSeq(dir string) (uint64, error) {
	segs, err := listSegments(faultfs.OS(), dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, nil
	}
	return segs[0].first, nil
}

// Open opens (creating if needed) the log directory for appending. The
// final segment is scanned to find the append position; a torn tail is
// truncated away so the next record starts at a clean frame boundary.
// Records already in the log are untouched — call Replay first to read
// them.
func Open(dir string, opts Options) (*Log, error) {
	opts.fill()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if len(segs) == 0 {
		if err := l.openSegment(opts.FirstSeq); err != nil {
			return nil, err
		}
	} else {
		active := segs[len(segs)-1]
		l.sealed = segs[:len(segs)-1]
		end, last, torn, err := scanSegment(opts.FS, active.path, active.first, nil)
		if err != nil {
			return nil, err
		}
		f, err := opts.FS.OpenFile(active.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		if torn {
			if err := f.Truncate(end); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		l.f = f
		l.bw = bufio.NewWriterSize(f, 1<<16)
		l.segFirst = active.first
		l.segBytes = end
		l.nextSeq = active.first // empty active segment
		if last >= active.first {
			l.nextSeq = last + 1
		}
		l.durable.Store(l.nextSeq - 1)
	}
	if opts.Sync == SyncInterval {
		l.stopInterval = make(chan struct{})
		l.intervalDone = make(chan struct{})
		go l.intervalLoop()
	}
	return l, nil
}

// openSegment creates the segment whose first record will be seq and
// makes it the active one. Caller holds no locks (Open) or both locks
// (Rotate).
func (l *Log) openSegment(seq uint64) error {
	path := filepath.Join(l.dir, segName(seq))
	f, err := l.opts.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := faultfs.SyncDir(l.opts.FS, l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.segFirst = seq
	l.segBytes = 0
	l.nextSeq = seq
	l.durable.Store(seq - 1)
	return nil
}

func (l *Log) intervalLoop() {
	defer close(l.intervalDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync()
		case <-l.stopInterval:
			return
		}
	}
}

// Append logs one mutation and returns its sequence number. Under
// SyncAlways the record is durable when Append returns.
func (l *Log) Append(op Op, id graph.NodeID, vec []float64) (uint64, error) {
	rec := Record{Op: op, ID: id, Vec: vec}
	seq, err := l.AppendBuffered([]Record{rec})
	if err != nil {
		return 0, err
	}
	return seq, l.Commit(seq)
}

// AppendBuffered writes records to the log buffer (assigning their Seq
// fields in order) without waiting for durability, returning the last
// assigned sequence number. Callers
// that hold their own serialization lock (the daemon's applier) append
// buffered inside it and Commit outside it, so concurrent commits can
// share one fsync instead of serializing a sync each behind the lock.
func (l *Log) AppendBuffered(recs []Record) (uint64, error) {
	if len(recs) == 0 {
		return l.LastSeq(), nil
	}
	return l.appendAll(recs)
}

// AppendAt buffers records that already carry sequence numbers — the
// replication apply path, where a follower must preserve the leader's
// numbering so Replay watermarks stay meaningful across failover. The
// batch must be contiguous and start exactly at the log's next
// sequence number; anything else means the stream diverged and is
// refused before a byte is written. Durability follows the same
// contract as AppendBuffered: call Commit with the returned sequence.
func (l *Log) AppendAt(recs []Record) (uint64, error) {
	if len(recs) == 0 {
		return l.LastSeq(), nil
	}
	start := time.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errors.New("wal: log closed")
	}
	if l.syncErr != nil {
		err := l.syncErr
		l.mu.Unlock()
		return 0, err
	}
	for i := range recs {
		if recs[i].Seq != l.nextSeq {
			want := l.nextSeq
			l.mu.Unlock()
			return 0, fmt.Errorf("%w: replicated record has seq %d, log expects %d", ErrDiverged, recs[i].Seq, want)
		}
		l.enc = AppendRecord(l.enc[:0], recs[i])
		if _, err := l.bw.Write(l.enc); err != nil {
			l.syncErr = err // buffer state is unknown; poison the log
			l.mu.Unlock()
			return 0, err
		}
		l.segBytes += int64(len(l.enc))
		l.nextSeq++
	}
	last := l.nextSeq - 1
	l.mu.Unlock()
	walRecords.Add(uint64(len(recs)))
	walAppendHist.ObserveSince(start)
	return last, nil
}

// Commit makes records through seq durable per the sync policy: under
// SyncAlways it blocks until they are on disk (group-committed with
// concurrent callers); interval/never policies return immediately.
func (l *Log) Commit(seq uint64) error {
	if l.opts.Sync == SyncAlways {
		return l.syncTo(seq)
	}
	return nil
}

func (l *Log) appendAll(recs []Record) (uint64, error) {
	start := time.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errors.New("wal: log closed")
	}
	if l.syncErr != nil {
		err := l.syncErr
		l.mu.Unlock()
		return 0, err
	}
	for i := range recs {
		recs[i].Seq = l.nextSeq
		l.nextSeq++
		l.enc = AppendRecord(l.enc[:0], recs[i])
		if _, err := l.bw.Write(l.enc); err != nil {
			l.syncErr = err // buffer state is unknown; poison the log
			l.mu.Unlock()
			return 0, err
		}
		l.segBytes += int64(len(l.enc))
	}
	last := l.nextSeq - 1
	l.mu.Unlock()
	walRecords.Add(uint64(len(recs)))
	walAppendHist.ObserveSince(start)
	return last, nil
}

// Sync flushes and fsyncs everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	last := l.nextSeq - 1
	l.mu.Unlock()
	return l.syncTo(last)
}

// syncTo makes records through seq durable. Concurrent callers
// group-commit: whoever holds the gate flushes for everyone queued
// behind it, and late arrivals find their records already durable.
func (l *Log) syncTo(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durable.Load() >= seq {
		return nil
	}
	l.mu.Lock()
	if l.syncErr != nil {
		err := l.syncErr
		l.mu.Unlock()
		return err
	}
	err := l.bw.Flush()
	flushed := l.nextSeq - 1
	f := l.f
	l.mu.Unlock()
	if err == nil {
		fsyncStart := time.Now()
		err = f.Sync()
		walFsyncs.Inc()
		walFsyncHist.ObserveSince(fsyncStart)
	}
	if err != nil {
		l.mu.Lock()
		l.syncErr = err
		l.mu.Unlock()
		return err
	}
	l.durable.Store(flushed)
	return nil
}

// LastSeq returns the sequence number of the most recently appended
// record (0 when nothing has been logged).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// DurableSeq returns the highest sequence number known to be on disk.
func (l *Log) DurableSeq() uint64 { return l.durable.Load() }

// Rotate seals the active segment (flushed and fsynced) and opens a
// fresh one, returning the watermark: the last sequence number in the
// sealed log. A snapshot taken after Rotate returns covers at least
// every record up to the watermark, making TruncateThrough(watermark)
// safe once that snapshot is on disk. Rotating an empty active segment
// is a no-op. The caller must ensure records up to the watermark are
// applied to the state being snapshotted (the daemon holds its apply
// lock across Rotate for exactly this).
func (l *Log) Rotate() (uint64, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log closed")
	}
	if l.syncErr != nil {
		return 0, l.syncErr
	}
	watermark := l.nextSeq - 1
	if watermark < l.segFirst {
		return watermark, nil // nothing in the active segment
	}
	if err := l.bw.Flush(); err != nil {
		l.syncErr = err
		return 0, err
	}
	if err := l.f.Sync(); err != nil {
		l.syncErr = err
		return 0, err
	}
	if err := l.f.Close(); err != nil {
		l.syncErr = err
		return 0, err
	}
	l.durable.Store(watermark)
	l.sealed = append(l.sealed, sealedSeg{
		path:  filepath.Join(l.dir, segName(l.segFirst)),
		first: l.segFirst,
		last:  watermark,
		bytes: l.segBytes,
	})
	if err := l.openSegment(watermark + 1); err != nil {
		l.syncErr = err
		return 0, err
	}
	return watermark, nil
}

// TruncateThrough deletes sealed segments whose every record has
// sequence number ≤ watermark. The active segment is never touched, so
// records not yet covered by a snapshot are never dropped, whatever
// watermark is passed.
func (l *Log) TruncateThrough(watermark uint64) error {
	l.mu.Lock()
	var drop []sealedSeg
	keep := l.sealed[:0]
	for _, s := range l.sealed {
		if s.last <= watermark {
			drop = append(drop, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.sealed = keep
	l.mu.Unlock()
	for _, s := range drop {
		if err := l.opts.FS.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if len(drop) > 0 {
		return faultfs.SyncDir(l.opts.FS, l.dir)
	}
	return nil
}

// Stats is a point-in-time summary for health reporting.
type Stats struct {
	LastSeq    uint64 `json:"last_seq"`
	DurableSeq uint64 `json:"durable_seq"`
	Segments   int    `json:"segments"`
	SizeBytes  int64  `json:"size_bytes"`
}

// Stats reports the log's current shape.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		LastSeq:    l.nextSeq - 1,
		DurableSeq: l.durable.Load(),
		Segments:   len(l.sealed) + 1,
		SizeBytes:  l.segBytes,
	}
	for _, s := range l.sealed {
		st.SizeBytes += s.bytes
	}
	return st
}

// Close flushes, fsyncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.stopInterval != nil {
		close(l.stopInterval)
		<-l.intervalDone
		l.stopInterval = nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.bw.Flush()
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
