package wal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ehna/internal/graph"
)

// randomOps generates a reproducible mixed upsert/delete stream over a
// small ID space (so deletes hit and upserts replace).
func randomOps(rng *rand.Rand, n, dim int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		id := graph.NodeID(rng.Intn(64))
		if rng.Float64() < 0.25 {
			recs[i] = Record{Op: OpDelete, ID: id}
			continue
		}
		vec := make([]float64, dim)
		for j := range vec {
			vec[j] = rng.NormFloat64()
		}
		recs[i] = Record{Op: OpUpsert, ID: id, Vec: vec}
	}
	return recs
}

// replayState materializes a replay into a map: the reference "state
// machine" the log drives. Returns the Info alongside.
func replayState(t *testing.T, dir string, after uint64) (map[graph.NodeID][]float64, Info) {
	t.Helper()
	state := make(map[graph.NodeID][]float64)
	info, err := Replay(dir, after, func(r Record) error {
		applyTo(state, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return state, info
}

func applyTo(state map[graph.NodeID][]float64, r Record) {
	switch r.Op {
	case OpUpsert:
		state[r.ID] = append([]float64(nil), r.Vec...)
	case OpDelete:
		delete(state, r.ID)
	}
}

func statesEqual(a, b map[graph.NodeID][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, av := range a {
		bv, ok := b[id]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func appendOps(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for i := range recs {
		if _, err := l.Append(recs[i].Op, recs[i].ID, recs[i].Vec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := randomOps(rand.New(rand.NewSource(1)), 200, 8)
	appendOps(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	info, err := Replay(dir, 0, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn {
		t.Fatal("clean log reported torn")
	}
	if len(got) != len(recs) || info.LastSeq != uint64(len(recs)) {
		t.Fatalf("replayed %d records (last seq %d), want %d", len(got), info.LastSeq, len(recs))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.Op != recs[i].Op || r.ID != recs[i].ID {
			t.Fatalf("record %d: %+v vs %+v", i, r, recs[i])
		}
		for j := range recs[i].Vec {
			if r.Vec[j] != recs[i].Vec[j] {
				t.Fatalf("record %d vector differs", i)
			}
		}
	}
}

// TestReplayIdempotent: applying a log twice leaves the same state as
// applying it once (the guarantee that lets a snapshot bleed records
// past its watermark and still recover exactly).
func TestReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, randomOps(rand.New(rand.NewSource(2)), 300, 4))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	once, _ := replayState(t, dir, 0)
	twice := make(map[graph.NodeID][]float64)
	for pass := 0; pass < 2; pass++ {
		if _, err := Replay(dir, 0, func(r Record) error {
			applyTo(twice, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !statesEqual(once, twice) {
		t.Fatal("replaying twice diverged from replaying once")
	}
}

// TestReplayComposes: replay(append(a,b)) == replay(a) then replay(b) —
// cutting a log at any boundary and replaying the halves in order is
// the same as replaying the whole.
func TestReplayComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomOps(rng, 120, 4)
	b := randomOps(rng, 150, 4)

	full, da := t.TempDir(), t.TempDir()
	db := t.TempDir()
	for _, w := range []struct {
		dir  string
		recs [][]Record
	}{{full, [][]Record{a, b}}, {da, [][]Record{a}}, {db, [][]Record{b}}} {
		l, err := Open(w.dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for _, recs := range w.recs {
			appendOps(t, l, recs)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	want, _ := replayState(t, full, 0)
	got := make(map[graph.NodeID][]float64)
	for _, dir := range []string{da, db} {
		if _, err := Replay(dir, 0, func(r Record) error {
			applyTo(got, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !statesEqual(want, got) {
		t.Fatal("replay(a+b) != replay(a);replay(b)")
	}
}

// TestRotateTruncateKeepsUnsnapshottedRecords: whatever watermark is
// passed, truncation only drops records a rotation sealed at or below
// it — everything after the watermark survives and replays.
func TestRotateTruncateKeepsUnsnapshottedRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	reference := make(map[graph.NodeID][]float64)
	var watermark uint64
	var tail []Record // records with seq > watermark, in order
	for round := 0; round < 5; round++ {
		recs := randomOps(rng, 40+rng.Intn(40), 4)
		for i := range recs {
			seq, err := l.Append(recs[i].Op, recs[i].ID, recs[i].Vec)
			if err != nil {
				t.Fatal(err)
			}
			recs[i].Seq = seq
			applyTo(reference, recs[i])
			tail = append(tail, recs[i])
		}
		wm, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if wm <= watermark && round > 0 {
			t.Fatalf("watermark did not advance: %d -> %d", watermark, wm)
		}
		// Truncate to a watermark in the middle of history: only sealed
		// segments entirely <= wm may vanish.
		mid := watermark + (wm-watermark)/2
		if err := l.TruncateThrough(mid); err != nil {
			t.Fatal(err)
		}
		state, _ := replayState(t, dir, mid)
		partial := make(map[graph.NodeID][]float64)
		for _, r := range tail {
			if r.Seq > mid {
				applyTo(partial, r)
			}
		}
		if !statesEqual(state, partial) {
			t.Fatalf("round %d: replay after truncate-to-%d lost records", round, mid)
		}
		watermark = wm
		// Now truncate fully to the rotation watermark and check the
		// suffix still replays to the reference when applied over the
		// "snapshot" (the reference state at the watermark).
		if err := l.TruncateThrough(wm); err != nil {
			t.Fatal(err)
		}
		snap := make(map[graph.NodeID][]float64)
		for id, v := range reference {
			snap[id] = v
		}
		if _, err := Replay(dir, wm, func(r Record) error {
			applyTo(snap, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !statesEqual(snap, reference) {
			t.Fatalf("round %d: snapshot+suffix != full history", round)
		}
		tail = tail[:0]
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailToleratedAndRepaired simulates a crash mid-append: a
// partial frame at the end of the final segment. Replay must stop
// cleanly at the last good record, and Open must truncate the tail so
// subsequent appends produce a clean log.
func TestTornTailToleratedAndRepaired(t *testing.T) {
	for name, garbage := range map[string][]byte{
		"header fragment": {0x55, 0x01},
		"short payload":   {0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02},
		"bad crc":         nil, // filled below: full frame with flipped crc
		"insane length":   {0xff, 0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x00, 0x00},
		"zero length":     {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			recs := randomOps(rand.New(rand.NewSource(5)), 50, 4)
			appendOps(t, l, recs)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			want, _ := replayState(t, dir, 0)
			if garbage == nil {
				frame := AppendRecord(nil, Record{Seq: 51, Op: OpDelete, ID: 9})
				frame[4] ^= 0xff // corrupt the crc
				garbage = frame
			}
			segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments: %v", err)
			}
			last := segs[len(segs)-1]
			f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(garbage); err != nil {
				t.Fatal(err)
			}
			f.Close()

			state, info := replayState(t, dir, 0)
			if !info.Torn {
				t.Fatal("torn tail not reported")
			}
			if info.LastSeq != 50 {
				t.Fatalf("last seq %d after torn tail, want 50", info.LastSeq)
			}
			if !statesEqual(state, want) {
				t.Fatal("torn tail changed the replayed state")
			}

			// Reopen: the tail must be truncated and appends must work.
			l, err = Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			if l.LastSeq() != 50 {
				t.Fatalf("reopened at seq %d, want 50", l.LastSeq())
			}
			seq, err := l.Append(OpDelete, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if seq != 51 {
				t.Fatalf("append after repair got seq %d, want 51", seq)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, info = replayState(t, dir, 0)
			if info.Torn || info.LastSeq != 51 {
				t.Fatalf("after repair+append: torn=%v last=%d", info.Torn, info.LastSeq)
			}
		})
	}
}

// TestCorruptionMidSealedSegmentIsAnError: tolerance is only for the
// final segment's tail — damage to sealed history must be loud.
func TestCorruptionMidSealedSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, randomOps(rand.New(rand.NewSource(6)), 30, 4))
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, randomOps(rand.New(rand.NewSource(7)), 30, 4))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("corrupt sealed segment replayed cleanly")
	}
}

// TestReopenContinuesSequence: close/open cycles preserve the sequence
// and the full history replays across them.
func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	reference := make(map[graph.NodeID][]float64)
	var total int
	for session := 0; session < 4; session++ {
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if got := l.LastSeq(); got != uint64(total) {
			t.Fatalf("session %d opened at seq %d, want %d", session, got, total)
		}
		recs := randomOps(rng, 25, 4)
		for i := range recs {
			if _, err := l.Append(recs[i].Op, recs[i].ID, recs[i].Vec); err != nil {
				t.Fatal(err)
			}
			applyTo(reference, recs[i])
		}
		total += len(recs)
		if session%2 == 1 {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	state, info := replayState(t, dir, 0)
	if info.LastSeq != uint64(total) {
		t.Fatalf("last seq %d, want %d", info.LastSeq, total)
	}
	if !statesEqual(state, reference) {
		t.Fatal("replay across sessions diverged")
	}
}

// TestGroupCommitConcurrentAppends hammers Append from many goroutines
// under SyncAlways and checks every acknowledged record is durable and
// the sequence is gapless.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vec := []float64{float64(w)}
			for i := 0; i < perWorker; i++ {
				seq, err := l.Append(OpUpsert, graph.NodeID(w), vec)
				if err != nil {
					errs <- err
					return
				}
				if l.DurableSeq() < seq {
					errs <- errors.New("append acknowledged before durable under SyncAlways")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, info := replayState(t, dir, 0)
	if info.Records != workers*perWorker || info.LastSeq != workers*perWorker {
		t.Fatalf("replayed %d records (last %d), want %d", info.Records, info.LastSeq, workers*perWorker)
	}
}

// TestSyncIntervalEventuallyDurable: the background loop catches up
// without explicit Sync calls.
func TestSyncIntervalEventuallyDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(OpUpsert, 1, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.DurableSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatal("interval sync never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendBufferedAssignsContiguousSeqs: one batch, one durability
// wait, gapless sequence numbers — how the daemon's applier logs a
// multi-record write.
func TestAppendBufferedAssignsContiguousSeqs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Op: OpUpsert, ID: 1, Vec: []float64{1}},
		{Op: OpDelete, ID: 2},
		{Op: OpUpsert, ID: 3, Vec: []float64{3}},
	}
	last, err := l.AppendBuffered(recs)
	if err != nil {
		t.Fatal(err)
	}
	if last != 3 {
		t.Fatalf("batch last seq %d, want 3", last)
	}
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d assigned seq %d", i, r.Seq)
		}
	}
	if l.DurableSeq() != 3 {
		t.Fatalf("durable %d after batch, want 3", l.DurableSeq())
	}
	if last, err := l.AppendBuffered(nil); err != nil || last != 3 {
		t.Fatalf("empty batch: last %d, err %v", last, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"", SyncAlways, true},
		{"never", SyncNever, true},
		{"none", SyncNever, true},
		{"250ms", SyncInterval, true},
		{"-1s", 0, false},
		{"banana", 0, false},
	} {
		got, _, err := ParseSyncPolicy(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// TestEncodeDecodeIdentity is the deterministic cousin of the fuzz
// round-trip: frames survive encode→decode bit-exactly, including
// NaN/Inf payloads and back-to-back frames in one buffer.
func TestEncodeDecodeIdentity(t *testing.T) {
	recs := []Record{
		{Seq: 1, Op: OpUpsert, ID: 0, Vec: []float64{0, -0, 1.5e308, -1.5e-308}},
		{Seq: 2, Op: OpDelete, ID: 4294967295},
		{Seq: 3, Op: OpUpsert, ID: 7, Vec: nil},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	dec := NewDecoder(bytes.NewReader(buf))
	for i, want := range recs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Op != want.Op || got.ID != want.ID || len(got.Vec) != len(want.Vec) {
			t.Fatalf("record %d: %+v vs %+v", i, got, want)
		}
		for j := range want.Vec {
			if math.Float64bits(got.Vec[j]) != math.Float64bits(want.Vec[j]) {
				t.Fatalf("record %d vec[%d] bits differ", i, j)
			}
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	if !bytes.Equal(AppendRecord(nil, recs[1]), AppendRecord(nil, recs[1])) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestAppendBufferedCommitGroup: buffered appends are not durable
// until Commit, and Commit makes everything up to the sequence
// durable (the daemon's append-under-lock, commit-outside-lock shape).
func TestAppendBufferedCommitGroup(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		if last, err = l.AppendBuffered([]Record{{Op: OpDelete, ID: graph.NodeID(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if l.DurableSeq() != 0 {
		t.Fatalf("durable %d before commit, want 0", l.DurableSeq())
	}
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	if l.DurableSeq() != last {
		t.Fatalf("durable %d after commit, want %d", l.DurableSeq(), last)
	}
	// A later commit covers earlier sequences for free.
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, info := replayState(t, dir, 0); info.LastSeq != last {
		t.Fatalf("replayed to %d, want %d", info.LastSeq, last)
	}
}

// TestReplayRefusesGapBeforeOldestSegment: if the log was truncated
// past the requested replay start, the hole must be an error, not
// silently skipped records.
func TestReplayRefusesGapBeforeOldestSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, randomOps(rand.New(rand.NewSource(9)), 30, 4))
	wm, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, randomOps(rand.New(rand.NewSource(10)), 10, 4))
	if err := l.TruncateThrough(wm); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay from the watermark (or later) is fine...
	if _, err := Replay(dir, wm, func(Record) error { return nil }); err != nil {
		t.Fatalf("replay from watermark: %v", err)
	}
	// ...but pretending the log still reaches back to 0 must fail: the
	// records 1..wm are gone (this models a stale snapshot restored
	// over a truncated log).
	if _, err := Replay(dir, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("replay across the truncation hole succeeded silently")
	}
}
