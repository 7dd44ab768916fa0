package wal

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"ehna/internal/faultfs"
	"ehna/internal/graph"
)

// appendUntilFault appends records one at a time (Append = buffered
// write + commit) until one fails, returning the last acked seq and
// the error that stopped the stream.
func appendUntilFault(t *testing.T, l *Log, max int) (acked uint64, ferr error) {
	t.Helper()
	for i := 0; i < max; i++ {
		seq, err := l.Append(OpUpsert, graph.NodeID(i), []float64{float64(i), -float64(i)})
		if err != nil {
			return acked, err
		}
		acked = seq
	}
	return acked, nil
}

// replaySeqs replays dir and returns every record seq in order.
func replaySeqs(t *testing.T, dir string) []uint64 {
	t.Helper()
	var seqs []uint64
	if _, err := Replay(dir, 0, func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return seqs
}

// TestFsyncFaultPoisonsThenHeals injects a burst of fsync failures:
// the log must refuse further appends (sticky error, no silent ack),
// and a reopen after the fault clears must recover every acked record
// and accept new appends.
func TestFsyncFaultPoisonsThenHeals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	inj := faultfs.New(nil)
	l, err := Open(dir, Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	acked, ferr := appendUntilFault(t, l, 10)
	if ferr != nil {
		t.Fatalf("appends failed before fault injected: %v", ferr)
	}

	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Count: 3})
	_, ferr = appendUntilFault(t, l, 10)
	if !errors.Is(ferr, syscall.EIO) {
		t.Fatalf("append under fsync fault: err=%v, want EIO", ferr)
	}
	// The error is sticky: even though the injector would let a 4th
	// fsync through, the poisoned log must not pretend to be healthy.
	if _, err := l.Append(OpUpsert, 999, []float64{1}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after poison: err=%v, want sticky EIO", err)
	}
	_ = l.Close()

	// Fault cleared: reopen recovers. Replay may surface records beyond
	// the acked prefix (written to the page cache before the failed
	// fsync) but must never lose an acked one, and must be gap-free.
	inj.Clear()
	seqs := replaySeqs(t, dir)
	if uint64(len(seqs)) < acked {
		t.Fatalf("replay lost acked records: got %d, acked through %d", len(seqs), acked)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("replay gap at %d: seq %d", i, s)
		}
	}

	l2, err := Open(dir, Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatalf("reopen after fault cleared: %v", err)
	}
	defer l2.Close()
	seq, err := l2.Append(OpUpsert, 1000, []float64{2})
	if err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if seq != seqs[len(seqs)-1]+1 {
		t.Fatalf("healed log resumed at seq %d, want %d", seq, seqs[len(seqs)-1]+1)
	}
}

// TestENOSPCMidStream fills the "disk" mid-stream: writes start
// returning ENOSPC, appends fail without acking, and clearing the
// fault lets a reopened log resume with the acked prefix intact.
func TestENOSPCMidStream(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	inj := faultfs.New(nil)
	l, err := Open(dir, Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	acked, ferr := appendUntilFault(t, l, 5)
	if ferr != nil {
		t.Fatalf("appends failed before fault: %v", ferr)
	}

	// Big records overflow the 64 KiB buffered writer so the injected
	// write error surfaces on Append itself, not only at fsync.
	big := make([]float64, 1<<13)
	inj.Add(faultfs.Rule{Op: faultfs.OpWrite, Err: syscall.ENOSPC})
	var sawENOSPC bool
	for i := 0; i < 4; i++ {
		if _, err := l.Append(OpUpsert, graph.NodeID(100+i), big); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append: err=%v, want ENOSPC", err)
			}
			sawENOSPC = true
			break
		}
	}
	if !sawENOSPC {
		t.Fatal("no append surfaced ENOSPC")
	}
	_ = l.Close()

	inj.Clear()
	seqs := replaySeqs(t, dir)
	if uint64(len(seqs)) < acked {
		t.Fatalf("replay lost acked records: got %d, acked through %d", len(seqs), acked)
	}
	l2, err := Open(dir, Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if _, err := l2.Append(OpUpsert, 2000, []float64{3}); err != nil {
		t.Fatalf("append after space freed: %v", err)
	}
}

// TestReadFaultIsNotATornTail injects one read EIO into the active
// segment: Open and ReplayFS must return it rather than take the
// unread records for a torn tail, and Open must not truncate them.
func TestReadFaultIsNotATornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if acked, err := appendUntilFault(t, l, 10); err != nil || acked != 10 {
		t.Fatalf("appends: acked %d, err %v", acked, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	size := func() int64 {
		fi, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	want := size()

	inj := faultfs.New(nil)
	inj.Add(faultfs.Rule{Op: faultfs.OpRead, Path: ".wal", Count: 1})
	if l, err := Open(dir, Options{Sync: SyncAlways, FS: inj}); !errors.Is(err, syscall.EIO) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("Open under a read fault: err=%v, want EIO", err)
	}
	if got := size(); got != want {
		t.Fatalf("Open under a read fault cut the segment from %d to %d bytes", want, got)
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpRead, Path: ".wal", Count: 1})
	if info, err := ReplayFS(inj, dir, 0, func(Record) error { return nil }); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReplayFS under a read fault: info=%+v err=%v, want EIO", info, err)
	}
	if seqs := replaySeqs(t, dir); len(seqs) != 10 {
		t.Fatalf("clean replay after the fault: %d records, want 10", len(seqs))
	}
}

// TestTornWriteTailRepairedOnReopen makes the final flush land only
// half its bytes (a torn frame), then checks Open truncates the tail
// and the log appends cleanly from the last whole record.
func TestTornWriteTailRepairedOnReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	inj := faultfs.New(nil)
	l, err := Open(dir, Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	acked, ferr := appendUntilFault(t, l, 6)
	if ferr != nil {
		t.Fatalf("appends failed before fault: %v", ferr)
	}
	big := make([]float64, 1<<13)
	inj.Add(faultfs.Rule{Op: faultfs.OpWrite, Torn: true})
	if _, err := l.Append(OpUpsert, 500, big); err == nil {
		t.Fatal("torn append reported success")
	}
	_ = l.Close()

	inj.Clear()
	info, err := Replay(dir, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatalf("Replay over torn tail: %v", err)
	}
	if info.LastSeq < acked {
		t.Fatalf("torn tail ate acked records: last=%d, acked=%d", info.LastSeq, acked)
	}
	l2, err := Open(dir, Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer l2.Close()
	seq, err := l2.Append(OpUpsert, 501, []float64{4})
	if err != nil {
		t.Fatalf("append after tail repair: %v", err)
	}
	if seq != info.LastSeq+1 {
		t.Fatalf("append resumed at %d, want %d", seq, info.LastSeq+1)
	}
	seqs := replaySeqs(t, dir)
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("replay gap after repair at %d: seq %d", i, s)
		}
	}
}

// TestSlowFsyncStillDurable wires a stalling disk: appends get slower
// but nothing is lost.
func TestSlowFsyncStillDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	inj := faultfs.New(nil)
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Sleep: 5e6}) // 5ms per fsync
	l, err := Open(dir, Options{Sync: SyncAlways, FS: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	acked, ferr := appendUntilFault(t, l, 5)
	if ferr != nil {
		t.Fatalf("append under slow fsync: %v", ferr)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if seqs := replaySeqs(t, dir); uint64(len(seqs)) != acked {
		t.Fatalf("replayed %d records, want %d", len(seqs), acked)
	}
}
