package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// Injected reports how many operations have had a fault injected.
func (in *Injector) Injected() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

func tmpFile(t *testing.T, fs FS) File {
	t.Helper()
	f, err := fs.OpenFile(filepath.Join(t.TempDir(), "x"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestDeterministicAfterCount(t *testing.T) {
	in := New(nil)
	in.Add(Rule{Op: OpSync, After: 2, Count: 3})
	f := tmpFile(t, in)
	var errs []bool
	for i := 0; i < 8; i++ {
		errs = append(errs, f.Sync() != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if errs[i] != want[i] {
			t.Fatalf("sync %d: err=%v, want %v (full: %v)", i, errs[i], want[i], errs)
		}
	}
	if got := in.Injected(); got != 3 {
		t.Fatalf("Injected() = %d, want 3", got)
	}
}

func TestENOSPCWrite(t *testing.T) {
	in := New(nil)
	in.Add(Rule{Op: OpWrite, After: 1, Err: syscall.ENOSPC})
	f := tmpFile(t, in)
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	_, err := f.Write([]byte("boom"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second write: err=%v, want ENOSPC", err)
	}
	// The injected error is persistent (count=0): every later write fails.
	if _, err := f.Write([]byte("still")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("third write: err=%v, want ENOSPC", err)
	}
}

func TestTornWrite(t *testing.T) {
	in := New(nil)
	in.Add(Rule{Op: OpWrite, Torn: true})
	path := filepath.Join(t.TempDir(), "torn")
	f, err := in.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	payload := []byte("0123456789")
	n, werr := f.Write(payload)
	f.Close()
	if werr == nil {
		t.Fatal("torn write returned no error")
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write landed %d bytes, want %d", n, len(payload)/2)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "01234" {
		t.Fatalf("file holds %q, want half the payload", got)
	}
}

func TestProbabilisticDeterministicAcrossRuns(t *testing.T) {
	run := func() []bool {
		in := New(nil)
		in.Add(Rule{Op: OpWrite, P: 0.3, Seed: 42})
		f := tmpFile(t, in)
		var outcomes []bool
		for i := 0; i < 50; i++ {
			_, err := f.Write([]byte("x"))
			outcomes = append(outcomes, err != nil)
		}
		return outcomes
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at call %d: same seed must give same faults", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.3 fired %d/%d times; want some but not all", fired, len(a))
	}
}

func TestSlowSync(t *testing.T) {
	in := New(nil)
	in.Add(Rule{Op: OpSync, Sleep: 30 * time.Millisecond})
	f := tmpFile(t, in)
	start := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatalf("slow sync should succeed, got %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("sync returned in %v, want ≥30ms stall", d)
	}
}

func TestPathFilterAndClear(t *testing.T) {
	in := New(nil)
	in.Add(Rule{Op: OpSync, Path: ".wal"})
	dir := t.TempDir()
	wal, err := in.OpenFile(filepath.Join(dir, "0001.wal"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer wal.Close()
	other, err := in.OpenFile(filepath.Join(dir, "store.gob"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer other.Close()
	if err := wal.Sync(); err == nil {
		t.Fatal("sync on .wal file should fault")
	}
	if err := other.Sync(); err != nil {
		t.Fatalf("sync on non-matching file faulted: %v", err)
	}
	in.Clear()
	if err := wal.Sync(); err != nil {
		t.Fatalf("sync after Clear faulted: %v", err)
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("sync:after=100,count=3,err=eio; write:p=0.01,seed=7,err=enospc,torn; sync:sleep=250ms,path=.wal", nil)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	in.mu.Lock()
	rules := in.rules
	in.mu.Unlock()
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
	r := rules[0].Rule
	if r.Op != OpSync || r.After != 100 || r.Count != 3 || !errors.Is(r.Err, syscall.EIO) {
		t.Fatalf("rule 0 = %+v", r)
	}
	r = rules[1].Rule
	if r.Op != OpWrite || r.P != 0.01 || r.Seed != 7 || !r.Torn || !errors.Is(r.Err, syscall.ENOSPC) {
		t.Fatalf("rule 1 = %+v", r)
	}
	r = rules[2].Rule
	if r.Op != OpSync || r.Sleep != 250*time.Millisecond || r.Path != ".wal" {
		t.Fatalf("rule 2 = %+v", r)
	}

	for _, bad := range []string{"frobnicate:after=1", "sync:after=x", "sync:p=2", "sync:err=exdev", "sync:bogus=1"} {
		if _, err := Parse(bad, nil); err == nil {
			t.Errorf("Parse(%q) accepted invalid spec", bad)
		}
	}
	if in, err := Parse("  ", nil); err != nil || in.Injected() != 0 {
		t.Errorf("empty spec should parse to a no-rule injector, got %v", err)
	}
}

func TestOSPassthrough(t *testing.T) {
	fs := OS()
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := fs.MkdirAll(sub, 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	path := filepath.Join(sub, "f")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	f.Close()
	ents, err := fs.ReadDir(sub)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v, %d entries", err, len(ents))
	}
	rf, err := fs.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	buf := make([]byte, 16)
	n, _ := rf.Read(buf)
	rf.Close()
	if string(buf[:n]) != "hello" {
		t.Fatalf("read back %q", buf[:n])
	}
	if err := fs.Remove(path); err != nil {
		t.Fatalf("Remove: %v", err)
	}
}

// TestWriteFileAtomic: a publish either replaces the file whole or
// leaves the old content and no temp file behind, whichever step
// breaks; and it fsyncs the directory, so a fault there is reported.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.snap")
	in := New(nil)
	content := func(s string) func(File) error {
		return func(f File) error { _, err := f.Write([]byte(s)); return err }
	}
	check := func(when, want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("%s: file holds %q (%v), want %q", when, got, err, want)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("%s: %d directory entries, want only the published file", when, len(ents))
		}
	}
	if err := WriteFileAtomic(in, path, content("v1")); err != nil {
		t.Fatal(err)
	}
	check("first publish", "v1")

	for _, r := range []Rule{
		{Op: OpWrite, Path: ".tmp", Count: 1},
		{Op: OpSync, Path: ".tmp", Count: 1},
		{Op: OpRename, Path: "store.snap", Count: 1},
	} {
		in.Add(r)
		if err := WriteFileAtomic(in, path, content("v2")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("%s fault: err = %v, want EIO", r.Op, err)
		}
		check(string(r.Op)+" fault", "v1")
	}
	if err := WriteFileAtomic(in, path, func(File) error { return io.ErrUnexpectedEOF }); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("failing writer: err = %v", err)
	}
	check("failing writer", "v1")

	// The rename landed, but it is not durable until the directory is
	// synced — that failure must reach the caller.
	in.Add(Rule{Op: OpSync, After: 1, Count: 1}) // the file's fsync passes, the directory's is next
	if err := WriteFileAtomic(in, path, content("v3")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("directory fsync fault: err = %v, want EIO", err)
	}
	check("directory fsync fault", "v3")
}
