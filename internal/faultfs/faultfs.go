// Package faultfs is an injectable filesystem seam for crash and
// fault-tolerance testing. Code that persists state (the WAL) takes a
// faultfs.FS instead of calling the os package directly; production
// wires in OS(), tests and chaos drills wire in an Injector that makes
// chosen operations fail — I/O errors, ENOSPC short writes, torn
// writes, slow fsyncs — on deterministic (after N calls, for M calls)
// or probabilistic (probability p, seeded) triggers.
//
// Injectors are configured either programmatically (New + Add) or from
// a compact spec string (Parse), so the daemon can accept a -fault
// flag and a shell-driven chaos drill can inject faults into a real
// process:
//
//	sync:after=100,count=3,err=eio     // fsyncs 101-103 fail with EIO
//	write:after=50,err=enospc          // every write after the 50th is ENOSPC
//	write:p=0.01,seed=7,err=eio,torn   // 1% of writes land half, then EIO
//	sync:sleep=250ms                   // every fsync stalls 250ms
//
// Multiple clauses are joined with ';'. A count-limited rule clears
// itself after firing count times — the "fault clears" half of a
// recovery drill.
package faultfs

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Op names one class of filesystem operation a rule can match.
type Op string

const (
	OpOpen   Op = "open"   // OpenFile / Open
	OpRead   Op = "read"   // File.Read
	OpWrite  Op = "write"  // File.Write
	OpSync   Op = "sync"   // File.Sync (files and directories)
	OpRemove Op = "remove" // Remove
	OpMkdir  Op = "mkdir"  // MkdirAll
	OpRename Op = "rename" // Rename
)

// File is the subset of *os.File the WAL needs.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// FS is the filesystem surface the WAL persists through.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
}

// osFS passes everything straight to the os package.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)             { return os.Open(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Rule describes one fault: which operations it matches and when it
// fires. Exactly one of the deterministic (After/Count) or
// probabilistic (P/Seed) triggers is active per rule; P > 0 selects
// probabilistic.
type Rule struct {
	// Op is the operation class the rule matches.
	Op Op
	// Path, when non-empty, restricts the rule to operations whose path
	// contains it as a substring.
	Path string
	// After skips the first After matching calls before the rule can fire.
	After uint64
	// Count limits how many times the rule fires before clearing itself;
	// 0 means it fires on every matching call forever.
	Count uint64
	// P, when > 0, fires the rule on each matching call with probability
	// P using a generator seeded with Seed (deterministic across runs).
	P    float64
	Seed int64
	// Err is the error injected when the rule fires (default EIO).
	Err error
	// Torn makes a fired write land half its bytes before returning Err,
	// simulating a torn write at a non-frame boundary.
	Torn bool
	// Sleep, when set, delays the operation instead of failing it (Err is
	// ignored); models a stalling disk rather than a broken one.
	Sleep time.Duration
}

// rule is a Rule plus firing state.
type rule struct {
	Rule
	calls uint64
	fired uint64
	rng   *rand.Rand
}

// Injector wraps a base FS and injects faults per its rules. Safe for
// concurrent use. Rules can be added and cleared at runtime, so an
// in-process drill can break the disk mid-stream and later heal it.
type Injector struct {
	base FS

	mu       sync.Mutex
	rules    []*rule
	injected uint64
}

// New returns an Injector over base (OS() when nil) with no rules.
func New(base FS) *Injector {
	if base == nil {
		base = OS()
	}
	return &Injector{base: base}
}

// Add installs a rule.
func (in *Injector) Add(r Rule) {
	if r.Err == nil {
		r.Err = syscall.EIO
	}
	st := &rule{Rule: r}
	if r.P > 0 {
		st.rng = rand.New(rand.NewSource(r.Seed))
	}
	in.mu.Lock()
	in.rules = append(in.rules, st)
	in.mu.Unlock()
}

// Clear removes every rule: the fault is repaired.
func (in *Injector) Clear() {
	in.mu.Lock()
	in.rules = nil
	in.mu.Unlock()
}

// check decides whether op on path should fault. It returns the
// matched rule when the fault fires.
func (in *Injector) check(op Op, path string) *rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.calls++
		if r.P > 0 {
			if r.rng.Float64() >= r.P {
				continue
			}
		} else {
			if r.calls <= r.After {
				continue
			}
			if r.Count > 0 && r.fired >= r.Count {
				continue
			}
		}
		r.fired++
		in.injected++
		return r
	}
	return nil
}

// fault applies a fired rule: sleep rules delay and pass, error rules
// return the injected error.
func fault(r *rule) error {
	if r == nil {
		return nil
	}
	if r.Sleep > 0 {
		time.Sleep(r.Sleep)
		return nil
	}
	return r.Err
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := fault(in.check(OpOpen, name)); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, in: in}, nil
}

func (in *Injector) Open(name string) (File, error) {
	if err := fault(in.check(OpOpen, name)); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := in.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, in: in}, nil
}

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if err := fault(in.check(OpRead, name)); err != nil {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: err}
	}
	return in.base.ReadDir(name)
}

func (in *Injector) Remove(name string) error {
	if err := fault(in.check(OpRemove, name)); err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	return in.base.Remove(name)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if err := fault(in.check(OpMkdir, path)); err != nil {
		return &os.PathError{Op: "mkdir", Path: path, Err: err}
	}
	return in.base.MkdirAll(path, perm)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	// Matched against the destination: that's the name the atomic
	// tmp+rename publish pattern cares about.
	if err := fault(in.check(OpRename, newpath)); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return in.base.Rename(oldpath, newpath)
}

// injFile routes per-file operations back through the injector.
type injFile struct {
	f  File
	in *Injector
}

func (f *injFile) Read(p []byte) (int, error) {
	if err := fault(f.in.check(OpRead, f.f.Name())); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

func (f *injFile) Write(p []byte) (int, error) {
	if r := f.in.check(OpWrite, f.f.Name()); r != nil {
		if r.Sleep > 0 {
			time.Sleep(r.Sleep)
		} else if r.Torn && len(p) > 1 {
			n, werr := f.f.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, r.Err
		} else {
			return 0, r.Err
		}
	}
	return f.f.Write(p)
}

func (f *injFile) Sync() error {
	if err := fault(f.in.check(OpSync, f.f.Name())); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}
func (f *injFile) Close() error           { return f.f.Close() }
func (f *injFile) Truncate(n int64) error { return f.f.Truncate(n) }
func (f *injFile) Name() string           { return f.f.Name() }

// Parse builds an Injector over base from a spec string: ';'-joined
// clauses of the form op:key=val,... (see the package comment for the
// grammar). An empty spec yields an injector with no rules.
func Parse(spec string, base FS) (*Injector, error) {
	in := New(base)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return in, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		op, params, ok := strings.Cut(clause, ":")
		r := Rule{Op: Op(strings.TrimSpace(op))}
		switch r.Op {
		case OpOpen, OpRead, OpWrite, OpSync, OpRemove, OpMkdir, OpRename:
		default:
			return nil, fmt.Errorf("faultfs: unknown op %q in clause %q", op, clause)
		}
		if ok {
			for _, kv := range strings.Split(params, ",") {
				if err := applyParam(&r, strings.TrimSpace(kv)); err != nil {
					return nil, fmt.Errorf("faultfs: clause %q: %w", clause, err)
				}
			}
		}
		in.Add(r)
	}
	return in, nil
}

func applyParam(r *Rule, kv string) error {
	key, val, hasVal := strings.Cut(kv, "=")
	switch key {
	case "after":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("after=%q: %v", val, err)
		}
		r.After = n
	case "count":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("count=%q: %v", val, err)
		}
		r.Count = n
	case "p":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return fmt.Errorf("p=%q: want a probability in [0,1]", val)
		}
		r.P = p
	case "seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("seed=%q: %v", val, err)
		}
		r.Seed = n
	case "err":
		switch strings.ToLower(val) {
		case "eio":
			r.Err = syscall.EIO
		case "enospc":
			r.Err = syscall.ENOSPC
		default:
			return fmt.Errorf("err=%q: want eio or enospc", val)
		}
	case "torn":
		if hasVal && val != "true" {
			return fmt.Errorf("torn takes no value")
		}
		r.Torn = true
	case "sleep":
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("sleep=%q: want a positive duration", val)
		}
		r.Sleep = d
	case "path":
		r.Path = val
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// WriteFileAtomic publishes a file so that readers — and a reboot after
// power loss — see the old content or the complete new one, never a
// prefix: write to a sibling temp file, fsync it, rename it over path,
// fsync the directory. Until that last fsync the rename itself can be
// lost, so nothing may depend on the new file before this returns (the
// daemon's snapshot loop deletes WAL segments on the strength of it).
// Going through fsys lets a drill break any step. write gets the whole
// File: the v3 snapshot writer seeks back to stamp its header.
func WriteFileAtomic(fsys FS, path string, write func(f File) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return SyncDir(fsys, filepath.Dir(path))
}

// SyncDir fsyncs directory dir through fsys, so that creates, renames
// and removes in it survive a crash of the machine, not just of the
// process.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
