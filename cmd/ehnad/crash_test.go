package main

// The crash-recovery half of the durability test harness: a real
// daemon process (this test binary re-exec'd into helper mode) serving
// the real HTTP stack over a WAL, SIGKILLed mid-write-stream, then
// recovered and compared against a reference store fed exactly the
// acknowledged operations. fsync=always means every 200 the client saw
// must survive the kill; the one in-flight request at kill time is the
// only permitted ambiguity (logged-but-unacknowledged).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ehna/internal/ann"
	"ehna/internal/embstore"
	"ehna/internal/graph"
)

const (
	crashDim    = 8
	crashIDSpan = 100
)

// crashTestConfig is the daemon configuration shared by the helper
// process and the in-process recovery: empty store bootstrapped by
// -dim, HNSW index, crash-safe fsync, snapshots only on demand.
func crashTestConfig(walDir string) serverConfig {
	return serverConfig{
		dim:              crashDim,
		index:            testIndexOptions("hnsw"),
		walDir:           walDir,
		fsync:            "always",
		snapshotInterval: 0,
	}
}

// TestCrashDaemonHelper is the child-process entry point, not a test:
// re-exec'd by the crash tests with EHNAD_CRASH_HELPER=1, it boots the
// full daemon stack over the WAL directory in EHNAD_WAL, prints the
// listen address, and runs the production serve loop — so a SIGKILL
// exercises the no-shutdown path and a SIGTERM exercises the real
// graceful drain (in-flight HTTP, WAL fsync, final snapshot pair).
func TestCrashDaemonHelper(t *testing.T) {
	if os.Getenv("EHNAD_CRASH_HELPER") != "1" {
		t.Skip("helper-process entry point; driven by TestCrashRecoveryE2E and TestGracefulSIGTERM")
	}
	cfg := crashTestConfig(os.Getenv("EHNAD_WAL"))
	// The cluster failover e2e reuses this helper to spawn replication
	// followers: EHNAD_FOLLOW carries the leader base URL through.
	cfg.follow = os.Getenv("EHNAD_FOLLOW")
	// The cold-store crash drill runs the same harness in mmap mode.
	cfg.storeMode = os.Getenv("EHNAD_STORE")
	srv, err := buildServer(cfg)
	if err != nil {
		fmt.Printf("HELPER_ERR=%v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("HELPER_ERR=%v\n", err)
		os.Exit(1)
	}
	fmt.Printf("HELPER_ADDR=%s\n", ln.Addr())
	if err := runDaemon(srv, ln); err != nil {
		fmt.Printf("HELPER_ERR=%v\n", err)
		os.Exit(1)
	}
	os.Exit(0) // clean drain; don't fall through to the test runner's exit
}

// crashOp is one client-side mutation, mirrored into the reference
// store when (and only when) the daemon acknowledged it.
type crashOp struct {
	del bool
	id  graph.NodeID
	vec []float64
}

func randomCrashOp(rng *rand.Rand) crashOp {
	op := crashOp{id: graph.NodeID(rng.Intn(crashIDSpan))}
	if rng.Float64() < 0.3 {
		op.del = true
		return op
	}
	op.vec = make([]float64, crashDim)
	for j := range op.vec {
		op.vec[j] = rng.NormFloat64()
	}
	return op
}

// post sends op to the daemon, returning nil only on a 200 (an ack).
func (op crashOp) post(client *http.Client, base string) error {
	var path string
	var body any
	if op.del {
		path, body = base+"/v1/delete", map[string]any{"id": op.id}
	} else {
		path, body = base+"/v1/upsert", map[string]any{"id": op.id, "vector": op.vec}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func (op crashOp) applyTo(t *testing.T, s *embstore.Store) {
	t.Helper()
	if op.del {
		s.Delete(op.id)
		return
	}
	if err := s.Upsert(op.id, op.vec); err != nil {
		t.Fatal(err)
	}
}

// startCrashHelper re-execs this test binary into helper mode over
// walDir and waits for its listen address. The caller owns the
// process's fate (SIGKILL or SIGTERM + Wait). extraEnv entries
// ("K=V") let the cluster e2e spawn followers (EHNAD_FOLLOW).
func startCrashHelper(t *testing.T, walDir string, extraEnv ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashDaemonHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "EHNAD_CRASH_HELPER=1", "EHNAD_WAL="+walDir)
	cmd.Env = append(cmd.Env, extraEnv...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })

	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "HELPER_ADDR=") {
				addrC <- strings.TrimPrefix(line, "HELPER_ADDR=")
			}
			if strings.HasPrefix(line, "HELPER_ERR=") {
				t.Errorf("helper: %s", line)
				addrC <- ""
			}
		}
	}()
	select {
	case addr := <-addrC:
		if addr == "" {
			t.Fatal("helper failed to boot")
		}
		return cmd, "http://" + addr
	case <-time.After(60 * time.Second):
		t.Fatal("helper never reported its address")
	}
	panic("unreachable")
}

func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process and fsyncs every write; skipped under -short")
	}
	walDir := t.TempDir()

	// ---- Phase 1: live daemon process, randomized write stream, SIGKILL.
	cmd, base := startCrashHelper(t, walDir)

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	reference, err := embstore.New(crashDim, embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}

	// Kill lands mid-stream, while a request may be on the wire — the
	// adversarial moment: logged (fsynced) but never acknowledged.
	killDelay := time.Duration(200+rng.Intn(200)) * time.Millisecond
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(killDelay)
		_ = cmd.Process.Kill() // SIGKILL: no shutdown path runs
	}()

	var acked int
	var inflight *crashOp
	for i := 0; i < 100000; i++ {
		op := randomCrashOp(rng)
		if err := op.post(client, base); err != nil {
			inflight = &op // fate unknown: maybe logged, never acked
			break
		}
		op.applyTo(t, reference)
		acked++
	}
	<-killed
	_ = cmd.Wait()
	if inflight == nil {
		t.Fatal("write stream outlived the kill; nothing was interrupted")
	}
	if acked == 0 {
		t.Skip("daemon was killed before any write was acknowledged; nothing to verify")
	}
	t.Logf("acked %d ops before SIGKILL", acked)

	// ---- Phase 1b: simulate a torn final write on top of the crash.
	segs, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments after crash: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising 64 bytes of payload that never arrived.
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xaa, 0xbb, 0xcc, 0xdd, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// ---- Phase 2: recover in-process and compare against the reference.
	srv, err := buildServer(crashTestConfig(walDir))
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	if !srv.dur.replayTorn {
		t.Error("recovery did not report the torn tail")
	}
	if !srv.store.Equal(reference) {
		// The only legitimate divergence: the in-flight op hit the log
		// before the kill. Apply it to the reference and re-compare.
		inflight.applyTo(t, reference)
		if !srv.store.Equal(reference) {
			srv.close()
			t.Fatalf("recovered store (%d nodes) matches neither the acked prefix nor prefix+inflight (%d nodes)",
				srv.store.Len(), reference.Len())
		}
		t.Log("in-flight op was logged before the kill (allowed)")
	}

	// Index state must match the store: every recovered vector indexed,
	// searchable, and its own nearest neighbor.
	h, ok := srv.index.(*ann.HNSW)
	if !ok {
		t.Fatalf("recovered index is %T, want *ann.HNSW", srv.index)
	}
	alive, _, _ := h.Stats()
	if alive != srv.store.Len() {
		t.Fatalf("recovered graph indexes %d nodes, store holds %d", alive, srv.store.Len())
	}
	for _, id := range srv.store.IDs() {
		q, _ := srv.store.Get(id)
		top, err := srv.index.SearchInto(context.Background(), nil, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) != 1 || top[0].ID != id {
			t.Fatalf("recovered node %d is not its own nearest neighbor: %v", id, top)
		}
	}

	// ---- Phase 3: the recovered daemon is fully operational — serve
	// HTTP, churn, leave tombstones in the graph, export, snapshot
	// (truncating the WAL, and writing a graph file without the
	// tombstones), and survive one more boot.
	ts := httptest.NewServer(srv.handler())
	for i := 0; i < 20; i++ {
		op := randomCrashOp(rng)
		if err := op.post(client, ts.URL); err != nil {
			t.Fatalf("post-recovery write %d: %v", i, err)
		}
		op.applyTo(t, reference)
	}

	for _, id := range srv.store.IDs()[:3] {
		op := crashOp{id: id, del: true}
		if err := op.post(client, ts.URL); err != nil {
			t.Fatalf("post-recovery delete of %d: %v", id, err)
		}
		op.applyTo(t, reference)
	}
	if _, tombs, _ := h.Stats(); tombs == 0 {
		t.Fatal("no tombstone in the graph after the deletes")
	}
	var nresp neighborsResponse
	someID := srv.store.IDs()[0]
	status, raw := postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"id": someID, "k": 3}, &nresp)
	if status != http.StatusOK {
		t.Fatalf("query after churn: %d %s", status, raw)
	}

	if exported, _ := exportStore(t, client, ts.URL); !exported.Equal(srv.store) {
		t.Fatal("exported snapshot differs from the live store")
	}

	resp, err := client.Post(ts.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var snapOut struct {
		Watermark uint64 `json:"watermark"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snapOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || snapOut.Watermark == 0 {
		t.Fatalf("admin snapshot: status %d, watermark %d", resp.StatusCode, snapOut.Watermark)
	}
	ts.Close()
	srv.close()

	// ---- Phase 4: boot once more. Everything is in the snapshot pair,
	// so replay must be empty, and state must still match the reference.
	srv2, err := buildServer(crashTestConfig(walDir))
	if err != nil {
		t.Fatalf("post-snapshot boot: %v", err)
	}
	defer srv2.close()
	if srv2.dur.replayed != 0 {
		t.Errorf("replayed %d records after a clean snapshot, want 0", srv2.dur.replayed)
	}
	if !srv2.store.Equal(reference) {
		t.Fatal("state diverged across snapshot + reboot")
	}
	if h2, ok := srv2.index.(*ann.HNSW); !ok {
		t.Fatalf("rebooted index is %T", srv2.index)
	} else if _, tombs, _ := h2.Stats(); tombs != 0 {
		t.Errorf("rebooted graph carries %d tombstones despite a fresh snapshot", tombs)
	}
}

// TestGracefulSIGTERM is the clean-exit counterpart of the SIGKILL
// drill: after an acknowledged write stream, SIGTERM must drain the
// daemon through the production shutdown path — exit status 0 and a
// final snapshot pair covering every acked op, so the next boot
// replays zero WAL records and serves the exact acked state.
func TestGracefulSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process and fsyncs every write; skipped under -short")
	}
	walDir := t.TempDir()
	cmd, base := startCrashHelper(t, walDir)

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	reference, err := embstore.New(crashDim, embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 50; i++ {
		op := randomCrashOp(rng)
		if err := op.post(client, base); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		op.applyTo(t, reference)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitC := make(chan error, 1)
	go func() { waitC <- cmd.Wait() }()
	select {
	case err := <-waitC:
		if err != nil {
			t.Fatalf("helper did not exit 0 after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("helper did not exit within 30s of SIGTERM")
	}

	srv, err := buildServer(crashTestConfig(walDir))
	if err != nil {
		t.Fatalf("post-SIGTERM boot: %v", err)
	}
	defer srv.close()
	if srv.dur.replayed != 0 {
		t.Errorf("replayed %d WAL records after graceful shutdown, want 0", srv.dur.replayed)
	}
	if !srv.store.Equal(reference) {
		t.Fatal("recovered store diverges from the acked write stream")
	}
}
