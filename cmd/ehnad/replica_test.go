package main

// In-process leader/follower integration tests for the WAL-shipping
// replication plane: bootstrap from /v1/export, stream convergence,
// follower write refusal, promotion, and resume-after-restart. The
// multi-process failover drill (router + SIGKILL) lives in
// cluster_test.go; these pin the daemon-level mechanics fast enough
// for every test run.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ehna/internal/cluster"
	"ehna/internal/embstore"
)

// waitConverged polls until the follower's applied watermark reaches
// want and its store matches the leader's.
func waitConverged(t *testing.T, follower, leader *server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if follower.dur.applied() == want && follower.store.Equal(leader.store) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: applied %d, want %d (stores equal: %v)",
				follower.dur.applied(), want, follower.store.Equal(leader.store))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchReplStatus(t *testing.T, base string) cluster.ReplStatus {
	t.Helper()
	st, err := cluster.FetchReplStatus(t.Context(), http.DefaultClient, base)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReplicationFollowerConvergesAndPromotes runs the whole follower
// lifecycle in-process, with the follower's store in heap slabs and
// mapped: bootstrap mid-history from the leader's watermark-stamped v3
// export (saved straight to store.snap), tail the stream to
// convergence, refuse writes while following, and — after promotion —
// own the write path at exactly the applied watermark.
func TestReplicationFollowerConvergesAndPromotes(t *testing.T) {
	modes := []string{"ram"}
	if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
		modes = append(modes, "mmap")
	}
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) { followerLifecycle(t, mode) })
	}
}

func followerLifecycle(t *testing.T, storeMode string) {
	rng := rand.New(rand.NewSource(42))
	leader, err := buildServer(crashTestConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.close()
	tsL := httptest.NewServer(leader.handler())
	defer tsL.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	// History the follower must receive via bootstrap, not streaming.
	for i := 0; i < 60; i++ {
		if err := randomCrashOp(rng).post(client, tsL.URL); err != nil {
			t.Fatalf("leader write %d: %v", i, err)
		}
	}
	bootstrapSeq := leader.dur.applied()

	fDir := t.TempDir()
	fcfg := crashTestConfig(fDir)
	fcfg.follow = tsL.URL
	fcfg.storeMode = storeMode
	follower, err := buildServer(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.close()
	tsF := httptest.NewServer(follower.handler())
	defer tsF.Close()

	// The bootstrap export was stamped at the leader's watermark, so the
	// follower starts there — no stream replay of old history.
	if got := follower.dur.watermark.Load(); got != bootstrapSeq {
		t.Fatalf("bootstrap snapshot watermark %d, want the leader's export seq %d", got, bootstrapSeq)
	}
	if follower.dur.replayed != 0 || follower.dur.applied() != bootstrapSeq {
		t.Fatalf("bootstrapped follower replayed %d records and sits at seq %d, want 0 and %d",
			follower.dur.replayed, follower.dur.applied(), bootstrapSeq)
	}
	// The export landed as the directory's own v3 base, served in the
	// requested residency mode.
	base, wm, err := embstore.LoadSnapshotV3(walSnapshotV3Path(fDir), 4)
	if err != nil {
		t.Fatalf("bootstrapped store.snap: %v", err)
	}
	if wm != bootstrapSeq || !base.Equal(leader.store) {
		t.Fatalf("bootstrapped store.snap: watermark %d (want %d), equal to the leader's store: %v",
			wm, bootstrapSeq, base.Equal(leader.store))
	}
	if follower.store.Cold() != (storeMode == "mmap") {
		t.Fatalf("follower store cold=%v under -store %s", follower.store.Cold(), storeMode)
	}

	// New writes arrive via the stream with leader numbering preserved.
	for i := 0; i < 40; i++ {
		if err := randomCrashOp(rng).post(client, tsL.URL); err != nil {
			t.Fatalf("leader write %d: %v", i, err)
		}
	}
	waitConverged(t, follower, leader, leader.dur.applied())

	// Roles and watermarks over the status endpoint.
	if st := fetchReplStatus(t, tsL.URL); st.Role != "leader" {
		t.Fatalf("leader /v1/repl/status role = %q", st.Role)
	}
	st := fetchReplStatus(t, tsF.URL)
	if st.Role != "follower" || st.Leader != tsL.URL {
		t.Fatalf("follower /v1/repl/status = %+v", st)
	}
	if st.Applied != leader.dur.applied() {
		t.Fatalf("follower applied %d, leader at %d", st.Applied, leader.dur.applied())
	}

	// Writes to a follower are refused with the overload contract.
	vec := make([]float64, crashDim)
	status, _ := postJSON(t, tsF.URL+"/v1/upsert", map[string]any{"id": 1, "vector": vec}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("follower accepted a write with %d, want 503", status)
	}
	// Searches keep serving on the follower.
	var nresp neighborsResponse
	if status, body := postJSON(t, tsF.URL+"/v1/neighbors", map[string]any{"id": int(leader.store.IDs()[0]), "k": 3}, &nresp); status != http.StatusOK {
		t.Fatalf("follower search got %d (%s), want 200", status, body)
	}

	// Promote: the applied watermark is the acked-write survival line.
	wantApplied := leader.dur.applied()
	var promoted struct {
		Applied uint64 `json:"applied"`
	}
	if status, body := postJSON(t, tsF.URL+"/v1/admin/promote", nil, &promoted); status != http.StatusOK {
		t.Fatalf("promote got %d (%s)", status, body)
	}
	if promoted.Applied != wantApplied {
		t.Fatalf("promoted at applied %d, want %d", promoted.Applied, wantApplied)
	}
	if st := fetchReplStatus(t, tsF.URL); st.Role != "leader" {
		t.Fatalf("post-promotion role = %q, want leader", st.Role)
	}
	// The new leader owns writes, continuing the same sequence space.
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	if status, body := postJSON(t, tsF.URL+"/v1/upsert", map[string]any{"id": 1, "vector": vec}, &ack); status != http.StatusOK {
		t.Fatalf("post-promotion write got %d (%s)", status, body)
	}
	if ack.Seq != wantApplied+1 {
		t.Fatalf("post-promotion write acked seq %d, want %d (contiguous with replicated history)", ack.Seq, wantApplied+1)
	}
}

// TestReplicationFollowerResumesAfterRestart reboots a follower from
// its own WAL directory and checks it resumes streaming from its local
// watermark — the FirstSeq plumbing that keeps a bootstrapped log's
// numbering straight across restarts.
func TestReplicationFollowerResumesAfterRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	leader, err := buildServer(crashTestConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.close()
	tsL := httptest.NewServer(leader.handler())
	defer tsL.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	for i := 0; i < 30; i++ {
		if err := randomCrashOp(rng).post(client, tsL.URL); err != nil {
			t.Fatal(err)
		}
	}

	fDir := t.TempDir()
	fcfg := crashTestConfig(fDir)
	fcfg.follow = tsL.URL
	follower, err := buildServer(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := randomCrashOp(rng).post(client, tsL.URL); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, follower, leader, leader.dur.applied())
	follower.close() // clean stop; state is in snapshot + wal suffix

	// More history lands while the follower is down.
	for i := 0; i < 20; i++ {
		if err := randomCrashOp(rng).post(client, tsL.URL); err != nil {
			t.Fatal(err)
		}
	}

	follower2, err := buildServer(fcfg)
	if err != nil {
		t.Fatalf("follower reboot: %v", err)
	}
	defer follower2.close()
	waitConverged(t, follower2, leader, leader.dur.applied())

	// And the exported images agree end to end.
	if exported, _ := exportStore(t, client, tsL.URL); !exported.Equal(follower2.store) {
		t.Fatal("leader export and rebooted follower store diverge")
	}
}
