//go:build linux || darwin

package main

// Daemon-level tests for beyond-RAM serving: booting the store from a
// mapped v3 snapshot, folding the write overlay back into the base at
// rotation, seeding the first base from a -snapshot artifact, and
// staying correct across the crash states a rotation can be
// interrupted in.

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"ehna/internal/cluster"
	"ehna/internal/embstore"
	"ehna/internal/faultfs"
	"ehna/internal/graph"
	"ehna/internal/tensor"
)

// mmapConfigAt is walConfigAt in mmap store mode.
func mmapConfigAt(walDir string, prec embstore.Precision, dim int) serverConfig {
	cfg := walConfigAt(walDir, prec, dim)
	cfg.storeMode = "mmap"
	return cfg
}

// seedDaemon upserts n seeded random vectors through the durability
// layer and mirrors them into a reference store at the daemon's
// precision.
func seedDaemon(t *testing.T, srv *server, n, dim int, seed int64) *embstore.Store {
	t.Helper()
	emb := tensor.Randn(n, dim, 1, rand.New(rand.NewSource(seed)))
	ref, err := embstore.New(dim, srv.store.Precision())
	if err != nil {
		t.Fatal(err)
	}
	var updates []cluster.UpsertUpdate
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		updates = append(updates, cluster.UpsertUpdate{ID: &id, Vector: emb.Row(i)})
		if err := ref.Upsert(id, emb.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.dur.upsert(updates); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestMmapBootRotateFold walks the cold store through its whole WAL
// lifecycle: first boot seeds and maps a v3 base, writes accumulate in
// the overlay, rotation folds them into a fresh base, and a reboot maps
// that base back with zero WAL replay.
func TestMmapBootRotateFold(t *testing.T) {
	const dim, n = 16, 300
	walDir := t.TempDir()

	srv, err := buildServer(mmapConfigAt(walDir, embstore.SQ8, dim))
	if err != nil {
		t.Fatal(err)
	}
	if !srv.store.Cold() {
		t.Fatal("mmap-mode store is not cold")
	}
	if srv.store.MappedPath() != walSnapshotV3Path(walDir) {
		t.Fatalf("mapped %s, want %s", srv.store.MappedPath(), walSnapshotV3Path(walDir))
	}
	ref := seedDaemon(t, srv, n, dim, 61)

	// Everything so far landed in the overlay: the mapped base was empty.
	if v, _, _ := srv.store.OverlayStats(); v != n {
		t.Fatalf("overlay holds %d vectors, want %d", v, n)
	}
	if _, err := srv.dur.snapshot(); err != nil {
		t.Fatal(err)
	}
	// The rotation folded the overlay into the remapped base.
	if v, b, m := srv.store.OverlayStats(); v != 0 || b != 0 || m != 0 {
		t.Fatalf("overlay (%d vectors, %d bytes, %d masked) after fold, want empty", v, b, m)
	}
	if srv.store.Len() != n {
		t.Fatalf("store holds %d after fold, want %d", srv.store.Len(), n)
	}

	// Post-fold mutations overlay the new base and keep serving truth.
	id := graph.NodeID(7)
	vec := make([]float64, dim)
	vec[3] = 2
	if _, err := srv.dur.upsert([]cluster.UpsertUpdate{{ID: &id, Vector: vec}}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Upsert(id, vec); err != nil {
		t.Fatal(err)
	}
	if _, _, masked := srv.store.OverlayStats(); masked != 1 {
		t.Fatalf("overwriting a base row masked %d rows, want 1", masked)
	}
	del := graph.NodeID(9)
	if _, _, err := srv.dur.delete([]graph.NodeID{del}); err != nil {
		t.Fatal(err)
	}
	ref.Delete(del)

	// Searches answer out of the cold store (beam from the graph slab,
	// re-rank and id reads from the mapping + overlay).
	ts := httptest.NewServer(srv.handler())
	var nresp neighborsResponse
	status, raw := postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"id": 7, "k": 3}, &nresp)
	if status != http.StatusOK {
		t.Fatalf("neighbors over cold store: %d %s", status, raw)
	}
	// /healthz reports the cold tier.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		StoreMode string `json:"store_mode"`
		Cold      struct {
			Snapshot       string `json:"snapshot"`
			MappedBytes    int64  `json:"mapped_bytes"`
			OverlayVectors int    `json:"overlay_vectors"`
			BaseMasked     int    `json:"base_masked"`
		} `json:"cold_store"`
		Process map[string]int64 `json:"process"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.StoreMode != "mmap" {
		t.Fatalf("healthz store_mode %q, want mmap", hz.StoreMode)
	}
	if hz.Cold.Snapshot != walSnapshotV3Path(walDir) || hz.Cold.MappedBytes <= 0 {
		t.Fatalf("healthz cold_store block %+v", hz.Cold)
	}
	if hz.Cold.OverlayVectors != 1 || hz.Cold.BaseMasked != 2 {
		t.Fatalf("healthz overlay_vectors %d (want 1), base_masked %d (want 2)",
			hz.Cold.OverlayVectors, hz.Cold.BaseMasked)
	}
	if hz.Process["resident_bytes"] <= 0 {
		t.Fatalf("healthz process block missing resident_bytes: %+v", hz.Process)
	}
	ts.Close()
	srv.close()

	// Reboot: the final shutdown-free close leaves a WAL suffix (the
	// post-fold upsert + delete); the boot maps the base and replays it
	// into the overlay.
	srv2, err := buildServer(mmapConfigAt(walDir, embstore.SQ8, dim))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.close()
	if !srv2.store.Cold() {
		t.Fatal("rebooted store is not cold")
	}
	if !srv2.store.Equal(ref) {
		t.Fatalf("rebooted cold store (%d nodes) diverges from reference (%d nodes)",
			srv2.store.Len(), ref.Len())
	}
}

// TestSeedSnapshotBootsMmap: -store=mmap over an empty WAL directory
// with a -snapshot seed writes the v3 base from the seed at boot and
// serves cold from the first generation; the reboot maps that base and
// ignores the seed.
func TestSeedSnapshotBootsMmap(t *testing.T) {
	const dim, n = 12, 150
	ref, err := embstore.FromMatrix(tensor.Randn(n, dim, 1, rand.New(rand.NewSource(63))), embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	seedPath := filepath.Join(t.TempDir(), "seed.snap")
	if err := writeStoreSnapshotV3(faultfs.OS(), seedPath, ref, 0); err != nil {
		t.Fatal(err)
	}

	walDir := t.TempDir()
	cfg := mmapConfigAt(walDir, 0, 0) // -precision unset: serve the seed as written
	cfg.snapshot = seedPath
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatalf("mmap boot over a seed-only dir: %v", err)
	}
	if !srv.store.Cold() || !srv.store.Equal(ref) {
		t.Fatalf("cold=%v equal=%v after seeded mmap boot", srv.store.Cold(), srv.store.Equal(ref))
	}
	if srv.store.MappedPath() != walSnapshotV3Path(walDir) {
		t.Fatalf("mapped %s, want the WAL dir's own base %s", srv.store.MappedPath(), walSnapshotV3Path(walDir))
	}
	id := graph.NodeID(5)
	vec := make([]float64, dim)
	vec[2] = 3
	if _, err := srv.dur.upsert([]cluster.UpsertUpdate{{ID: &id, Vector: vec}}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Upsert(id, vec); err != nil {
		t.Fatal(err)
	}
	srv.close()

	if err := os.Remove(seedPath); err != nil {
		t.Fatal(err)
	}
	srv1, err := buildServer(cfg)
	if err != nil {
		t.Fatalf("reboot without the seed artifact: %v", err)
	}
	defer srv1.close()
	if srv1.dur.replayed != 1 || !srv1.store.Equal(ref) {
		t.Fatalf("reboot replayed %d records (want 1), equal=%v", srv1.dur.replayed, srv1.store.Equal(ref))
	}
}

// TestMmapRotationFaultKeepsOldBase: the v3 publish rename fails
// mid-rotation (injected). The rotation reports the error, the daemon
// keeps serving from the old mapped base with its overlay intact, and
// once the fault clears the next rotation folds normally.
func TestMmapRotationFaultKeepsOldBase(t *testing.T) {
	const dim, n = 16, 100
	walDir := t.TempDir()

	inj := faultfs.New(nil)
	cfg := mmapConfigAt(walDir, embstore.SQ8, dim)
	cfg.fs = inj
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	seedDaemon(t, srv, n, dim, 64)
	if _, err := srv.dur.snapshot(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(walSnapshotV3Path(walDir))
	if err != nil {
		t.Fatal(err)
	}

	id := graph.NodeID(3)
	vec := make([]float64, dim)
	vec[0] = 5
	if _, err := srv.dur.upsert([]cluster.UpsertUpdate{{ID: &id, Vector: vec}}); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpRename, Path: "store.snap", Err: syscall.EIO})
	if _, err := srv.dur.snapshot(); err == nil {
		t.Fatal("rotation succeeded through a failing rename")
	}
	// Old base untouched, overlay still carrying the write, reads fine.
	after, err := os.ReadFile(walSnapshotV3Path(walDir))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed rotation modified the published v3 base")
	}
	if v, _, _ := srv.store.OverlayStats(); v != 1 {
		t.Fatalf("overlay holds %d vectors after failed rotation, want 1", v)
	}
	if got, ok := srv.store.Get(id); !ok || got[0] < 4 {
		t.Fatalf("overlay read after failed rotation: ok=%v vec=%v", ok, got)
	}

	inj.Clear()
	if _, err := srv.dur.snapshot(); err != nil {
		t.Fatalf("rotation after fault cleared: %v", err)
	}
	if v, _, _ := srv.store.OverlayStats(); v != 0 {
		t.Fatalf("overlay holds %d vectors after healed rotation, want 0", v)
	}
}

// TestCrashStatesMidRotation: a deterministic reconstruction of power
// loss mid-write — a half-written store.snap.tmp next to the intact
// previous base. The torn temp is garbage to be ignored, never parsed,
// and the next rotation cleans it up.
func TestCrashStatesMidRotation(t *testing.T) {
	const dim, n = 16, 120
	walDir := t.TempDir()
	srv, err := buildServer(mmapConfigAt(walDir, embstore.SQ8, dim))
	if err != nil {
		t.Fatal(err)
	}
	ref := seedDaemon(t, srv, n, dim, 65)
	if _, err := srv.dur.snapshot(); err != nil {
		t.Fatal(err)
	}
	srv.close()

	good, err := os.ReadFile(walSnapshotV3Path(walDir))
	if err != nil {
		t.Fatal(err)
	}
	tmp := walSnapshotV3Path(walDir) + ".tmp"
	if err := os.WriteFile(tmp, good[:len(good)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	srv1, err := buildServer(mmapConfigAt(walDir, embstore.SQ8, dim))
	if err != nil {
		t.Fatalf("boot beside torn snapshot temp: %v", err)
	}
	if !srv1.store.Equal(ref) {
		t.Fatal("boot beside torn temp diverges")
	}
	// The next rotation overwrites the stray temp on its way through.
	if _, err := srv1.dur.snapshot(); err != nil {
		t.Fatal(err)
	}
	srv1.close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("rotation left the temp file behind (err=%v)", err)
	}
}

// TestCrashMmapMidRotationE2E SIGKILLs a real mmap-mode daemon process
// while a snapshot rotation is racing, then recovers in-process: the
// boot must land on either the old or the new base — never a torn one —
// and serve exactly the acknowledged writes.
func TestCrashMmapMidRotationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process and fsyncs every write; skipped under -short")
	}
	walDir := t.TempDir()
	cmd, base := startCrashHelper(t, walDir, "EHNAD_STORE=mmap")

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	reference, err := embstore.New(crashDim, embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 40; i++ {
		op := randomCrashOp(rng)
		if err := op.post(client, base); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		op.applyTo(t, reference)
	}
	// Fire a rotation and kill somewhere inside (or right around) it.
	go func() {
		resp, err := client.Post(base+"/v1/admin/snapshot", "application/json", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
	_ = cmd.Process.Kill()
	_ = cmd.Wait()

	cfg := crashTestConfig(walDir)
	cfg.storeMode = "mmap"
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatalf("recovery boot after mid-rotation kill: %v", err)
	}
	defer srv.close()
	if !srv.store.Cold() {
		t.Fatal("recovered store is not cold")
	}
	if !srv.store.Equal(reference) {
		t.Fatalf("recovered store (%d nodes) diverges from acked reference (%d nodes)",
			srv.store.Len(), reference.Len())
	}
}

// TestLegacyShardedSnapshotBoot: a snapshot written in four runs, when
// the store was striped over four lock shards
// (internal/embstore/testdata/sq8shards.snap, its rows in
// sq8shards.json), boots as a -snapshot seed and as a WAL directory's
// own store.snap, -store ram and -store mmap alike, serving every row
// bit for bit; the first rotation writes it back as one run.
func TestLegacyShardedSnapshotBoot(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "embstore", "testdata")
	fixture := filepath.Join(testdata, "sq8shards.snap")
	raw, err := os.ReadFile(filepath.Join(testdata, "sq8shards.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		ID     graph.NodeID `json:"id"`
		Vector []float64    `json:"vector"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	want, err := embstore.New(8, embstore.SQ8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := want.Upsert(r.ID, r.Vector); err != nil {
			t.Fatal(err)
		}
	}
	// runs reads the v3 header's run count (bytes 20–24, little-endian).
	runs := func(t *testing.T, path string) uint32 {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil || len(data) < 24 {
			t.Fatalf("read %s: %v", path, err)
		}
		return uint32(data[20]) | uint32(data[21])<<8 | uint32(data[22])<<16 | uint32(data[23])<<24
	}
	if n := runs(t, fixture); n != 4 {
		t.Fatalf("fixture has %d runs, want 4", n)
	}
	serves := func(t *testing.T, srv *server, cold bool) {
		t.Helper()
		if srv.store.Cold() != cold || !srv.store.Equal(want) || !want.Equal(srv.store) {
			t.Fatalf("cold=%v, or the served store differs from the fixture's rows", srv.store.Cold())
		}
	}
	for _, mode := range []string{"ram", "mmap"} {
		t.Run(mode+" seed", func(t *testing.T) {
			srv, err := buildServer(serverConfig{snapshot: fixture, storeMode: mode, index: testIndexOptions("exact")})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.close()
			serves(t, srv, mode == "mmap")
		})
		t.Run(mode+" own", func(t *testing.T) {
			dir := t.TempDir()
			data, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatal(err)
			}
			own := walSnapshotV3Path(dir)
			if err := os.WriteFile(own, data, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := walConfigAt(dir, 0, 0)
			cfg.storeMode = mode
			srv, err := buildServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.close()
			serves(t, srv, mode == "mmap")
			if srv.dur.applied() != 11 {
				t.Fatalf("applied seq %d, want the fixture's watermark 11", srv.dur.applied())
			}
			if _, err := srv.dur.snapshot(); err != nil {
				t.Fatal(err)
			}
			if n := runs(t, own); n != 1 {
				t.Fatalf("store.snap after a rotation has %d runs, want 1", n)
			}
			serves(t, srv, mode == "mmap")
		})
	}
}
