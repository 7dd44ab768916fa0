package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/graph"
	"ehna/internal/tensor"
)

// walConfigAt is the WAL-mode server config the precision tests boot.
func walConfigAt(walDir string, prec embstore.Precision, dim int) serverConfig {
	return serverConfig{
		dim:       dim,
		precision: prec,
		index:     testIndexOptions("hnsw"),
		walDir:    walDir,
		fsync:     "never", // these tests are about precision, not fsync
	}
}

// bruteTopK is the recall truth: the k ids of vecs most cosine-similar
// to q by a float64 full sort, sharing no code with the store or index
// under test.
func bruteTopK(vecs map[graph.NodeID][]float64, q []float64, k int) []graph.NodeID {
	type scored struct {
		id  graph.NodeID
		cos float64
	}
	all := make([]scored, 0, len(vecs))
	for id, v := range vecs {
		var dot, qq, vv float64
		for i := range q {
			dot, qq, vv = dot+q[i]*v[i], qq+q[i]*q[i], vv+v[i]*v[i]
		}
		all = append(all, scored{id, dot / math.Sqrt(qq*vv)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].cos > all[j].cos })
	out := make([]graph.NodeID, k)
	for i := range out {
		out[i] = all[i].id
	}
	return out
}

// TestCrossPrecisionBoot: a daemon that wrote f32 snapshots restarts
// with -precision sq8 — the old snapshot converts on boot, the WAL
// suffix (always full-precision records) replays through the quantized
// store, and the serving path holds the recall gate against the
// full-precision truth of the same final state. A restart that passes
// no -precision keeps serving sq8, replaying nothing; -precision f32
// converts back.
func TestCrossPrecisionBoot(t *testing.T) {
	const dim, n = 16, 500
	rng := rand.New(rand.NewSource(41))
	emb := tensor.Randn(n, dim, 1, rng)

	walDir := t.TempDir()

	// Generation 1: a new store with -precision unset is f32. Seed via
	// upserts, rotate a snapshot (f32 image on disk), then land more
	// writes past the watermark so the next boot must replay a WAL
	// suffix.
	srv, err := buildServer(walConfigAt(walDir, 0, dim))
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.store.Precision(); got != embstore.F32 {
		t.Fatalf("new store with -precision unset is %v, want f32", got)
	}
	final := make(map[graph.NodeID][]float64, n)
	var updates []cluster.UpsertUpdate
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		updates = append(updates, cluster.UpsertUpdate{ID: &id, Vector: emb.Row(i)})
		final[id] = emb.Row(i)
	}
	if _, err := srv.dur.upsert(updates); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.dur.snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-watermark churn: replace one vector, delete another, add a
	// fresh one.
	replaced := make([]float64, dim)
	replaced[3] = 2.5
	idR, idDel, idNew := graph.NodeID(7), graph.NodeID(8), graph.NodeID(n+100)
	fresh := make([]float64, dim)
	fresh[0] = 1.25
	if _, err := srv.dur.upsert([]cluster.UpsertUpdate{{ID: &idR, Vector: replaced}, {ID: &idNew, Vector: fresh}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.dur.delete([]graph.NodeID{idDel}); err != nil {
		t.Fatal(err)
	}
	final[idR], final[idNew] = replaced, fresh
	delete(final, idDel)
	srv.close()

	// Generation 2: same WAL dir, -precision sq8.
	srv2, err := buildServer(walConfigAt(walDir, embstore.SQ8, dim))
	if err != nil {
		t.Fatal(err)
	}
	srv2Closed := false
	closeSrv2 := func() {
		if !srv2Closed {
			srv2Closed = true
			srv2.close()
		}
	}
	defer closeSrv2()
	if got := srv2.store.Precision(); got != embstore.SQ8 {
		t.Fatalf("rebooted precision %v, want sq8", got)
	}
	if srv2.dur.replayed != 3 {
		t.Fatalf("replayed %d records, want 3", srv2.dur.replayed)
	}
	if srv2.store.Len() != n {
		t.Fatalf("store holds %d vectors, want %d", srv2.store.Len(), n)
	}
	if _, ok := srv2.store.Get(idDel); ok {
		t.Fatal("post-watermark delete lost in cross-precision replay")
	}
	if got, ok := srv2.store.Get(idNew); !ok || got[0] < 1.2 || got[0] > 1.3 {
		t.Fatalf("post-watermark upsert lost: %v %v", got, ok)
	}

	// Recall gate: the quantized daemon's index vs the float64 ranking
	// of the identical final state.
	const k = 10
	var approx, exact [][]graph.NodeID
	for qi := 0; qi < 25; qi++ {
		q := emb.Row(qi * 17 % n)
		ar, err := srv2.index.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		exact = append(exact, bruteTopK(final, q, k))
		approx = append(approx, ids(ar))
	}
	recall, err := eval.MeanRecallAtK(approx, exact)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sq8 daemon recall@10 vs f64 truth = %.3f", recall)
	if recall < 0.95 {
		t.Errorf("cross-precision boot recall@10 = %.3f, want ≥ 0.95", recall)
	}

	// /healthz reports the compressed plane.
	ts := httptest.NewServer(srv2.handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Precision      string `json:"precision"`
		BytesPerVector int    `json:"bytes_per_vector"`
	}
	decodeJSONBody(t, resp, &hz)
	if hz.Precision != "sq8" || hz.BytesPerVector != embstore.SQ8.BytesPerVector(dim) {
		t.Fatalf("healthz precision block: %+v", hz)
	}

	// The next rotation writes an sq8 image. A restart that forgets
	// -precision follows it — same layout, nothing re-encoded, nothing
	// replayed — and -precision f32 converts back.
	if _, err := srv2.dur.snapshot(); err != nil {
		t.Fatal(err)
	}
	closeSrv2()
	for _, gen := range []struct{ flag, want embstore.Precision }{{0, embstore.SQ8}, {embstore.F32, embstore.F32}} {
		srv3, err := buildServer(walConfigAt(walDir, gen.flag, dim))
		if err != nil {
			t.Fatal(err)
		}
		got, replayed, held := srv3.store.Precision(), srv3.dur.replayed, srv3.store.Len()
		srv3.close()
		if got != gen.want || replayed != 0 || held != n {
			t.Fatalf("-precision %v over an sq8 snapshot: serving %v (want %v), %d records replayed (want 0), %d vectors (want %d)",
				gen.flag, got, gen.want, replayed, held, n)
		}
	}
}

// TestLegacyF64SnapshotBoot pins the upgrade from a version whose
// default precision was f64, on the fixture such a version wrote
// (internal/embstore/testdata/f64.snap, listed in f64.json): every boot
// that can re-encode serves it at f32 with no id lost, and leaves an f32
// store.snap behind; the one that cannot — -store mmap with nowhere to
// publish — names the problem.
func TestLegacyF64SnapshotBoot(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "embstore", "testdata")
	fixture := filepath.Join(testdata, "f64.snap")
	raw, err := os.ReadFile(filepath.Join(testdata, "f64.json"))
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
	const watermark = 17 // stamped on the fixture
	checkServes := func(t *testing.T, srv *server) {
		t.Helper()
		if got := srv.store.Precision(); got != embstore.F32 || srv.store.Len() != len(rows) {
			t.Fatalf("serving %d vectors at %v, want %d at f32", srv.store.Len(), got, len(rows))
		}
		for _, row := range rows {
			got, ok := srv.store.Get(row.ID)
			if !ok {
				t.Fatalf("id %d lost in the upgrade", row.ID)
			}
			var sq float64
			for j, x := range row.Vector {
				sq += x * x
				if d := math.Abs(got[j] - x); d > 1e-6*math.Abs(x) {
					t.Fatalf("id %d lane %d: %g, want %g within f32 error", row.ID, j, got[j], x)
				}
			}
			srv.store.With(row.ID, func(v *embstore.VecView) {
				if want := math.Sqrt(sq); math.Abs(v.Norm-want) > 1e-12*want {
					t.Fatalf("id %d: norm %g, want the original vector's %g", row.ID, v.Norm, want)
				}
			})
		}
	}
	// ownDir is a data directory as the old version left it after a clean
	// shutdown: its own f64 store.snap, the WAL truncated behind it.
	ownDir := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		data, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walSnapshotV3Path(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	rotatesToF32 := func(t *testing.T, srv *server, dir string) {
		t.Helper()
		if srv.dur.replayed != 0 || srv.dur.applied() != watermark {
			t.Fatalf("replayed %d records to seq %d, want 0 and the fixture's watermark %d", srv.dur.replayed, srv.dur.applied(), watermark)
		}
		if _, err := srv.dur.snapshot(); err != nil {
			t.Fatal(err)
		}
		own, wm, err := embstore.LoadSnapshotV3(walSnapshotV3Path(dir), 4)
		if err != nil || own.Precision() != embstore.F32 || wm != watermark || !own.Equal(srv.store) {
			t.Fatalf("store.snap after a rotation: %v (watermark %d), want the f32 image of what is served", err, wm)
		}
	}

	t.Run("ram seed", func(t *testing.T) {
		srv, err := buildServer(serverConfig{snapshot: fixture, index: testIndexOptions("exact")})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.close()
		checkServes(t, srv)
	})
	t.Run("ram own", func(t *testing.T) {
		dir := ownDir(t)
		srv, err := buildServer(walConfigAt(dir, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.close()
		checkServes(t, srv)
		rotatesToF32(t, srv, dir)
	})
	t.Run("mmap own", func(t *testing.T) {
		dir := ownDir(t)
		srv, err := buildServer(mmapConfigAt(dir, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.close()
		if !srv.store.Cold() || srv.store.MappedPath() != walSnapshotV3Path(dir) {
			t.Fatalf("cold=%v mapping %q, want the republished %s", srv.store.Cold(), srv.store.MappedPath(), walSnapshotV3Path(dir))
		}
		checkServes(t, srv)
		rotatesToF32(t, srv, dir)
	})
	t.Run("mmap without wal", func(t *testing.T) {
		srv, err := buildServer(serverConfig{snapshot: fixture, storeMode: "mmap", index: testIndexOptions("exact")})
		if err == nil {
			srv.close()
		}
		if !errors.Is(err, embstore.ErrF64Snapshot) {
			t.Fatalf("err = %v, want ErrF64Snapshot", err)
		}
	})
}

func ids(rs []ann.Result) []graph.NodeID {
	out := make([]graph.NodeID, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func decodeJSONBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSnapshotFailsBoot: a truncated store snapshot must refuse
// to boot — a daemon serving garbage vectors is worse than one that
// won't start.
func TestCorruptSnapshotFailsBoot(t *testing.T) {
	const dim = 8
	walDir := t.TempDir()
	srv, err := buildServer(walConfigAt(walDir, embstore.SQ8, dim))
	if err != nil {
		t.Fatal(err)
	}
	id := graph.NodeID(1)
	vec := make([]float64, dim)
	vec[0] = 1
	if _, err := srv.dur.upsert([]cluster.UpsertUpdate{{ID: &id, Vector: vec}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.dur.snapshot(); err != nil {
		t.Fatal(err)
	}
	srv.close()

	snap := walSnapshotV3Path(walDir)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// The (valid) graph snapshot must not rescue a corrupt store image.
	if _, err := os.Stat(filepath.Join(walDir, "graph.gob")); err != nil {
		t.Fatal(err)
	}
	if _, err := buildServer(walConfigAt(walDir, embstore.SQ8, dim)); err == nil ||
		!strings.Contains(err.Error(), "load snapshot "+snap) {
		t.Fatalf("truncated snapshot booted: err = %v", err)
	}
}
