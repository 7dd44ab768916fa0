package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
		shards:    4,
		index:     testIndexOptions("hnsw"),
		maxBatch:  16,
		window:    time.Millisecond,
		walDir:    walDir,
		fsync:     "never", // these tests are about precision, not fsync
	}
}

// TestCrossPrecisionBoot: a daemon that wrote f64 snapshots restarts
// with -precision sq8 — the old snapshot upconverts on boot, the WAL
// suffix (always full-precision records) replays through the quantized
// store, and the serving path holds the recall gate against a
// full-precision reference of the same final state.
func TestCrossPrecisionBoot(t *testing.T) {
	const dim, n = 16, 500
	rng := rand.New(rand.NewSource(41))
	emb := tensor.Randn(n, dim, 1, rng)

	walDir := t.TempDir()

	// Generation 1: f64 daemon. Seed via upserts, rotate a snapshot
	// (f64 image on disk), then land more writes past the watermark so
	// the next boot must replay a WAL suffix.
	srv, err := buildServer(walConfigAt(walDir, embstore.F64, dim))
	if err != nil {
		t.Fatal(err)
	}
	var updates []cluster.UpsertUpdate
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		updates = append(updates, cluster.UpsertUpdate{ID: &id, Vector: emb.Row(i)})
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

	// Recall gate: the quantized daemon's index vs an exact f64
	// reference over the identical final state.
	ref, err := embstore.New(dim, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		vec := emb.Row(i)
		switch graph.NodeID(i) {
		case idDel:
			continue
		case idR:
			vec = replaced
		}
		if err := ref.Upsert(graph.NodeID(i), vec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Upsert(idNew, fresh); err != nil {
		t.Fatal(err)
	}
	truth := ann.NewExact(ref, ann.Cosine)
	const k = 10
	var approx, exact [][]graph.NodeID
	for qi := 0; qi < 25; qi++ {
		q := emb.Row(qi * 17 % n)
		tr, err := truth.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := srv2.index.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		exact = append(exact, ids(tr))
		approx = append(approx, ids(ar))
	}
	recall, err := eval.MeanRecallAtK(approx, exact)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sq8 daemon recall@10 vs f64 reference = %.3f", recall)
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

	// The next rotation writes an sq8 image; booting f64 from it
	// upconverts back.
	if _, err := srv2.dur.snapshot(); err != nil {
		t.Fatal(err)
	}
	closeSrv2()
	srv3, err := buildServer(walConfigAt(walDir, embstore.F64, dim))
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.close()
	if got := srv3.store.Precision(); got != embstore.F64 {
		t.Fatalf("third-generation precision %v, want f64", got)
	}
	if srv3.store.Len() != n {
		t.Fatalf("third generation holds %d vectors, want %d", srv3.store.Len(), n)
	}
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
