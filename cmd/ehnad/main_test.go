package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/datagen"
	"ehna/internal/ehna"
	"ehna/internal/embstore"
	"ehna/internal/faultfs"
	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/walk"
)

// testIndexOptions is the flag-default option set used by the tests.
func testIndexOptions(kind string) indexOptions {
	return indexOptions{
		kind: kind, metric: ann.Cosine,
		m: 16, efConstruction: 200, efSearch: 64,
	}
}

// newTestServer stands up the full daemon handler over the given store.
func newTestServer(t *testing.T, store *embstore.Store, indexKind string) (*server, *httptest.Server) {
	t.Helper()
	index, err := buildIndex(store, testIndexOptions(indexKind))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serverConfig{index: testIndexOptions(indexKind)}, store, index)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() { ts.Close(); srv.close() })
	return srv, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw.String(), err)
		}
	}
	return resp.StatusCode, raw.String()
}

type neighborsResponse struct {
	Results  []ann.Result   `json:"results"`
	Batches  [][]ann.Result `json:"batches"`
	Degraded bool           `json:"degraded"`
}

var trained struct {
	once sync.Once
	emb  *tensor.Matrix
	g    *graph.Temporal
	err  error
}

// trainedStore trains an EHNA model on a small datagen graph end-to-end
// and loads the attention-aggregated embeddings into a store — the full
// train → infer → serve pipeline the daemon fronts. Training runs once;
// each test gets a fresh store over the shared embeddings.
func trainedStore(t *testing.T) (*embstore.Store, *graph.Temporal) {
	t.Helper()
	trained.once.Do(func() {
		g, err := datagen.Generate(datagen.Digg, 0.05, 7)
		if err != nil {
			trained.err = err
			return
		}
		cfg := ehna.DefaultConfig()
		cfg.Dim = 8
		cfg.Walk = walk.TemporalConfig{P: 1, Q: 1, NumWalks: 2, WalkLen: 3}
		cfg.BatchSize = 16
		cfg.FallbackSamples = 4
		m, err := ehna.NewModel(g, cfg)
		if err != nil {
			trained.err = err
			return
		}
		m.TrainEpoch()
		trained.emb, trained.g = m.InferAll(), g
	})
	if trained.err != nil {
		t.Fatal(trained.err)
	}
	store, err := embstore.FromMatrix(trained.emb, embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	return store, trained.g
}

func TestNeighborsEndToEndOnTrainedGraph(t *testing.T) {
	store, g := trainedStore(t)
	for _, kind := range []string{"exact", "hnsw"} {
		_, ts := newTestServer(t, store, kind)
		var resp neighborsResponse
		status, raw := postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"id": 0, "k": 5}, &resp)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", kind, status, raw)
		}
		if len(resp.Results) != 5 {
			t.Fatalf("%s: got %d results, want 5: %s", kind, len(resp.Results), raw)
		}
		for i, r := range resp.Results {
			if r.ID == 0 {
				t.Fatalf("%s: query node returned as its own neighbor", kind)
			}
			if int(r.ID) >= g.NumNodes() {
				t.Fatalf("%s: result %d id %d outside graph", kind, i, r.ID)
			}
			if i > 0 && resp.Results[i-1].Score < r.Score {
				t.Fatalf("%s: results not sorted: %v", kind, resp.Results)
			}
		}
	}
}

func TestNeighborsByVectorAndBatch(t *testing.T) {
	store, _ := trainedStore(t)
	_, ts := newTestServer(t, store, "exact")

	vec, _ := store.Get(3)
	var single neighborsResponse
	status, raw := postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"vector": vec, "k": 3}, &single)
	if status != http.StatusOK || len(single.Results) != 3 {
		t.Fatalf("vector query: status %d: %s", status, raw)
	}
	// Query by own vector includes the node itself at rank 1.
	if single.Results[0].ID != 3 {
		t.Fatalf("self not top hit for own vector: %v", single.Results)
	}

	var batch neighborsResponse
	status, raw = postJSON(t, ts.URL+"/v1/neighbors", map[string]any{
		"k":       4,
		"queries": []map[string]any{{"id": 0}, {"id": 1, "k": 2}, {"vector": vec}},
	}, &batch)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, raw)
	}
	if len(batch.Batches) != 3 {
		t.Fatalf("batch: %d result sets, want 3", len(batch.Batches))
	}
	if len(batch.Batches[0]) != 4 || len(batch.Batches[1]) != 2 || len(batch.Batches[2]) != 4 {
		t.Fatalf("batch k handling wrong: %d/%d/%d", len(batch.Batches[0]), len(batch.Batches[1]), len(batch.Batches[2]))
	}
}

func TestNeighborsErrors(t *testing.T) {
	store, _ := trainedStore(t)
	_, ts := newTestServer(t, store, "exact")
	for name, body := range map[string]any{
		"no id or vector":  map[string]any{"k": 5},
		"unknown id":       map[string]any{"id": 1 << 30},
		"both":             map[string]any{"id": 1, "vector": []float64{1}},
		"wrong-dim vector": map[string]any{"vector": []float64{1, 2}},
	} {
		status, _ := postJSON(t, ts.URL+"/v1/neighbors", body, nil)
		if status == http.StatusOK {
			t.Fatalf("%s: accepted", name)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/neighbors: %d", resp.StatusCode)
	}
}

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizeBodyIs413: a write or search body that runs past
// maxBodyBytes is refused with 413 and the usual error body, on each
// route, whether or not it declares its length — and the routes still
// serve ordinary requests afterwards.
func TestOversizeBodyIs413(t *testing.T) {
	store := gaussianStore(t, 100, 8, embstore.F32)
	opts := testIndexOptions("hnsw")
	index, err := buildIndex(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serverConfig{index: opts}, store, index)
	t.Cleanup(srv.close)
	h := srv.handler()
	for _, route := range []struct{ path, prefix, small string }{
		{"/v1/neighbors", `{"k":1,"vector":[`, `{"k":1,"vector":[1,0,0,0,0,0,0,0]}`},
		{"/v1/upsert", `{"id":1,"vector":[`, `{"id":1,"vector":[1,0,0,0,0,0,0,0]}`},
		{"/v1/delete", `{"ids":[`, `{"id":1}`},
	} {
		for _, declared := range []bool{false, true} {
			n := int64(len(route.prefix)) + maxBodyBytes
			req := httptest.NewRequest(http.MethodPost, route.path,
				io.MultiReader(strings.NewReader(route.prefix), io.LimitReader(spaces{}, maxBodyBytes)))
			req.ContentLength = -1
			if declared {
				req.ContentLength = n
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var body struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusRequestEntityTooLarge || body.Error == "" {
				t.Fatalf("%s with a %d-byte body (length declared %v): status %d, body %.200q (%v)",
					route.path, n, declared, rec.Code, rec.Body, err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.path, strings.NewReader(route.small)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s after the oversize bodies: status %d, body %q", route.path, route.small, rec.Code, rec.Body)
		}
	}
}

func TestScoreMatchesDotProduct(t *testing.T) {
	store, _ := trainedStore(t)
	_, ts := newTestServer(t, store, "exact")
	var out struct {
		Op    string  `json:"op"`
		Score float64 `json:"score"`
	}
	status, raw := postJSON(t, ts.URL+"/v1/score", map[string]any{"u": 0, "v": 1}, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	eu, _ := store.Get(0)
	ev, _ := store.Get(1)
	want := tensor.DotVec(eu, ev)
	if out.Op != "Hadamard" {
		t.Fatalf("default op %q", out.Op)
	}
	if diff := out.Score - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("hadamard-sum score %g != dot product %g", out.Score, want)
	}
	for _, op := range []string{"mean", "l1", "l2", "hadamard"} {
		status, raw := postJSON(t, ts.URL+"/v1/score", map[string]any{"u": 0, "v": 1, "op": op}, nil)
		if status != http.StatusOK {
			t.Fatalf("op %s: status %d: %s", op, status, raw)
		}
	}
	if status, _ := postJSON(t, ts.URL+"/v1/score", map[string]any{"u": 0, "v": 1, "op": "nope"}, nil); status == http.StatusOK {
		t.Fatal("bad operator accepted")
	}
	if status, _ := postJSON(t, ts.URL+"/v1/score", map[string]any{"u": 0, "v": 1 << 30}, nil); status != http.StatusNotFound {
		t.Fatalf("unknown node scored: %d", status)
	}
}

func TestUpsertThenQuery(t *testing.T) {
	store, _ := trainedStore(t)
	for _, kind := range []string{"exact", "hnsw"} {
		_, ts := newTestServer(t, store, kind)
		id := uint32(200000)
		vec := make([]float64, store.Dim())
		vec[0] = 3
		status, raw := postJSON(t, ts.URL+"/v1/upsert", map[string]any{"id": id, "vector": vec}, nil)
		if status != http.StatusOK {
			t.Fatalf("%s: upsert status %d: %s", kind, status, raw)
		}
		var resp neighborsResponse
		status, raw = postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"vector": vec, "k": 1}, &resp)
		if status != http.StatusOK || len(resp.Results) != 1 {
			t.Fatalf("%s: query after upsert: %d %s", kind, status, raw)
		}
		if resp.Results[0].ID != graph.NodeID(id) {
			t.Fatalf("%s: upserted vector not its own nearest neighbor: %v", kind, resp.Results)
		}
		// Batch upsert.
		status, raw = postJSON(t, ts.URL+"/v1/upsert", map[string]any{
			"updates": []map[string]any{
				{"id": id + 1, "vector": vec},
				{"id": id + 2, "vector": vec},
			},
		}, nil)
		if status != http.StatusOK {
			t.Fatalf("%s: batch upsert: %d %s", kind, status, raw)
		}
		// Dimension mismatch rejected.
		if status, _ := postJSON(t, ts.URL+"/v1/upsert", map[string]any{"id": id, "vector": []float64{1}}, nil); status == http.StatusOK {
			t.Fatalf("%s: wrong-dim upsert accepted", kind)
		}
		store.Delete(graph.NodeID(id))
		store.Delete(graph.NodeID(id + 1))
		store.Delete(graph.NodeID(id + 2))
	}
}

func TestHealthz(t *testing.T) {
	store, g := trainedStore(t)
	_, ts := newTestServer(t, store, "hnsw")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
		Dim    int    `json:"dim"`
		Index  string `json:"index"`
		Metric string `json:"metric"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.Nodes != g.NumNodes() || out.Index != "hnsw" || out.Metric != "cosine" {
		t.Fatalf("healthz = %+v", out)
	}
}

// TestConcurrentNeighborsThroughBatcher hammers the single-query path
// with concurrent requests, each searched on its own handler, and
// checks every reply matches the index's answer.
func TestConcurrentNeighborsThroughBatcher(t *testing.T) {
	store, _ := trainedStore(t)
	srv, ts := newTestServer(t, store, "exact")
	want, err := srv.index.Search(mustGet(t, store, 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp neighborsResponse
			status, raw := postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"vector": mustGet(t, store, 5), "k": 4}, &resp)
			if status != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", status, raw)
				return
			}
			if len(resp.Results) != 4 || resp.Results[0].ID != want[0].ID {
				errs <- fmt.Errorf("result %v != %v", resp.Results, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func mustGet(t *testing.T, s *embstore.Store, id graph.NodeID) []float64 {
	t.Helper()
	v, ok := s.Get(id)
	if !ok {
		t.Fatalf("node %d missing", id)
	}
	return v
}

// writeModelCheckpoint saves an untrained ehna model (a gob file) and
// returns its path.
func writeModelCheckpoint(t *testing.T) string {
	t.Helper()
	g, err := datagen.Generate(datagen.Digg, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ehna.DefaultConfig()
	cfg.Dim = 8
	cfg.Walk = walk.TemporalConfig{P: 1, Q: 1, NumWalks: 2, WalkLen: 3}
	m, err := ehna.NewModel(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPprofMount checks /debug/pprof/ is served only when -pprof is set.
func TestPprofMount(t *testing.T) {
	store, _ := trainedStore(t)
	srv, ts := newTestServer(t, store, "exact")
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without -pprof")
	}

	srv.pprof = true
	ts2 := httptest.NewServer(srv.handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with -pprof: status %d", resp.StatusCode)
	}
}

// TestHNSWGraphSnapshotBoot builds an HNSW index with -hnsw-graph set
// (writing the snapshot), boots a second index from the saved graph,
// and checks the loaded index answers queries identically — the
// restart-without-rebuild path.
func TestHNSWGraphSnapshotBoot(t *testing.T) {
	store, _ := trainedStore(t)
	opts := testIndexOptions("hnsw")
	opts.graphPath = filepath.Join(t.TempDir(), "graph.gob")
	built, err := buildIndex(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(opts.graphPath); err != nil {
		t.Fatalf("graph snapshot not written: %v", err)
	}
	loaded, err := buildIndex(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.(*ann.HNSW); !ok {
		t.Fatalf("loaded index is %T, want *ann.HNSW", loaded)
	}
	for qi := graph.NodeID(0); qi < 10; qi++ {
		q := mustGet(t, store, qi)
		want, err := built.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results vs %d", qi, len(got), len(want))
		}
		// Same ranking; scores to ~1e-8: a built slab takes each row's norm
		// from the stored f32 lanes, a loaded one mirrors the norm the
		// store carries from the original vector.
		for i := range want {
			if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-6 {
				t.Fatalf("query %d result %d: %+v vs %+v", qi, i, got[i], want[i])
			}
		}
	}
}

// TestDeleteEndpoint covers /v1/delete in the cache (no WAL) mode for
// every index kind.
func TestDeleteEndpoint(t *testing.T) {
	store, _ := trainedStore(t)
	for _, kind := range []string{"exact", "hnsw"} {
		_, ts := newTestServer(t, store, kind)
		id := uint32(300000)
		vec := make([]float64, store.Dim())
		vec[0] = 7
		if status, raw := postJSON(t, ts.URL+"/v1/upsert", map[string]any{"id": id, "vector": vec}, nil); status != http.StatusOK {
			t.Fatalf("%s: upsert: %d %s", kind, status, raw)
		}
		var out struct {
			Deleted int `json:"deleted"`
			Nodes   int `json:"nodes"`
		}
		status, raw := postJSON(t, ts.URL+"/v1/delete", map[string]any{"id": id}, &out)
		if status != http.StatusOK || out.Deleted != 1 {
			t.Fatalf("%s: delete: %d %s", kind, status, raw)
		}
		if _, ok := store.Get(graph.NodeID(id)); ok {
			t.Fatalf("%s: vector survived delete", kind)
		}
		// Deleting it again is a clean no-op.
		status, _ = postJSON(t, ts.URL+"/v1/delete", map[string]any{"ids": []uint32{id}}, &out)
		if status != http.StatusOK || out.Deleted != 0 {
			t.Fatalf("%s: double delete reported %d", kind, out.Deleted)
		}
		// Missing id/ids is a 400.
		if status, _ := postJSON(t, ts.URL+"/v1/delete", map[string]any{}, nil); status != http.StatusBadRequest {
			t.Fatalf("%s: empty delete accepted (%d)", kind, status)
		}
	}
}

// exportStore pulls a daemon's /v1/export into a temp file and loads
// the v3 image at its native precision, returning the store and the
// watermark it was stamped with.
func exportStore(t *testing.T, client *http.Client, base string) (*embstore.Store, uint64) {
	t.Helper()
	resp, err := client.Get(base + "/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %s", resp.Status)
	}
	path := filepath.Join(t.TempDir(), "export.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(f, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n != resp.ContentLength {
		t.Fatalf("export: %d body bytes, Content-Length %d", n, resp.ContentLength)
	}
	s, wm, err := embstore.LoadSnapshotV3(path, 4)
	if err != nil {
		t.Fatalf("export did not round-trip: %v", err)
	}
	return s, wm
}

// TestExportEndpoint: the exported stream is a loadable v3 embstore
// snapshot equal to the live store, sent with its Content-Length; an
// export that cannot be spooled is a 500, not a truncated 200.
func TestExportEndpoint(t *testing.T) {
	store, _ := trainedStore(t)
	_, ts := newTestServer(t, store, "exact")
	loaded, wm := exportStore(t, http.DefaultClient, ts.URL)
	if !loaded.Equal(store) {
		t.Fatal("export stream differs from live store")
	}
	if wm != 0 {
		t.Fatalf("export without a WAL stamped watermark %d, want 0", wm)
	}

	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	resp, err := http.Get(ts.URL + "/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("export with no spool directory: status %d, want 500", resp.StatusCode)
	}
}

// TestExportSpoolFailureIs500: with a WAL the export spools beside the
// log through the injectable filesystem; a write fault mid-save
// answers 500 with nothing sent, leaves no spool file behind, and the
// next export (fault cleared) succeeds with the watermark stamped.
func TestExportSpoolFailureIs500(t *testing.T) {
	const dim = 8
	walDir := t.TempDir()
	inj := faultfs.New(nil)
	cfg := walConfigAt(walDir, embstore.F32, dim)
	cfg.fs = inj
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	id := graph.NodeID(3)
	vec := make([]float64, dim)
	vec[1] = 4
	if _, err := srv.dur.upsert([]cluster.UpsertUpdate{{ID: &id, Vector: vec}}); err != nil {
		t.Fatal(err)
	}

	inj.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "export-", Count: 1, Err: syscall.ENOSPC})
	resp, err := http.Get(ts.URL + "/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("export")) {
		t.Fatalf("failed export: status %d body %q, want a 500 naming the export", resp.StatusCode, body)
	}
	if left, _ := filepath.Glob(filepath.Join(walDir, "export-*")); len(left) != 0 {
		t.Fatalf("failed export left spool files behind: %v", left)
	}

	exported, wm := exportStore(t, http.DefaultClient, ts.URL)
	if wm != srv.dur.applied() || !exported.Equal(srv.store) {
		t.Fatalf("export after the fault cleared: watermark %d (applied %d), equal %v",
			wm, srv.dur.applied(), exported.Equal(srv.store))
	}
	if left, _ := filepath.Glob(filepath.Join(walDir, "export-*")); len(left) != 0 {
		t.Fatalf("export left spool files behind: %v", left)
	}
}

// TestAdminEndpointsRequireWAL: snapshot rotation is a durability
// operation; without -wal it must refuse, not pretend.
func TestAdminEndpointsRequireWAL(t *testing.T) {
	store, _ := trainedStore(t)
	_, ts := newTestServer(t, store, "hnsw")
	for _, ep := range []string{"/v1/admin/snapshot"} {
		if status, _ := postJSON(t, ts.URL+ep, map[string]any{}, nil); status != http.StatusBadRequest {
			t.Fatalf("%s without -wal: status %d, want 400", ep, status)
		}
	}
}

// TestWALModeBootFromSeedSnapshot: first boot of a WAL directory seeds
// from -snapshot, writes are WAL-logged, and a reboot replays them on
// top of the seed.
func TestWALModeBootFromSeedSnapshot(t *testing.T) {
	store, _ := trainedStore(t)
	dir := t.TempDir()
	seedPath := filepath.Join(dir, "seed.snap")
	if err := writeStoreSnapshotV3(faultfs.OS(), seedPath, store, 0); err != nil {
		t.Fatal(err)
	}

	walDir := t.TempDir()
	cfg := serverConfig{
		snapshot: seedPath,
		index:    testIndexOptions("hnsw"),
		walDir:   walDir,
		fsync:    "never", // this test is about replay, not fsync
	}
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.store.Len() != store.Len() {
		t.Fatalf("seeded %d nodes, want %d", srv.store.Len(), store.Len())
	}
	vec := make([]float64, store.Dim())
	vec[0] = 9
	id := graph.NodeID(777777)
	if _, err := srv.dur.upsert([]cluster.UpsertUpdate{{ID: &id, Vector: vec}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.dur.delete([]graph.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	srv.close()

	srv2, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.close()
	if srv2.dur.replayed != 2 {
		t.Fatalf("replayed %d records, want 2", srv2.dur.replayed)
	}
	if !srv2.store.Equal(srv.store) {
		t.Fatal("rebooted store differs from pre-shutdown store")
	}
	if _, ok := srv2.store.Get(0); ok {
		t.Fatal("deleted seed node resurrected")
	}
	if got, ok := srv2.store.Get(id); !ok || got[0] != 9 {
		t.Fatalf("wal-logged upsert lost across reboot: %v %v", got, ok)
	}
}
