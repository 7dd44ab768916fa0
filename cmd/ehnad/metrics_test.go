package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
)

// scrapeMetrics fetches /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue finds the sample line for the exact series name (with
// rendered labels, if any) and returns its value.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", series, body)
	return 0
}

// TestMetricsEndpoint boots an HNSW server, drives traffic through
// every instrumented layer, and checks the full catalog shows up on
// /metrics with sane values.
func TestMetricsEndpoint(t *testing.T) {
	store, g := trainedStore(t)
	_, ts := newTestServer(t, store, "hnsw")

	// One good query, one client error, one write: the status-class
	// counters should split them.
	var nbr neighborsResponse
	if code, _ := postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"id": 3, "k": 4}, &nbr); code != http.StatusOK {
		t.Fatalf("neighbors status %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"k": 4}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad neighbors status %d", code)
	}
	id := graph.NodeID(g.NumNodes() + 5)
	vec := mustGet(t, store, 0)
	// Twice: the second upsert is an overwrite, which detaches the
	// first one's graph slot.
	for i := 0; i < 2; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/upsert", map[string]any{"id": id, "vector": vec}, nil); code != http.StatusOK {
			t.Fatalf("upsert status %d", code)
		}
	}
	// One client-side batch and one single query against an sq8 copy of
	// the store: on a SIMD backend the store scan answers both instead
	// of the beam (scanPlan), and has its own series.
	sq8, err := embstore.FromMatrix(trained.emb, embstore.SQ8)
	if err != nil {
		t.Fatal(err)
	}
	_, sq8ts := newTestServer(t, sq8, "hnsw")
	batch := map[string]any{"k": 3, "queries": []map[string]any{{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3}}}
	if code, raw := postJSON(t, sq8ts.URL+"/v1/neighbors", batch, &nbr); code != http.StatusOK || len(nbr.Batches) != 4 {
		t.Fatalf("batch neighbors status %d: %s", code, raw)
	}
	if code, raw := postJSON(t, sq8ts.URL+"/v1/neighbors", map[string]any{"id": 3, "k": 4}, nil); code != http.StatusOK {
		t.Fatalf("sq8 neighbors status %d: %s", code, raw)
	}

	body := scrapeMetrics(t, ts.URL)

	if v := metricValue(t, body, `ehnad_http_requests_total{code="2xx",path="/v1/neighbors"}`); v < 1 {
		t.Errorf("2xx neighbors count = %v, want >= 1", v)
	}
	if v := metricValue(t, body, `ehnad_http_requests_total{code="4xx",path="/v1/neighbors"}`); v < 1 {
		t.Errorf("4xx neighbors count = %v, want >= 1", v)
	}
	if v := metricValue(t, body, `ehnad_http_requests_total{code="2xx",path="/v1/upsert"}`); v < 1 {
		t.Errorf("2xx upsert count = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "ehnad_store_nodes"); int(v) != store.Len() {
		t.Errorf("ehnad_store_nodes = %v, store has %d", v, store.Len())
	}
	if v := metricValue(t, body, "ehnad_graph_nodes"); int(v) != store.Len() {
		t.Errorf("ehnad_graph_nodes = %v, want %d", v, store.Len())
	}
	if v := metricValue(t, body, "ehnad_batch_queue_depth"); v != 0 {
		t.Errorf("idle queue depth = %v, want 0", v)
	}
	// Library metrics ride the default registry: the query above must
	// have bumped the hnsw counter and both stage histograms, and the
	// upserts every phase of a graph mutation.
	for _, series := range []string{
		`ehnad_ann_queries_total{index="hnsw"}`,
		`ehnad_ann_stage_seconds_count{index="hnsw",stage="candidates"}`,
		`ehnad_ann_stage_seconds_count{index="hnsw",stage="rerank"}`,
		`ehnad_ann_mutation_seconds_count{phase="detach"}`,
		`ehnad_ann_mutation_seconds_count{phase="discover"}`,
		`ehnad_ann_mutation_seconds_count{phase="wire"}`,
		"ehnad_batch_size_count",
		"ehnad_batch_flush_seconds_count",
	} {
		if v := metricValue(t, body, series); v < 1 {
			t.Errorf("%s = %v, want >= 1", series, v)
		}
	}
	// The plan that answered is visible: the scan's series are always
	// exposed, and move wherever the scan can run — four for the batch,
	// one for the single query, one stage observation for each.
	swept := 0.0
	if vecmath.HasSQ8Sym() {
		swept = 1
	}
	for series, atLeast := range map[string]float64{
		`ehnad_ann_queries_total{index="hnsw_scan"}`:                          5 * swept,
		`ehnad_ann_stage_seconds_count{index="hnsw_scan",stage="candidates"}`: 2 * swept,
		`ehnad_ann_stage_seconds_count{index="hnsw_scan",stage="rerank"}`:     2 * swept,
	} {
		if v := metricValue(t, body, series); v < atLeast {
			t.Errorf("%s = %v, want >= %v", series, v, atLeast)
		}
	}
	// Runtime + build info (RegisterRuntime).
	if v := metricValue(t, body, "go_goroutines"); v < 1 {
		t.Errorf("go_goroutines = %v", v)
	}
	if !strings.Contains(body, "ehnad_build_info{") {
		t.Error("ehnad_build_info missing")
	}
	// Latency histogram exposition is cumulative and ends at +Inf.
	if !strings.Contains(body, `ehnad_http_request_seconds_bucket{path="/v1/neighbors",le="+Inf"}`) {
		t.Error("http latency histogram missing +Inf bucket")
	}
}

// TestHealthzMatchesMetrics pins the one-source-of-truth property:
// the numbers /healthz reports are GaugeValue reads of the same
// instruments /metrics renders.
func TestHealthzMatchesMetrics(t *testing.T) {
	store, _ := trainedStore(t)
	_, ts := newTestServer(t, store, "hnsw")

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Nodes int `json:"nodes"`
		Dim   int `json:"dim"`
		Graph struct {
			Nodes  int `json:"nodes"`
			Layers int `json:"layers"`
		} `json:"graph"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}

	body := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]int{
		"ehnad_store_nodes":  hz.Nodes,
		"ehnad_store_dim":    hz.Dim,
		"ehnad_graph_nodes":  hz.Graph.Nodes,
		"ehnad_graph_layers": hz.Graph.Layers,
	} {
		if v := metricValue(t, body, series); int(v) != want {
			t.Errorf("%s = %v, healthz says %d", series, v, want)
		}
	}
}

// TestMetricsWithWAL boots the full durable stack and checks the WAL,
// snapshot and graph gauges are registered and move.
func TestMetricsWithWAL(t *testing.T) {
	srv, err := buildServer(crashTestConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() { ts.Close(); srv.close() })

	vec := make([]float64, crashDim)
	vec[0] = 1
	if code, _ := postJSON(t, ts.URL+"/v1/upsert", map[string]any{"id": 1, "vector": vec}, nil); code != http.StatusOK {
		t.Fatalf("upsert status %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/admin/snapshot", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}

	body := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, body, "ehnad_wal_last_seq"); v < 1 {
		t.Errorf("ehnad_wal_last_seq = %v, want >= 1 after an upsert", v)
	}
	if v := metricValue(t, body, "ehnad_wal_durable_seq"); v < 1 {
		t.Errorf("ehnad_wal_durable_seq = %v, want >= 1 under -fsync always", v)
	}
	if v := metricValue(t, body, "ehnad_snapshot_count"); v != 1 {
		t.Errorf("ehnad_snapshot_count = %v, want 1", v)
	}
	if v := metricValue(t, body, "ehnad_snapshot_watermark"); v < 1 {
		t.Errorf("ehnad_snapshot_watermark = %v, want >= 1", v)
	}
	// The duration histogram lives on the process-wide registry, so it
	// accumulates across every server this test binary booted: only a
	// lower bound is stable.
	if v := metricValue(t, body, "ehnad_snapshot_seconds_count"); v < 1 {
		t.Errorf("ehnad_snapshot_seconds_count = %v, want >= 1", v)
	}
	for _, series := range []string{
		"ehnad_wal_segments", "ehnad_wal_size_bytes",
		"ehnad_wal_append_seconds_count", "ehnad_wal_fsync_seconds_count",
		"ehnad_graph_tombstones",
	} {
		metricValue(t, body, series) // fatal if the series is absent
	}

	// The durability healthz block must agree with the gauges.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Durability struct {
			Wal struct {
				LastSeq    uint64 `json:"last_seq"`
				DurableSeq uint64 `json:"durable_seq"`
			} `json:"wal"`
			Snapshot struct {
				Count     int64  `json:"count"`
				Watermark uint64 `json:"watermark"`
			} `json:"snapshot"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Durability.Wal.LastSeq < 1 || hz.Durability.Snapshot.Count != 1 {
		t.Errorf("healthz durability block = %+v", hz.Durability)
	}
	if got := uint64(metricValue(t, body, "ehnad_snapshot_watermark")); got != hz.Durability.Snapshot.Watermark {
		t.Errorf("watermark: metrics %d, healthz %d", got, hz.Durability.Snapshot.Watermark)
	}
}

// TestMetricsCatalogMatchesREADME keeps README's metrics catalog
// honest in both directions: every series its table names, label sets
// aside, is one a -wal daemon's /metrics emits, and every series that
// /metrics emits has a row.
func TestMetricsCatalogMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, ok := strings.Cut(string(readme), "**Metrics catalog**")
	if !ok {
		t.Fatal("README has no **Metrics catalog** table")
	}
	var names []string
	for _, line := range strings.Split(catalog, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(names) > 0 {
				break // the table has ended
			}
			continue
		}
		series := strings.Split(line, "|")[1]
		for i, tok := range strings.Split(series, "`") {
			if i%2 == 1 {
				name, _, _ := strings.Cut(tok, "{")
				names = append(names, name)
			}
		}
	}
	if len(names) < 20 {
		t.Fatalf("found %d series in README's catalog: %q", len(names), names)
	}

	srv, err := buildServer(crashTestConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() { ts.Close(); srv.close() })
	vec := make([]float64, crashDim)
	vec[0] = 1
	if code, _ := postJSON(t, ts.URL+"/v1/upsert", map[string]any{"id": 1, "vector": vec}, nil); code != http.StatusOK {
		t.Fatalf("upsert status %d", code)
	}
	body := scrapeMetrics(t, ts.URL)
	for _, name := range names {
		if strings.HasPrefix(name, "process_") && runtime.GOOS != "linux" {
			continue // the process-memory series are Linux-only
		}
		if !strings.Contains(body, "\n# TYPE "+name+" ") {
			t.Errorf("README's metrics catalog names %s, which /metrics does not emit", name)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, _, _ := strings.Cut(rest, " "); !slices.Contains(names, name) {
				t.Errorf("/metrics emits %s, which README's metrics catalog does not name", name)
			}
		}
	}
}

// readmePath matches a repository path README names: one starting at
// cmd/, internal/, scripts/ or examples/, optionally written ./cmd/…,
// that begins a word (so bench/cmd/… or a URL's /internal/ never match).
var readmePath = regexp.MustCompile("(?:^|[\\s`(\"'\\[])(?:\\./)?((?:cmd|internal|scripts|examples)/[\\w.\\-/]*)")

// TestREADMEPathsExist fails when README names a path under cmd/,
// internal/, scripts/ or examples/ that is not in the tree, so a
// deleted binary, package or script cannot stay documented.
func TestREADMEPathsExist(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range readmePath.FindAllStringSubmatch(string(readme), -1) {
		// A sentence's full stop, "internal/..." and "examples/*" name
		// the directory before them.
		p := strings.TrimRight(m[1], "./")
		if seen[p] {
			continue
		}
		seen[p] = true
		if _, err := os.Stat(filepath.Join("../..", p)); err != nil {
			t.Errorf("README names %s, which is not in the tree", p)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("found %d paths in README", len(seen))
	}
}
