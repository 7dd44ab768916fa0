package main

// Tests for the overload-control plane: the inflight cap's shed, the
// deadline a request carries into its search, graceful degradation of
// the ef-search beam, readiness semantics, and the fault-injected
// read-only mode end to end.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/faultfs"
)

// jsonDecode decodes and closes one response body.
func jsonDecode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// blockingIndex gates SearchInto so a test can hold a search in front
// of the index deterministically: each call announces itself on
// entered, waits for the gate or its context, and then searches. A
// context that ended first reaches the index, which answers its error
// without searching; expired counts those calls.
type blockingIndex struct {
	ann.Index
	entered chan struct{}
	gate    chan struct{}
	expired atomic.Int32
}

func newBlockingIndex(inner ann.Index) *blockingIndex {
	return &blockingIndex{Index: inner, entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (bi *blockingIndex) SearchInto(ctx context.Context, dst []ann.Result, q []float64, k int) ([]ann.Result, error) {
	bi.entered <- struct{}{}
	select {
	case <-bi.gate:
	case <-ctx.Done():
		bi.expired.Add(1)
	}
	return bi.Index.SearchInto(ctx, dst, q, k)
}

// TestExpiredRequestNeverSearched holds a single query in front of the
// index until its deadline has passed: the client gets a 503, the
// index is handed the expired context, and it answers without
// searching — the exact index's query counter does not move.
func TestExpiredRequestNeverSearched(t *testing.T) {
	store, _ := trainedStore(t)
	bi := newBlockingIndex(ann.NewExact(store, ann.Cosine))
	srv := newServer(serverConfig{index: testIndexOptions("exact")}, store, bi)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() { ts.Close(); srv.close() })
	defer close(bi.gate)

	const searched = `ehnad_ann_queries_total{index="exact"}`
	before := metricValue(t, scrapeMetrics(t, ts.URL), searched)
	status, body := postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"id": 0, "k": 3, "deadline_ms": 20}, nil)
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "deadline exceeded") {
		t.Fatalf("expired request answered %d (%s), want a 503 naming the deadline", status, body)
	}
	<-bi.entered
	if n := bi.expired.Load(); n != 1 {
		t.Fatalf("the index was handed %d expired contexts, want 1", n)
	}
	if after := metricValue(t, scrapeMetrics(t, ts.URL), searched); after != before {
		t.Fatalf("%s moved %v → %v: the expired request was searched", searched, before, after)
	}
}

// TestDegraderShrinksAndRestores walks the controller through
// sustained pressure and recovery: halve to the floor, flag degraded,
// double back to full, clear the flag — with the beam set on the graph
// at every step.
func TestDegraderShrinksAndRestores(t *testing.T) {
	store, _ := trainedStore(t)
	h, err := ann.BuildHNSW(store, ann.HNSWConfig{M: 8, EfConstruction: 64, EfSearch: 64, Seed: 1, Metric: ann.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	d := newDegrader(h, 64, 16, 16) // high=12, low=4

	if d.degradedNow() || d.efNow() != 64 {
		t.Fatalf("fresh degrader: degraded=%v ef=%d", d.degradedNow(), d.efNow())
	}
	hot := func(n int) {
		for i := 0; i < n; i++ {
			d.sample(12)
		}
	}
	cool := func(n int) {
		for i := 0; i < n; i++ {
			d.sample(0)
		}
	}

	hot(degradeSustain - 1)
	if d.degradedNow() {
		t.Fatal("degraded before the sustain threshold")
	}
	hot(1)
	if !d.degradedNow() || d.efNow() != 32 {
		t.Fatalf("after sustained pressure: degraded=%v ef=%d, want true/32", d.degradedNow(), d.efNow())
	}
	if got := h.Config().EfSearch; got != 32 {
		t.Fatalf("live graph ef-search %d, want 32", got)
	}
	hot(3 * degradeSustain)
	if d.efNow() != 16 {
		t.Fatalf("ef %d after heavy pressure, want the floor 16", d.efNow())
	}

	cool(degradeSustain)
	if d.efNow() != 32 || !d.degradedNow() {
		t.Fatalf("after first recovery step: ef=%d degraded=%v, want 32/true", d.efNow(), d.degradedNow())
	}
	cool(degradeSustain)
	if d.efNow() != 64 || d.degradedNow() {
		t.Fatalf("after full recovery: ef=%d degraded=%v, want 64/false", d.efNow(), d.degradedNow())
	}
	if got := h.Config().EfSearch; got != 64 {
		t.Fatalf("live graph ef-search %d after recovery, want 64", got)
	}

	// A mid-pressure bounce (neither watermark) resets both streaks.
	hot(degradeSustain - 1)
	d.sample(8) // between low and high
	hot(degradeSustain - 1)
	if d.degradedNow() {
		t.Fatal("non-consecutive pressure samples should not degrade")
	}

	// Degenerate configurations disable the controller.
	if newDegrader(h, 64, 0, 16) != nil {
		t.Error("floor 0 should disable the degrader")
	}
	if newDegrader(h, 64, 64, 16) != nil {
		t.Error("floor >= full should disable the degrader")
	}
}

// TestDegraderUnderConcurrentAdmissions holds concurrent requests
// in the index until they fill -max-inflight past its ¾ watermark: the
// admissions past it halve ef-search, and both /healthz and the
// responses admitted after the halving say degraded. Once they drain,
// light traffic admitted below the ¼ watermark restores the beam. Run
// it under -race: handlers sample the degrader concurrently.
func TestDegraderUnderConcurrentAdmissions(t *testing.T) {
	store, _ := trainedStore(t)
	h, err := ann.BuildHNSW(store, ann.HNSWConfig{M: 8, EfConstruction: 64, EfSearch: 64, Seed: 1, Metric: ann.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 16 // high 12, low 4
	srv := newServer(serverConfig{index: testIndexOptions("hnsw"), maxInflight: capacity, efFloor: 16}, store, h)
	bi := newBlockingIndex(h)
	srv.index = bi
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() { ts.Close(); srv.close() })
	release := sync.OnceFunc(func() { close(bi.gate) })
	t.Cleanup(release) // a failed check must not leave ts.Close waiting on held requests

	healthz := func() (degraded bool, ef int) {
		var out struct {
			Degraded bool `json:"degraded"`
			EfSearch int  `json:"ef_search_current"`
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonDecode(resp, &out); err != nil {
			t.Fatal(err)
		}
		return out.Degraded, out.EfSearch
	}
	// query is safe off the test's goroutine: a transport or decode
	// failure reads as status 0.
	query := func() (int, neighborsResponse) {
		var out neighborsResponse
		resp, err := http.Post(ts.URL+"/v1/neighbors", "application/json", strings.NewReader(`{"id":0,"k":3}`))
		if err != nil || jsonDecode(resp, &out) != nil {
			return 0, out
		}
		return resp.StatusCode, out
	}

	// Admit one at a time, so admission i samples occupancy i: the five
	// past the high watermark (12…16) sustain pressure past
	// degradeSustain, and the fourth of them halves the beam.
	type answer struct {
		status   int
		degraded bool
	}
	answers := make(chan answer, capacity)
	for i := 0; i < capacity; i++ {
		go func() {
			status, resp := query()
			answers <- answer{status, resp.Degraded}
		}()
		<-bi.entered
	}
	if degraded, ef := healthz(); !degraded || ef != 32 {
		t.Fatalf("at full occupancy: degraded=%v ef=%d, want true/32", degraded, ef)
	}
	if got := h.Config().EfSearch; got != 32 {
		t.Fatalf("live graph ef-search %d, want 32", got)
	}
	release()
	flagged := 0
	for i := 0; i < capacity; i++ {
		a := <-answers
		if a.status != http.StatusOK {
			t.Fatalf("held request answered %d, want 200", a.status)
		}
		if a.degraded {
			flagged++
		}
	}
	if flagged != 2 {
		t.Errorf("%d responses said degraded, want the 2 admitted after the halving", flagged)
	}

	// Drained: each light request samples occupancy 1, and the
	// degradeSustain-th of them doubles the beam back before it searches.
	for i := 1; i <= degradeSustain; i++ {
		status, resp := query()
		<-bi.entered
		if want := i < degradeSustain; status != http.StatusOK || resp.Degraded != want {
			t.Fatalf("light request %d: status %d degraded=%v, want 200/%v", i, status, resp.Degraded, want)
		}
	}
	if degraded, ef := healthz(); degraded || ef != 64 {
		t.Fatalf("after the admissions drained: degraded=%v ef=%d, want false/64", degraded, ef)
	}
	if got := h.Config().EfSearch; got != 64 {
		t.Fatalf("live graph ef-search %d after recovery, want 64", got)
	}
}

// TestInflightLimitSheds holds one request mid-search and checks the
// next is refused at the concurrency cap with 429 + Retry-After.
func TestInflightLimitSheds(t *testing.T) {
	store, _ := trainedStore(t)
	bi := newBlockingIndex(ann.NewExact(store, ann.Cosine))
	srv := newServer(serverConfig{index: testIndexOptions("exact"), maxInflight: 1}, store, bi)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() { ts.Close(); srv.close() })
	release := sync.OnceFunc(func() { close(bi.gate) })
	t.Cleanup(release) // a failed check must not leave ts.Close waiting on the held request

	// The held request runs off the test's goroutine, so a transport
	// failure reads as status 0 rather than calling t.Fatal there.
	body := fmt.Sprintf(`{"id":%d,"k":3}`, store.IDs()[0])
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/neighbors", "application/json", strings.NewReader(body))
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-bi.entered // first request holds the only inflight slot

	resp, err := http.Post(ts.URL+"/v1/neighbors", "application/json",
		strings.NewReader(`{"id":0,"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want 1", got)
	}

	release()
	if status := <-first; status != http.StatusOK {
		t.Fatalf("held request finished %d, want 200", status)
	}
}

// TestNeighborsDeadline exercises the client-facing deadline override:
// a request whose budget lapses mid-search comes back 503 promptly,
// via both the JSON field and the header.
func TestNeighborsDeadline(t *testing.T) {
	store, _ := trainedStore(t)
	bi := newBlockingIndex(ann.NewExact(store, ann.Cosine))
	srv := newServer(serverConfig{index: testIndexOptions("exact")}, store, bi)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() { ts.Close(); srv.close() })
	defer close(bi.gate) // unwedge any search still parked at exit

	drainEntered := func() {
		for {
			select {
			case <-bi.entered:
			default:
				return
			}
		}
	}

	status, body := postJSON(t, ts.URL+"/v1/neighbors",
		map[string]any{"id": 0, "k": 3, "deadline_ms": 30}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("deadline_ms request got %d (%s), want 503", status, body)
	}
	drainEntered()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/neighbors",
		strings.NewReader(`{"id":0,"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.DeadlineHeader, "30")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("header-deadline request got %d, want 503", resp.StatusCode)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("deadline response took %v; must track the 30ms budget, not the search", took)
	}
}

// TestDeadlineValidation pins the strict override contract: a
// malformed or non-positive deadline — header or body field — is a
// 400, never silently the server default (a client that asked for a
// budget and got unbounded work would discover the typo as an outage).
func TestDeadlineValidation(t *testing.T) {
	store, _ := trainedStore(t)
	_, ts := newTestServer(t, store, "exact")

	for _, h := range []string{"abc", "-5", "0", "1.5"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/neighbors",
			strings.NewReader(`{"id":0,"k":3}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.DeadlineHeader, h)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("header %q got %d, want 400", h, resp.StatusCode)
		}
	}

	if status, body := postJSON(t, ts.URL+"/v1/neighbors",
		map[string]any{"id": 0, "k": 3, "deadline_ms": -10}, nil); status != http.StatusBadRequest {
		t.Errorf("deadline_ms -10 got %d (%s), want 400", status, body)
	}

	// Valid overrides keep working through both channels.
	if status, body := postJSON(t, ts.URL+"/v1/neighbors",
		map[string]any{"id": 0, "k": 3, "deadline_ms": 2000}, nil); status != http.StatusOK {
		t.Errorf("valid deadline_ms got %d (%s), want 200", status, body)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/neighbors",
		strings.NewReader(`{"id":0,"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.DeadlineHeader, "2000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid header deadline got %d, want 200", resp.StatusCode)
	}
}

// TestReadyzDraining checks the readiness split: a fresh server is
// ready; a draining one reports 503 with the reason while /healthz
// stays 200 (alive, just not routable).
func TestReadyzDraining(t *testing.T) {
	store, _ := trainedStore(t)
	srv, ts := newTestServer(t, store, "exact")

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d, want 200", resp.StatusCode)
	}

	srv.dur.node.drain("test")
	var out struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(resp, &out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || out.Ready {
		t.Fatalf("draining /readyz = %d ready=%v, want 503/false", resp.StatusCode, out.Ready)
	}
	if len(out.Reasons) == 0 || !strings.Contains(out.Reasons[0], "draining") {
		t.Errorf("reasons = %v, want a draining reason", out.Reasons)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz = %d; liveness must stay 200", resp.StatusCode)
	}
}

// TestReadOnlyModeE2E is the fault drill in miniature: a WAL whose
// fsyncs start failing flips the daemon into read-only degraded mode —
// writes 503 with Retry-After, searches and /healthz keep answering,
// /readyz goes not-ready — and once the (count-limited) fault clears,
// the heal loop restores the write path without a restart.
func TestReadOnlyModeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("waits on the 1s heal ticker; skipped under -short")
	}
	walDir := t.TempDir()
	cfg := crashTestConfig(walDir)
	inj, err := faultfs.Parse("sync:after=4,count=3", faultfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	cfg.fs = inj
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	upsert := func(id int) (int, string) {
		vec := make([]float64, crashDim)
		vec[0] = float64(id + 1)
		return postJSON(t, ts.URL+"/v1/upsert", map[string]any{"id": id, "vector": vec}, nil)
	}

	// Write until the injected fsync failures poison the WAL.
	var broke bool
	var acked int
	for i := 0; i < 32; i++ {
		status, _ := upsert(i)
		if status == http.StatusServiceUnavailable {
			broke = true
			break
		}
		if status != http.StatusOK {
			t.Fatalf("upsert %d: unexpected status %d", i, status)
		}
		acked++
	}
	if !broke {
		t.Fatal("injected fsync failures never surfaced as 503")
	}
	if srv.dur.node.load().writable() {
		t.Fatal("daemon not in read-only mode after WAL failure")
	}

	// The contract while degraded: writes 503 (with Retry-After),
	// searches answer, /readyz not-ready, /healthz reports the state.
	if status, _ := upsert(acked); status != http.StatusServiceUnavailable {
		t.Errorf("write in read-only mode got %d, want 503", status)
	}
	var nresp neighborsResponse
	if status, body := postJSON(t, ts.URL+"/v1/neighbors",
		map[string]any{"id": 0, "k": 3}, &nresp); status != http.StatusOK {
		t.Errorf("search in read-only mode got %d (%s), want 200", status, body)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz in read-only mode = %d, want 503", resp.StatusCode)
	}
	var hz struct {
		Durability struct {
			WritePath struct {
				ReadOnly bool   `json:"read_only"`
				Cause    string `json:"cause"`
			} `json:"write_path"`
		} `json:"durability"`
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(resp, &hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !hz.Durability.WritePath.ReadOnly {
		t.Errorf("/healthz = %d read_only=%v, want 200/true", resp.StatusCode, hz.Durability.WritePath.ReadOnly)
	}

	// The fault is count-limited, so the 1s heal loop must eventually
	// reopen the log, probe it clean, and resume accepting writes.
	healedBy := time.Now().Add(15 * time.Second)
	for {
		if status, _ := upsert(acked); status == http.StatusOK {
			break
		}
		if time.Now().After(healedBy) {
			t.Fatal("write path never recovered after the fault cleared")
		}
		time.Sleep(200 * time.Millisecond)
	}
	if !srv.dur.node.load().writable() {
		t.Error("daemon still flagged read-only after a successful write")
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after heal = %d, want 200", resp.StatusCode)
	}
	if srv.dur.heals.Load() == 0 {
		t.Error("heal counter never moved")
	}
}
