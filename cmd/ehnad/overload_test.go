package main

// Tests for the overload-control plane: admission shedding (queue
// full, predicted deadline miss, inflight cap), deadline expiry in the
// batcher queue, graceful degradation of the ef-search beam, readiness
// semantics, and the fault-injected read-only mode end to end.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/faultfs"
	"ehna/internal/graph"
)

// jsonDecode decodes and closes one response body.
func jsonDecode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// blockingIndex gates SearchInto so a test can hold a flush mid-search
// deterministically: each call announces itself on entered, then waits
// for the gate (or its context).
type blockingIndex struct {
	ann.Index
	entered chan struct{}
	gate    chan struct{}
}

func newBlockingIndex(inner ann.Index) *blockingIndex {
	return &blockingIndex{Index: inner, entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (bi *blockingIndex) SearchInto(ctx context.Context, dst []ann.Result, q []float64, k int) ([]ann.Result, error) {
	bi.entered <- struct{}{}
	select {
	case <-bi.gate:
	case <-ctx.Done():
		return dst, ctx.Err()
	}
	return bi.Index.SearchInto(ctx, dst, q, k)
}

// TestBatcherNeverSearchesExpiredRequest queues a request whose
// deadline lapses before the gather window closes: the caller gets its
// context error promptly, and the flush accounts the request as
// expired-in-queue instead of searching it.
func TestBatcherNeverSearchesExpiredRequest(t *testing.T) {
	store, _ := trainedStore(t)
	index := ann.NewExact(store, ann.Cosine)
	before := expiredInQueue.Load()
	b := newBatcher(index, 4, 80*time.Millisecond, 0, nil)
	defer b.close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, buf, _, err := b.do(ctx, mustGet(t, store, 0), 3)
	buf.release()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("do() = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 60*time.Millisecond {
		t.Errorf("do() held the caller %v; must return at its own deadline, not the flush", waited)
	}
	// The flush (at the 80ms window) must skip the corpse.
	deadline := time.Now().Add(2 * time.Second)
	for expiredInQueue.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("expired request was never accounted by the flush")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatcherShedsOnFullQueue fills the admission queue behind a
// search held open by the gate and checks the next arrival is refused
// immediately with errOverloaded.
func TestBatcherShedsOnFullQueue(t *testing.T) {
	store, _ := trainedStore(t)
	bi := newBlockingIndex(ann.NewExact(store, ann.Cosine))
	before := shedQueueFull.Load()
	b := newBatcher(bi, 1, 0, 1, nil) // one searching, one queued, rest shed
	defer b.close()
	q := mustGet(t, store, 0)

	done := make(chan error, 2)
	submit := func() {
		_, buf, _, err := b.do(context.Background(), q, 3)
		buf.release()
		done <- err
	}
	go submit()
	<-bi.entered // first request is mid-search; queue is empty again

	go submit() // parks in the queue (capacity 1)
	waitUntil := time.Now().Add(2 * time.Second)
	for len(b.in) != 1 {
		if time.Now().After(waitUntil) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	_, buf, _, err := b.do(context.Background(), q, 3)
	buf.release()
	if !errors.Is(err, errOverloaded) {
		t.Fatalf("third request got %v, want errOverloaded", err)
	}
	if got := shedQueueFull.Load(); got != before+1 {
		t.Errorf("shed counter moved %d, want 1", got-before)
	}

	close(bi.gate) // release; both held requests must complete
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("held request %d failed: %v", i, err)
			}
		case <-bi.entered:
			i-- // second flush entering the index, not a completion
		case <-time.After(5 * time.Second):
			t.Fatal("held requests never completed after the gate opened")
		}
	}
}

// TestBatcherShedsOnPredictedDeadlineMiss seeds the flush-cost EWMA so
// the predicted queue wait dwarfs the request's budget: with work
// already queued, admission must refuse up front rather than queue
// doomed work — but an empty queue always admits a probe, so a stale
// (storm-inflated) EWMA cannot shed forever: the probe's flush
// re-measures the real cost.
func TestBatcherShedsOnPredictedDeadlineMiss(t *testing.T) {
	store, _ := trainedStore(t)
	bi := newBlockingIndex(ann.NewExact(store, ann.Cosine))
	b := newBatcher(bi, 4, 0, 0, nil)
	defer b.close()
	b.flushNs.Store(int64(500 * time.Millisecond)) // pretend flushes are slow
	q := mustGet(t, store, 0)

	done := make(chan error, 3)
	submit := func() {
		_, buf, _, err := b.do(context.Background(), q, 3)
		buf.release()
		done <- err
	}
	go submit()
	<-bi.entered // first request mid-search; the queue is empty again
	go submit()  // parks in the queue, so predictive shed is armed
	waitUntil := time.Now().Add(2 * time.Second)
	for len(b.in) != 1 {
		if time.Now().After(waitUntil) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	before := shedDeadline.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, buf, _, err := b.do(ctx, q, 3)
	buf.release()
	if !errors.Is(err, errOverloaded) {
		t.Fatalf("do() = %v, want errOverloaded", err)
	}
	if got := shedDeadline.Load(); got != before+1 {
		t.Errorf("deadline-shed counter moved %d, want 1", got-before)
	}

	// Without a deadline the same request must be admitted even with
	// the queue occupied.
	go submit()
	waitUntil = time.Now().Add(2 * time.Second)
	for len(b.in) != 2 {
		if time.Now().After(waitUntil) {
			t.Fatal("unbounded request never admitted to the queue")
		}
		time.Sleep(time.Millisecond)
	}

	close(bi.gate)
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("held request %d failed: %v", i, err)
			}
		case <-bi.entered:
			i-- // a later flush entering the index, not a completion
		case <-time.After(5 * time.Second):
			t.Fatal("held requests never completed after the gate opened")
		}
	}

	// Probe rule: the queue is empty now, so a deadline the stale EWMA
	// says is unmeetable must still be admitted — and its (fast) flush
	// must drag the EWMA back toward reality.
	ewmaBefore := b.flushNs.Load()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, buf, _, err := b.do(ctx2, q, 3); err != nil {
		t.Fatalf("empty-queue probe refused: %v", err)
	} else {
		buf.release()
	}
	recoverBy := time.Now().Add(2 * time.Second)
	for b.flushNs.Load() >= ewmaBefore {
		if time.Now().After(recoverBy) {
			t.Fatalf("EWMA %v never decayed from %v after the probe flush",
				time.Duration(b.flushNs.Load()), time.Duration(ewmaBefore))
		}
		time.Sleep(time.Millisecond)
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

// TestInflightLimitSheds holds one request mid-search and checks the
// next is refused at the concurrency cap with 429 + Retry-After.
func TestInflightLimitSheds(t *testing.T) {
	store, _ := trainedStore(t)
	bi := newBlockingIndex(ann.NewExact(store, ann.Cosine))
	srv := newServer(serverConfig{index: testIndexOptions("exact"), maxBatch: 4, maxInflight: 1}, store, bi)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() { ts.Close(); srv.close() })

	id := graph.NodeID(store.IDs()[0])
	first := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/neighbors", map[string]any{"id": id, "k": 3}, nil)
		first <- status
	}()
	<-bi.entered // first request holds the only inflight slot

	// Seed the flush-cost EWMA so the shed's Retry-After must reflect
	// the batcher's predicted wait (3s × 1 flush ahead), pinning that
	// the inflight path shares the backoff arithmetic with every other
	// shed path instead of hardcoding one second.
	srv.batch.flushNs.Store(int64(3 * time.Second))

	resp, err := http.Post(ts.URL+"/v1/neighbors", "application/json",
		strings.NewReader(`{"id":0,"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Retry-After"), strconv.Itoa(retrySeconds(srv.batch.predictedWait())); got != want {
		t.Errorf("429 Retry-After = %q, want the predicted wait %q", got, want)
	}
	srv.batch.flushNs.Store(0) // don't let the seeded EWMA shed the held request's successors

	close(bi.gate)
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
	srv := newServer(serverConfig{index: testIndexOptions("exact"), maxBatch: 4}, store, bi)
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
	// The stalled flush above seeded the flush-cost EWMA; zero it so the
	// header request exercises the accepted-then-expired 503 path rather
	// than being predictively shed at admission (a legitimate 429).
	srv.batch.flushNs.Store(0)

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

	srv.draining.Store(true)
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
	if !srv.dur.isReadOnly() {
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
	if srv.dur.isReadOnly() {
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
