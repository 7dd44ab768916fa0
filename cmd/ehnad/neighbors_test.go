package main

// Tests for /v1/neighbors on the wire codec: allocations per batch
// request, the 500 an unencodable score earns, and the lifetime rule
// between the pooled request slab and a single query's search.

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ehna/internal/ann"
	"ehna/internal/embstore"
	"ehna/internal/graph"
)

// gaussianStore is a seeded store of n Gaussian vectors.
func gaussianStore(t testing.TB, n, dim int, prec embstore.Precision) *embstore.Store {
	t.Helper()
	store, err := embstore.New(dim, prec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if err := store.Upsert(graph.NodeID(i), v); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// batchBody is a read_batch-shaped request of n raw-vector queries.
func batchBody(seed int64, n, dim int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := []byte(`{"k":10,"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendVector(append(b, `{"vector":`...), rng, dim), '}')
	}
	return append(b, "]}"...)
}

// singleBody is one raw-vector query, as write_mixed's reads send it.
func singleBody(seed int64, dim int) []byte {
	b := appendVector([]byte(`{"k":10,"vector":`), rand.New(rand.NewSource(seed)), dim)
	return append(b, '}')
}

// appendVector appends a JSON array of dim Gaussian coordinates.
func appendVector(b []byte, rng *rand.Rand, dim int) []byte {
	b = append(b, '[')
	for j := 0; j < dim; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, rng.NormFloat64(), 'g', -1, 64)
	}
	return append(b, ']')
}

// sq8Handler is the daemon's handler over an sq8 HNSW graph small
// enough for the batch sweep, as read_batch serves it.
func sq8Handler(t testing.TB, n, dim int) http.Handler {
	t.Helper()
	store := gaussianStore(t, n, dim, embstore.SQ8)
	opts := testIndexOptions("hnsw")
	index, err := buildIndex(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serverConfig{index: opts}, store, index)
	t.Cleanup(srv.close)
	return srv.handler()
}

// serveNeighbors posts body through h in process and returns the
// recorder.
func serveNeighbors(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/neighbors", bytes.NewReader(body)))
	return rec
}

// TestNeighborsBatchAllocs pins a batch request's allocations at O(1)
// in its query count: decode into the pooled slab, pooled per-query
// scratch, one result slab from the index, encode into a pooled buffer.
func TestNeighborsBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // no fan-out goroutines
	const dim = 16
	h := sq8Handler(t, 1000, dim)
	allocs := func(n int) float64 {
		body := batchBody(int64(n), n, dim)
		run := func() {
			if rec := serveNeighbors(h, body); rec.Code != http.StatusOK {
				t.Fatalf("%d queries: status %d: %s", n, rec.Code, rec.Body)
			}
		}
		run() // warm the pools
		return testing.AllocsPerRun(50, run)
	}
	a4, a32 := allocs(4), allocs(32)
	t.Logf("allocations per request: %v at 4 queries, %v at 32", a4, a32)
	if a32 > a4+2 {
		t.Fatalf("a 32-query request allocates %v times against %v for 4: not O(1) in the query count", a32, a4)
	}
}

func BenchmarkNeighborsHandler32(b *testing.B) {
	benchmarkNeighborsHandler(b, batchBody(1, 32, 64))
}

func BenchmarkNeighborsHandlerSingle(b *testing.B) {
	benchmarkNeighborsHandler(b, singleBody(1, 64))
}

// benchmarkNeighborsHandler serves body through the daemon's handler
// over the read_batch shape (5000×64 sq8, one CPU).
func benchmarkNeighborsHandler(b *testing.B, body []byte) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := sq8Handler(b, 5000, 64)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveNeighbors(h, body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// nanIndex answers every search with NaN scores, which JSON cannot
// carry.
type nanIndex struct{ ann.Index }

func (n nanIndex) SearchInto(ctx context.Context, dst []ann.Result, q []float64, k int) ([]ann.Result, error) {
	res, err := n.Index.SearchInto(ctx, dst, q, k)
	for i := range res {
		res[i].Score = math.NaN()
	}
	return res, err
}

func (n nanIndex) SearchBatch(ctx context.Context, qs [][]float64, k int) ([][]ann.Result, error) {
	out, err := n.Index.SearchBatch(ctx, qs, k)
	for _, res := range out {
		for i := range res {
			res[i].Score = math.NaN()
		}
	}
	return out, err
}

// TestNeighborsUnencodableScoreIs500: an ack encoding/json refuses is a
// 500 with an error body on both query paths, never a 200 with an empty
// body.
func TestNeighborsUnencodableScoreIs500(t *testing.T) {
	store, _ := trainedStore(t)
	srv := newServer(serverConfig{index: testIndexOptions("exact")}, store, nanIndex{ann.NewExact(store, ann.Cosine)})
	defer srv.close()
	h := srv.handler()
	for name, body := range map[string]string{
		"single": `{"id":0,"k":3}`,
		"batch":  `{"k":3,"queries":[{"id":0},{"id":1}]}`,
	} {
		rec := serveNeighbors(h, []byte(body))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value: NaN") {
			t.Errorf("%s: status %d, body %q; want a 500 naming the NaN", name, rec.Code, rec.Body)
		}
	}
}

// stallIndex holds each single-query search past its caller's deadline
// and then checks the vector it was handed still holds what the client
// sent (every coordinate equal).
type stallIndex struct {
	ann.Index
	entered, checked chan struct{}
	gate             chan struct{}
	corrupted        atomic.Int32
}

func (si *stallIndex) SearchInto(ctx context.Context, dst []ann.Result, q []float64, k int) ([]ann.Result, error) {
	want := q[0]
	si.entered <- struct{}{}
	<-si.gate // ignores ctx on purpose: the search outlives the deadline
	for _, x := range q {
		if x != want {
			si.corrupted.Add(1)
			break
		}
	}
	si.checked <- struct{}{}
	return si.Index.SearchInto(ctx, dst, q, k)
}

// TestSingleQueryVectorOutlivesDeadline is the slab lifetime rule: a
// single query's vector lives in the request body's pooled slab, so the
// handler must hold the body until its search has returned, deadline or
// not. Each round stalls one single query in the index past its
// deadline, checks no answer comes before the search returns, drives
// batch requests through the pooled decoder meanwhile, then lets the
// stalled search read its vector and expects the 503 only after that.
// Under -race a body released early is a reported race; without it, a
// corrupted vector.
func TestSingleQueryVectorOutlivesDeadline(t *testing.T) {
	const dim = 16
	store := gaussianStore(t, 200, dim, embstore.F32)
	si := &stallIndex{
		Index:   ann.NewExact(store, ann.Cosine),
		entered: make(chan struct{}), checked: make(chan struct{}), gate: make(chan struct{}),
	}
	srv := newServer(serverConfig{index: testIndexOptions("exact")}, store, si)
	defer srv.close()
	h := srv.handler()
	for round := 1; round <= 5; round++ {
		single := []byte(`{"k":3,"deadline_ms":20,"vector":[` +
			strings.TrimSuffix(strings.Repeat(strconv.Itoa(round)+",", dim), ",") + `]}`)
		done := make(chan int, 1)
		go func() { done <- serveNeighbors(h, single).Code }()
		<-si.entered
		for j := 0; j < 8; j++ {
			if rec := serveNeighbors(h, batchBody(int64(round*100+j), 8, dim)); rec.Code != http.StatusOK {
				t.Fatalf("round %d: batch status %d: %s", round, rec.Code, rec.Body)
			}
		}
		select {
		case code := <-done:
			t.Fatalf("round %d: stalled single query answered %d before its search returned", round, code)
		case <-time.After(40 * time.Millisecond): // well past its 20 ms deadline
		}
		si.gate <- struct{}{}
		<-si.checked
		if code := <-done; code != http.StatusServiceUnavailable {
			t.Fatalf("round %d: stalled single query answered %d, want 503 for its lapsed deadline", round, code)
		}
	}
	if n := si.corrupted.Load(); n > 0 {
		t.Fatalf("%d stalled single-query vectors were overwritten before their search returned", n)
	}
}
