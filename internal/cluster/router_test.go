package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ehna/internal/ann"
	"ehna/internal/graph"
)

// stubShard is a minimal in-memory daemon: enough of cmd/ehnad's API
// surface (/v1/neighbors batch, /v1/vector, /v1/repl/status,
// /v1/admin/promote, writes) for router tests, with dot-product
// scoring so merged orderings are checkable by hand.
type stubShard struct {
	mu            sync.Mutex
	vectors       map[graph.NodeID][]float64
	upserts       []graph.NodeID // ids received via /v1/upsert, in order
	deletes       []graph.NodeID
	role          string
	applied       uint64
	promoted      atomic.Bool
	failNeighbors atomic.Bool // force 500s on search
	seq           uint64

	srv *httptest.Server
}

func newStubShard(role string, applied uint64) *stubShard {
	s := &stubShard{vectors: make(map[graph.NodeID][]float64), role: role, applied: applied}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/neighbors", s.neighbors)
	mux.HandleFunc("/v1/vector", s.vector)
	mux.HandleFunc("/v1/repl/status", s.status)
	mux.HandleFunc("/v1/admin/promote", s.promote)
	mux.HandleFunc("/v1/upsert", s.upsert)
	mux.HandleFunc("/v1/delete", s.del)
	s.srv = httptest.NewServer(mux)
	return s
}

func (s *stubShard) url() string { return s.srv.URL }

func (s *stubShard) add(id graph.NodeID, vec []float64) {
	s.mu.Lock()
	s.vectors[id] = vec
	s.mu.Unlock()
}

func (s *stubShard) neighbors(w http.ResponseWriter, r *http.Request) {
	if s.failNeighbors.Load() {
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	var req struct {
		Queries []struct {
			Vector []float64 `json:"vector"`
			K      int       `json:"k"`
		} `json:"queries"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	batches := make([][]ann.Result, len(req.Queries))
	for qi, q := range req.Queries {
		var res []ann.Result
		for id, v := range s.vectors {
			var dot float64
			for i := range v {
				dot += v[i] * q.Vector[i]
			}
			res = append(res, ann.Result{ID: id, Score: dot})
		}
		sort.Slice(res, func(i, j int) bool {
			if res[i].Score != res[j].Score {
				return res[i].Score > res[j].Score
			}
			return res[i].ID < res[j].ID
		})
		if len(res) > q.K {
			res = res[:q.K]
		}
		batches[qi] = res
	}
	json.NewEncoder(w).Encode(map[string]any{"batches": batches})
}

func (s *stubShard) vector(w http.ResponseWriter, r *http.Request) {
	var id graph.NodeID
	fmt.Sscanf(r.URL.Query().Get("id"), "%d", &id)
	s.mu.Lock()
	v, ok := s.vectors[id]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"id": id, "vector": v})
}

func (s *stubShard) status(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := ReplStatus{Role: s.role, LastSeq: s.applied, DurableSeq: s.applied, Applied: s.applied}
	s.mu.Unlock()
	json.NewEncoder(w).Encode(st)
}

func (s *stubShard) promote(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.role = "leader"
	applied := s.applied
	s.mu.Unlock()
	s.promoted.Store(true)
	json.NewEncoder(w).Encode(map[string]any{"role": "leader", "applied": applied})
}

func (s *stubShard) upsert(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role != "leader" {
		http.Error(w, "follower: read-only replica", http.StatusServiceUnavailable)
		return
	}
	var req struct {
		Updates []struct {
			ID     *graph.NodeID `json:"id"`
			Vector []float64     `json:"vector"`
		} `json:"updates"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, u := range req.Updates {
		s.vectors[*u.ID] = u.Vector
		s.upserts = append(s.upserts, *u.ID)
		s.seq++
	}
	json.NewEncoder(w).Encode(map[string]any{"upserted": len(req.Updates), "seq": s.seq})
}

func (s *stubShard) del(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role != "leader" {
		http.Error(w, "follower: read-only replica", http.StatusServiceUnavailable)
		return
	}
	var req struct {
		IDs []graph.NodeID `json:"ids"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, id := range req.IDs {
		delete(s.vectors, id)
		s.deletes = append(s.deletes, id)
		s.seq++
	}
	json.NewEncoder(w).Encode(map[string]any{"deleted": len(req.IDs), "seq": s.seq})
}

// newTestRouter builds a router over the given stubs (one endpoint per
// shard unless extra endpoints are appended by the caller).
func newTestRouter(t *testing.T, shards map[string][]*stubShard) (*Router, *httptest.Server) {
	t.Helper()
	var names []string
	for n := range shards {
		names = append(names, n)
	}
	sort.Strings(names)
	var sp []ShardSpec
	for _, n := range names {
		var eps []string
		for _, s := range shards[n] {
			eps = append(eps, s.url())
		}
		sp = append(sp, ShardSpec{Name: n, Endpoints: eps})
	}
	m, err := NewShardMap(1, sp)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Map:             m,
		DefaultDeadline: 2 * time.Second,
		HealthInterval:  50 * time.Millisecond,
		FailAfter:       2,
		AutoFailover:    true,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	return rt, srv
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
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

// basis returns a one-hot-ish vector with value v at position i.
func basis(dim, i int, v float64) []float64 {
	vec := make([]float64, dim)
	vec[i] = v
	return vec
}

// TestRouterScatterGatherMerge seeds disjoint vectors on two shards
// and checks the router returns the global top-k in score order.
func TestRouterScatterGatherMerge(t *testing.T) {
	a, b := newStubShard("leader", 0), newStubShard("leader", 0)
	defer a.srv.Close()
	defer b.srv.Close()
	const dim = 4
	// Scores against query basis(0): a holds 9 and 7; b holds 8 and 1.
	a.add(1, basis(dim, 0, 9))
	a.add(2, basis(dim, 0, 7))
	b.add(3, basis(dim, 0, 8))
	b.add(4, basis(dim, 0, 1))
	_, srv := newTestRouter(t, map[string][]*stubShard{"a": {a}, "b": {b}})

	var out struct {
		Results []ann.Result `json:"results"`
	}
	code, body := postJSON(t, srv.URL+"/v1/neighbors", map[string]any{"vector": basis(dim, 0, 1), "k": 3}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	want := []graph.NodeID{1, 3, 2} // scores 9, 8, 7
	if len(out.Results) != len(want) {
		t.Fatalf("got %d results, want %d: %s", len(out.Results), len(want), body)
	}
	for i, id := range want {
		if out.Results[i].ID != id {
			t.Fatalf("result %d = id %d, want %d (%s)", i, out.Results[i].ID, id, body)
		}
	}
}

// TestRouterPartialDegradation kills one shard's search path and
// expects degraded partial results, then kills both and expects 503.
func TestRouterPartialDegradation(t *testing.T) {
	a, b := newStubShard("leader", 0), newStubShard("leader", 0)
	defer a.srv.Close()
	defer b.srv.Close()
	const dim = 4
	a.add(1, basis(dim, 0, 9))
	b.add(3, basis(dim, 0, 8))
	_, srv := newTestRouter(t, map[string][]*stubShard{"a": {a}, "b": {b}})

	b.failNeighbors.Store(true)
	var out struct {
		Results        []ann.Result `json:"results"`
		Degraded       bool         `json:"degraded"`
		ShardsAnswered int          `json:"shards_answered"`
		ShardsTotal    int          `json:"shards_total"`
	}
	code, body := postJSON(t, srv.URL+"/v1/neighbors", map[string]any{"vector": basis(dim, 0, 1), "k": 2}, &out)
	if code != http.StatusOK {
		t.Fatalf("partial coverage should still answer 200, got %d: %s", code, body)
	}
	if !out.Degraded || out.ShardsAnswered != 1 || out.ShardsTotal != 2 {
		t.Fatalf("want degraded with 1/2 shards, got %s", body)
	}
	if len(out.Results) != 1 || out.Results[0].ID != 1 {
		t.Fatalf("partial results should come from the live shard: %s", body)
	}

	a.failNeighbors.Store(true)
	code, body = postJSON(t, srv.URL+"/v1/neighbors", map[string]any{"vector": basis(dim, 0, 1), "k": 2}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("all shards down should be 503, got %d: %s", code, body)
	}
}

// TestRouterIDQueryResolvesAcrossShards queries by id: the router must
// fetch the vector from the owning shard, scatter it everywhere, and
// trim the query node from its own results.
func TestRouterIDQueryResolvesAcrossShards(t *testing.T) {
	a, b := newStubShard("leader", 0), newStubShard("leader", 0)
	defer a.srv.Close()
	defer b.srv.Close()
	stubs := map[string][]*stubShard{"a": {a}, "b": {b}}
	rt, srv := newTestRouter(t, stubs)

	const dim = 4
	// Place ids where the ring says they live, so /v1/vector resolution
	// targets the right stub.
	byShard := map[int]*stubShard{0: a, 1: b}
	ids := []graph.NodeID{10, 11, 12, 13, 14, 15}
	for i, id := range ids {
		byShard[rt.cfg.Map.Owner(id)].add(id, basis(dim, 0, float64(10-i))) // descending scores
	}

	var out struct {
		Results []ann.Result `json:"results"`
	}
	code, body := postJSON(t, srv.URL+"/v1/neighbors", map[string]any{"id": 10, "k": 3}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3: %s", len(out.Results), body)
	}
	for _, r := range out.Results {
		if r.ID == 10 {
			t.Fatalf("query node leaked into its own results: %s", body)
		}
	}
	// id 10 has the top score (10); next best are 11, 12, 13.
	want := []graph.NodeID{11, 12, 13}
	for i, id := range want {
		if out.Results[i].ID != id {
			t.Fatalf("result %d = id %d, want %d (%s)", i, out.Results[i].ID, id, body)
		}
	}

	// An id nobody holds is the client's error: 400, as on the daemon.
	code, body = postJSON(t, srv.URL+"/v1/neighbors", map[string]any{"id": 9999, "k": 3}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown id should be 400, got %d: %s", code, body)
	}
}

// TestRouterWriteGroupingFollowsRing checks every upserted id lands on
// (exactly) its ring owner, and deletes follow the same placement.
func TestRouterWriteGroupingFollowsRing(t *testing.T) {
	a, b := newStubShard("leader", 0), newStubShard("leader", 0)
	defer a.srv.Close()
	defer b.srv.Close()
	rt, srv := newTestRouter(t, map[string][]*stubShard{"a": {a}, "b": {b}})

	const dim = 4
	var updates []map[string]any
	for id := 0; id < 40; id++ {
		updates = append(updates, map[string]any{"id": id, "vector": basis(dim, id%dim, 1)})
	}
	var out struct {
		Upserted int `json:"upserted"`
	}
	code, body := postJSON(t, srv.URL+"/v1/upsert", map[string]any{"updates": updates}, &out)
	if code != http.StatusOK || out.Upserted != 40 {
		t.Fatalf("upsert: status %d, %s", code, body)
	}
	stubs := []*stubShard{a, b}
	for id := 0; id < 40; id++ {
		si := rt.cfg.Map.Owner(graph.NodeID(id))
		for i, s := range stubs {
			s.mu.Lock()
			_, has := s.vectors[graph.NodeID(id)]
			s.mu.Unlock()
			if has != (i == si) {
				t.Fatalf("id %d on stub %d: has=%v, owner=%d", id, i, has, si)
			}
		}
	}

	var dout struct {
		Deleted int `json:"deleted"`
	}
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	code, body = postJSON(t, srv.URL+"/v1/delete", map[string]any{"ids": ids}, &dout)
	if code != http.StatusOK || dout.Deleted != len(ids) {
		t.Fatalf("delete: status %d, %s", code, body)
	}
	for _, id := range ids {
		for _, s := range stubs {
			s.mu.Lock()
			_, has := s.vectors[graph.NodeID(id)]
			s.mu.Unlock()
			if has {
				t.Fatalf("id %d survived delete", id)
			}
		}
	}
}

// TestRouterDeadlineValidation mirrors the daemon's strict budget
// contract: malformed or non-positive overrides are a 400.
func TestRouterDeadlineValidation(t *testing.T) {
	a := newStubShard("leader", 0)
	defer a.srv.Close()
	_, srv := newTestRouter(t, map[string][]*stubShard{"a": {a}})

	for _, hdr := range []string{"abc", "-5", "0"} {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/neighbors",
			bytes.NewReader([]byte(`{"vector":[1,0,0,0],"k":1}`)))
		req.Header.Set(DeadlineHeader, hdr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("header %q: status %d, want 400", hdr, resp.StatusCode)
		}
	}
	code, body := postJSON(t, srv.URL+"/v1/neighbors", map[string]any{"vector": []float64{1, 0, 0, 0}, "deadline_ms": -10}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("negative deadline_ms: status %d, want 400: %s", code, body)
	}
}

// TestRouterFailoverPromotesMostCaughtUp kills a shard leader and
// checks the health loop promotes the follower with the highest
// applied watermark, after which writes flow again.
func TestRouterFailoverPromotesMostCaughtUp(t *testing.T) {
	leader := newStubShard("leader", 20)
	lagging := newStubShard("follower", 15)
	caughtUp := newStubShard("follower", 20)
	defer lagging.srv.Close()
	defer caughtUp.srv.Close()
	rt, srv := newTestRouter(t, map[string][]*stubShard{"a": {leader, lagging, caughtUp}})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.Run(ctx)

	// Let the first probe round see the healthy topology, then kill the
	// leader outright (connection refused, not a clean HTTP error).
	time.Sleep(150 * time.Millisecond)
	leader.srv.Close()

	deadline := time.After(5 * time.Second)
	for !caughtUp.promoted.Load() {
		if lagging.promoted.Load() {
			t.Fatal("router promoted the lagging follower over the caught-up one")
		}
		select {
		case <-deadline:
			t.Fatal("no promotion within 5s of leader death")
		case <-time.After(20 * time.Millisecond):
		}
	}

	// Writes must land on the new leader.
	var out struct {
		Upserted int `json:"upserted"`
	}
	id := 1
	code, body := postJSON(t, srv.URL+"/v1/upsert", map[string]any{"id": id, "vector": basis(4, 0, 1)}, &out)
	if code != http.StatusOK || out.Upserted != 1 {
		t.Fatalf("post-failover upsert: status %d, %s", code, body)
	}
	caughtUp.mu.Lock()
	_, has := caughtUp.vectors[graph.NodeID(id)]
	caughtUp.mu.Unlock()
	if !has {
		t.Fatal("post-failover write did not land on the promoted follower")
	}
}

// TestRouterWriteRetryAfterLeaderRefusal exercises the synchronous
// recovery path: the leader pointer aims at a follower (503), and the
// router must re-probe, adopt the actual leader, and retry within the
// same request.
func TestRouterWriteRetryAfterLeaderRefusal(t *testing.T) {
	follower := newStubShard("follower", 5)
	actual := newStubShard("leader", 5)
	defer follower.srv.Close()
	defer actual.srv.Close()
	// follower listed first: the boot-time leader pointer is wrong.
	_, srv := newTestRouter(t, map[string][]*stubShard{"a": {follower, actual}})

	var out struct {
		Upserted int `json:"upserted"`
	}
	code, body := postJSON(t, srv.URL+"/v1/upsert", map[string]any{"id": 1, "vector": basis(4, 0, 1)}, &out)
	if code != http.StatusOK || out.Upserted != 1 {
		t.Fatalf("write through stale leader pointer: status %d, %s", code, body)
	}
	actual.mu.Lock()
	_, has := actual.vectors[1]
	actual.mu.Unlock()
	if !has {
		t.Fatal("write did not reach the actual leader")
	}
}
