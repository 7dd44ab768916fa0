package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/graph"
	"ehna/internal/obs"
	"ehna/internal/vecmath"
)

// server wires the embedding store, the ANN index and the applier
// behind the HTTP/JSON API.
type server struct {
	store     *embstore.Store
	index     ann.Index // searches; mutations go through dur
	deg       *degrader // nil unless -index hnsw with -ef-floor and -max-inflight
	indexName string
	started   time.Time
	pprof     bool           // mount net/http/pprof on the mux (-pprof)
	dur       *durable       // the write path; logs too when booted with -wal
	repl      *replica       // nil unless -follow; see replica.go
	metrics   *serverMetrics // per-server gauges + HTTP series; see metrics.go

	defaultDeadline time.Duration
	inflight        chan struct{} // nil = unlimited; else a semaphore
	exports         atomic.Int64  // names concurrent /v1/export spool files apart
	closeOnce       sync.Once
}

// newServer assembles a serving daemon over a loaded store and its
// index: everything but the log, which buildServer opens afterwards
// when cfg names a WAL directory.
func newServer(cfg serverConfig, store *embstore.Store, index ann.Index) *server {
	s := &server{
		store:           store,
		index:           index,
		indexName:       cfg.index.kind,
		started:         time.Now(),
		pprof:           cfg.pprof,
		defaultDeadline: cfg.defaultDeadline,
	}
	s.dur = newDurable(cfg, store, s.index)
	if cfg.maxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.maxInflight)
	}
	if h, ok := index.(*ann.HNSW); ok {
		s.deg = newDegrader(h, h.Config().EfSearch, cfg.efFloor, cfg.maxInflight)
	}
	s.metrics = newServerMetrics(s)
	return s
}

// close tears the server down without a final snapshot (the next boot
// replays the WAL suffix). Idempotent.
func (s *server) close() { s.teardown(false) }

// teardown stops the replica and the log, rotating a final
// snapshot pair first when asked. The first call wins.
func (s *server) teardown(finalSnapshot bool) {
	s.closeOnce.Do(func() {
		if s.repl != nil {
			s.repl.stop() // stop applying before the WAL goes away
		}
		s.dur.close(finalSnapshot)
	})
}

// handler builds the route table. With -pprof the net/http/pprof
// handlers ride the same admin mux, so a live daemon can be profiled
// (go tool pprof http://host/debug/pprof/profile) while serving.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	route := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, s.metrics.instrument(path, h))
	}
	route("/v1/neighbors", s.handleNeighbors)
	route("/v1/score", s.handleScore)
	route("/v1/upsert", s.handleUpsert)
	route("/v1/delete", s.handleDelete)
	route("/v1/vector", s.handleVector)
	route("/v1/export", s.handleExport)
	route("/v1/admin/snapshot", s.handleAdminSnapshot)
	// Replication endpoints stay off the instrumented table: the stream
	// long-polls by design, and its held-open seconds would drown the
	// request-latency histograms.
	mux.HandleFunc("/v1/repl/stream", s.handleReplStream)
	mux.HandleFunc("/v1/repl/status", s.handleReplStatus)
	mux.HandleFunc("/v1/admin/promote", s.handleAdminPromote)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	// Server gauges first, then the process-wide registry (ann/wal
	// histograms, runtime stats) — names are disjoint by construction.
	mux.Handle("/metrics", s.metrics.reg.Handler(obs.Default()))
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// requestCtx derives the search context: the client's HTTP context
// (cancel propagates when the client disconnects) bounded by the
// request's deadline budget (see cluster.RequestBudget; -default-deadline
// when the client names none). A budget of 0 means unbounded.
func (s *server) requestCtx(r *http.Request, deadlineMS int) (context.Context, context.CancelFunc, error) {
	d, err := cluster.RequestBudget(r, deadlineMS, s.defaultDeadline)
	if err != nil {
		return nil, nil, err
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// acquire claims an inflight slot, shedding with 429 when the server
// is at -max-inflight, and feeds the occupancy it admitted at to the
// degrader. Returns false when the response is written.
func (s *server) acquire(w http.ResponseWriter) bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		s.deg.sample(len(s.inflight))
		return true
	default:
		shedInflight.Inc()
		w.Header().Set("Retry-After", "1")
		cluster.WriteError(w, http.StatusTooManyRequests, "server at -max-inflight capacity")
		return false
	}
}

func (s *server) release() {
	if s.inflight != nil {
		<-s.inflight
	}
}

// retrySeconds converts a wait into a Retry-After value: at least 1s
// (the header's resolution), rounded up.
func retrySeconds(wait time.Duration) int {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeSearchError maps a failed search onto the overload contract:
// 503 for work accepted but not finished (deadline, client gone), 500
// for genuine faults.
func writeSearchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		cluster.WriteError(w, http.StatusServiceUnavailable, "deadline exceeded before the search completed")
	case errors.Is(err, context.Canceled):
		// The client is gone; the status code is for the access log.
		cluster.WriteError(w, http.StatusServiceUnavailable, "request canceled")
	default:
		cluster.WriteError(w, http.StatusInternalServerError, "search: %v", err)
	}
}

// resolve turns a query into (vector, k, excludeSelf) form. Queries by
// ID exclude the query node itself from the results — "who is nearest
// to me" never usefully answers "you".
func (s *server) resolve(q cluster.NeighborQuery, defK int) (vec []float64, k int, self *graph.NodeID, err error) {
	k = q.K
	if k <= 0 {
		k = defK
	}
	switch {
	case q.Vector != nil && q.ID != nil:
		return nil, 0, nil, fmt.Errorf("query has both id and vector")
	case q.Vector != nil:
		// Reject wrong-dim vectors here (a 400) rather than inside the
		// search, where a batch's one bad query would fail — with a 500 —
		// the whole batch.
		if len(q.Vector) != s.store.Dim() {
			return nil, 0, nil, fmt.Errorf("vector has %d dims, store has %d", len(q.Vector), s.store.Dim())
		}
		return q.Vector, k, nil, nil
	case q.ID != nil:
		v, ok := s.store.Get(*q.ID)
		if !ok {
			return nil, 0, nil, fmt.Errorf("node %d not in store", *q.ID)
		}
		return v, k, q.ID, nil
	default:
		return nil, 0, nil, fmt.Errorf("query needs id or vector")
	}
}

// trimSelf drops the query node from its own result list and trims to k.
func trimSelf(results []ann.Result, self *graph.NodeID, k int) []ann.Result {
	if self != nil {
		out := results[:0]
		for _, r := range results {
			if r.ID != *self {
				out = append(out, r)
			}
		}
		results = out
	}
	if len(results) > k {
		results = results[:k]
	}
	return results
}

// maxBodyBytes bounds the body of a /v1/neighbors, /v1/upsert or
// /v1/delete request; reading past it fails the request with 413. The
// largest body a caller in this repository sends is a bench/ read_batch
// request of 32 raw-vector queries at dim 64, ~40 KB; a batch of 512
// updates would still fit at dim 512 (~5.6 MB).
const maxBodyBytes = 32 << 20

// limitBody is r's body, cut off at maxBodyBytes.
func limitBody(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, maxBodyBytes)
}

// writeBodyError answers a request body that could not be read or
// decoded: 413 if it ran past maxBodyBytes, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		cluster.WriteError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
		return
	}
	cluster.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
}

func (s *server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		cluster.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	body, err := cluster.ReadNeighborsRequest(limitBody(w, r), r.ContentLength)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	// The query vectors live in the body's pooled slab, so it is released
	// only after the search and the ack's encode have returned.
	defer body.Release()
	req := &body.Req
	ctx, cancel, err := s.requestCtx(r, req.DeadlineMS)
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if len(req.Queries) > 0 {
		s.handleNeighborsBatch(ctx, w, req)
		return
	}
	vec, k, self, err := s.resolve(req.NeighborQuery, cluster.DefaultK)
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Ask for one extra when excluding self, so k survives the trim.
	ask := k
	if self != nil {
		ask++
	}
	degraded := s.deg.degradedNow()
	buf := resultPool.Get().(*[]ann.Result)
	results, err := s.index.SearchInto(ctx, (*buf)[:0], vec, ask)
	if err != nil {
		writeSearchError(w, err)
		return
	}
	cluster.WriteJSON(w, http.StatusOK, cluster.NeighborsAck{
		Results:      trimSelf(results, self, k),
		SearchStatus: cluster.SearchStatus{Degraded: degraded},
	})
	*buf = results // keep the (possibly grown) buffer
	resultPool.Put(buf)
}

// resultPool holds single queries' result buffers, so a warm query
// path allocates none.
var resultPool = sync.Pool{New: func() any { return new([]ann.Result) }}

// batchScratch is one client batch's per-query working state, pooled
// like the request body. It goes back to the pool only after
// SearchBatch and the ack's encode have returned.
type batchScratch struct {
	qs     [][]float64
	ks     []int
	selves []*graph.NodeID
}

// maxPooledQueries caps the batch a pooled batchScratch may be sized
// for; one outsized request's scratch is dropped instead.
const maxPooledQueries = 1 << 14

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) size(n int) {
	if cap(sc.qs) < n {
		sc.qs, sc.ks, sc.selves = make([][]float64, n), make([]int, n), make([]*graph.NodeID, n)
	}
	sc.qs, sc.ks, sc.selves = sc.qs[:n], sc.ks[:n], sc.selves[:n]
}

func (sc *batchScratch) release() {
	if cap(sc.qs) > maxPooledQueries {
		return
	}
	clear(sc.qs) // id queries' vectors are the store's copies: let them go
	clear(sc.selves)
	batchScratchPool.Put(sc)
}

// handleNeighborsBatch answers an explicit client-side batch in one
// SearchBatch pass.
func (s *server) handleNeighborsBatch(ctx context.Context, w http.ResponseWriter, req *cluster.NeighborsRequest) {
	defK := req.K
	if defK <= 0 {
		defK = cluster.DefaultK
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	sc.size(len(req.Queries))
	qs, ks, selves := sc.qs, sc.ks, sc.selves
	maxK := 1
	for i, q := range req.Queries {
		vec, k, self, err := s.resolve(q, defK)
		if err != nil {
			cluster.WriteError(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		qs[i], ks[i], selves[i] = vec, k, self
		if self != nil {
			k++
		}
		if k > maxK {
			maxK = k
		}
	}
	results, err := s.index.SearchBatch(ctx, qs, maxK)
	if err != nil {
		writeSearchError(w, err)
		return
	}
	for i, res := range results {
		results[i] = trimSelf(res, selves[i], ks[i])
	}
	cluster.WriteJSON(w, http.StatusOK, cluster.NeighborsBatchAck{
		Batches:      results,
		SearchStatus: cluster.SearchStatus{Degraded: s.deg.degradedNow()},
	})
}

// scoreRequest asks for a pairwise link-prediction score between two
// stored nodes under one of the paper's edge operators (Table II).
type scoreRequest struct {
	U  *graph.NodeID `json:"u"`
	V  *graph.NodeID `json:"v"`
	Op string        `json:"op,omitempty"`
}

// parseOperator maps the JSON operator names onto eval.Operator.
func parseOperator(name string) (eval.Operator, error) {
	switch strings.ToLower(name) {
	case "", "hadamard":
		return eval.Hadamard, nil
	case "mean":
		return eval.Mean, nil
	case "l1", "weighted-l1":
		return eval.WeightedL1, nil
	case "l2", "weighted-l2":
		return eval.WeightedL2, nil
	default:
		return 0, fmt.Errorf("unknown operator %q (want mean, hadamard, l1 or l2)", name)
	}
}

func (s *server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		cluster.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req scoreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.U == nil || req.V == nil {
		cluster.WriteError(w, http.StatusBadRequest, "score needs u and v")
		return
	}
	op, err := parseOperator(req.Op)
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	eu, ok := s.store.Get(*req.U)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "node %d not in store", *req.U)
		return
	}
	ev, ok := s.store.Get(*req.V)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "node %d not in store", *req.V)
		return
	}
	// The scalar score is the sum over the operator's edge feature; for
	// Hadamard that is exactly the dot product the reconstruction
	// experiment (Figure 4) ranks by.
	feat := make([]float64, len(eu))
	op.Apply(feat, eu, ev)
	var score float64
	for _, f := range feat {
		score += f
	}
	cluster.WriteJSON(w, http.StatusOK, map[string]any{
		"u": *req.U, "v": *req.V, "op": op.String(), "score": score,
	})
}

func (s *server) handleUpsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		cluster.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.dur.node.load().role == roleFollower {
		s.writeApplyError(w, errFollower)
		return
	}
	req, err := cluster.ReadUpsertRequest(limitBody(w, r), r.ContentLength)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	// Validate the whole batch before applying any of it, so a 400 means
	// nothing was committed.
	updates, err := req.Batch()
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for i, u := range updates {
		switch {
		case len(u.Vector) == 0:
			cluster.WriteError(w, http.StatusBadRequest, "update %d: missing vector", i)
			return
		case len(u.Vector) != s.store.Dim():
			cluster.WriteError(w, http.StatusBadRequest, "update %d: vector has %d dims, store has %d", i, len(u.Vector), s.store.Dim())
			return
		}
	}
	seq, err := s.dur.upsert(updates)
	if err != nil {
		s.writeApplyError(w, err)
		return
	}
	cluster.WriteJSON(w, http.StatusOK, cluster.UpsertAck{Upserted: len(updates), Seq: seq, Nodes: s.store.Len()})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		cluster.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.dur.node.load().role == roleFollower {
		s.writeApplyError(w, errFollower)
		return
	}
	var req cluster.DeleteRequest
	if err := json.NewDecoder(limitBody(w, r)).Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	ids, err := req.Batch()
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deleted, seq, err := s.dur.delete(ids)
	if err != nil {
		s.writeApplyError(w, err)
		return
	}
	cluster.WriteJSON(w, http.StatusOK, cluster.DeleteAck{Deleted: deleted, Seq: seq, Nodes: s.store.Len()})
}

// writeApplyError maps a refused or failed write onto the overload
// contract: 503 + Retry-After from a follower (naming the leader the
// router should redirect to) and whenever the log is, or just turned,
// read-only (the write will succeed after the WAL heals); else 500.
func (s *server) writeApplyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errFollower):
		w.Header().Set("Retry-After", "1")
		cluster.WriteError(w, http.StatusServiceUnavailable, "follower of %s: %v", s.repl.leader, err)
	case errors.Is(err, errReadOnly) || !s.dur.node.load().writable():
		w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(healCheckEvery)))
		cluster.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		cluster.WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleExport streams a v3 embstore snapshot of the live store — the
// format -snapshot accepts, so an export can seed another daemon (or a
// test comparing recovered state against a reference). The image is
// spooled to a temp file first and sent only once complete, so a failed
// save is a 500, not a truncated 200, and the response carries its
// Content-Length.
func (s *server) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		cluster.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	fsys := s.dur.fsys
	fail := func(err error) {
		log.Printf("ehnad: export: %v", err)
		cluster.WriteError(w, http.StatusInternalServerError, "export: %v", err)
	}
	path := filepath.Join(s.dur.spoolDir(), fmt.Sprintf("export-%d-%d.snap.tmp", os.Getpid(), s.exports.Add(1)))
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		fail(err)
		return
	}
	defer f.Close()
	size, err := s.spoolExport(f)
	// Unlink the spool file before the send, not after it: the open
	// descriptor keeps the image readable, and neither a failed save, a
	// client that has its last byte, nor a kill mid-send finds it there.
	fsys.Remove(path)
	if err != nil {
		fail(err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	if _, err := io.Copy(w, f); err != nil {
		// Headers are gone; the client sees a body shorter than its
		// Content-Length, and the evidence lands in the daemon log.
		log.Printf("ehnad: export: %v", err)
	}
}

// spoolExport writes the export image to f and rewinds it, returning
// the image size. The image is taken under the applier lock — held for
// this local write only, not for the network send — and stamped with
// the WAL watermark, so a follower bootstrapping from it resumes the
// replication stream at exactly the exported sequence (0 when the
// daemon keeps no log: there is no sequence space).
func (s *server) spoolExport(f io.WriteSeeker) (int64, error) {
	if err := s.dur.exportTo(f); err != nil {
		return 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	_, err = f.Seek(0, io.SeekStart)
	return size, err
}

// requireLog refuses, with a 400 naming what needs it, an endpoint that
// operates on the log of a daemon booted without -wal.
func (s *server) requireLog(w http.ResponseWriter, what string) bool {
	ok := s.dur.hasLog()
	if !ok {
		cluster.WriteError(w, http.StatusBadRequest, "%s requires -wal", what)
	}
	return ok
}

func (s *server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		cluster.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.requireLog(w, "snapshot rotation") {
		return
	}
	wm, err := s.dur.snapshot()
	if err != nil {
		cluster.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	cluster.WriteJSON(w, http.StatusOK, map[string]any{"watermark": wm, "nodes": s.store.Len()})
}

// handleHealthz renders the liveness report from the same gauges
// /metrics scrapes (see metrics.go): every number below is a
// GaugeValue read, so the two endpoints cannot disagree. Only the
// identity strings (precision, index, metric) are read directly —
// they have no numeric series.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.metrics.gauge
	out := map[string]any{
		"status": "ok",
		"nodes":  int(g("ehnad_store_nodes")),
		"dim":    int(g("ehnad_store_dim")),
		// The compressed-plane dials: slab precision and the resulting
		// per-vector store footprint (payload + sidecars). With -index
		// hnsw the graph's slab holds a copy of each stored row, adding
		// graph.slab_bytes_per_vector (reported below) per graph slot.
		"precision":        s.store.Precision().String(),
		"bytes_per_vector": int(g("ehnad_store_bytes_per_vector")),
		"index":            s.indexName,
		"metric":           s.index.Metric().String(),
		// The kernel backend the distance computations run on ("avx2",
		// "neon" or "scalar") — mirrors the ehnad_kernel_backend gauge's
		// label, the quick way to confirm a deployment is on the fast
		// path.
		"kernel_backend": vecmath.Backend(),
		"uptime_s":       g("ehnad_uptime_seconds"),
		"boot_s":         g("ehnad_boot_seconds"),
	}
	// The store residency mode, and — serving cold — the mapped base's
	// shape: how big it is, how much of it the page cache holds, and
	// how much write overlay has accumulated since the last fold.
	if s.store.Cold() {
		out["store_mode"] = "mmap"
		out["cold_store"] = map[string]any{
			"snapshot":              s.store.MappedPath(),
			"mapped_bytes":          int64(g("ehnad_store_mapped_bytes")),
			"mapped_payload_bytes":  int64(g("ehnad_store_mapped_payload_bytes")),
			"mapped_resident_bytes": int64(g("ehnad_store_mapped_resident_bytes")),
			"overlay_vectors":       int(g("ehnad_store_overlay_vectors")),
			"overlay_bytes":         int64(g("ehnad_store_overlay_bytes")),
			"base_masked":           int(g("ehnad_store_base_masked")),
		}
	} else {
		out["store_mode"] = "ram"
	}
	// Kernel's view of this process (linux; the gauges are absent
	// elsewhere): RSS, the file-backed share of it (where the mapped
	// base shows up), and cumulative major faults — each one a disk
	// read the cold tier took.
	if rss, ok := obs.Default().GaugeValue("process_resident_bytes"); ok {
		shared, _ := obs.Default().GaugeValue("process_shared_resident_bytes")
		majflt, _ := obs.Default().GaugeValue("process_major_faults_total")
		out["process"] = map[string]any{
			"resident_bytes":        int64(rss),
			"shared_resident_bytes": int64(shared),
			"major_faults":          int64(majflt),
		}
	}
	if _, ok := s.index.(*ann.HNSW); ok {
		// Tombstones are the slots deletes freed and no insert has
		// reused yet.
		out["graph"] = map[string]any{
			"nodes":      int(g("ehnad_graph_nodes")),
			"tombstones": int(g("ehnad_graph_tombstones")),
			"layers":     int(g("ehnad_graph_layers")),
			// The graph keeps a slot-indexed copy of every stored row (the
			// price of lock-free beam scoring) in the store's own layout,
			// so this is the store's bytes_per_vector, and total vector
			// memory is nodes×bytes_per_vector + (nodes+tombstones)×this.
			"slab_bytes_per_vector": int(g("ehnad_store_bytes_per_vector")),
		}
	}
	if s.deg != nil {
		out["degraded"] = s.deg.degradedNow()
		out["ef_search_current"] = s.deg.efNow()
	}
	if s.dur.hasLog() {
		out["durability"] = s.dur.healthz(s.metrics)
	}
	if s.repl != nil {
		out["replication"] = map[string]any{
			"role":        s.dur.node.load().role.String(),
			"leader":      s.repl.leader,
			"applied_seq": s.dur.applied(),
			"leader_seq":  s.repl.client.LeaderSeq(),
		}
	}
	cluster.WriteJSON(w, http.StatusOK, out)
}

// handleReadyz is the readiness probe, distinct from /healthz
// liveness: a 503 here means "alive but don't route new traffic to
// me" — draining for shutdown, or read-only because the WAL is
// unavailable. Load balancers should poll this;
// orchestrators should restart on /healthz, not on /readyz.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if reasons := s.dur.node.load().notReady(); len(reasons) > 0 {
		cluster.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reasons": reasons})
		return
	}
	cluster.WriteJSON(w, http.StatusOK, map[string]any{"ready": true})
}
