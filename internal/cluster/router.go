package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ehna/internal/ann"
	"ehna/internal/graph"
	"ehna/internal/obs"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Map is the shard placement. Required.
	Map *ShardMap
	// DefaultDeadline is the request budget when the client sends none
	// (default 2s — a router without a budget cannot derive per-shard
	// deadlines, so unlike the daemon it always runs bounded).
	DefaultDeadline time.Duration
	// MergeMargin is reserved out of the budget for the router's own
	// resolve/merge/encode work; each shard gets budget − margin
	// (default 10% of the budget, clamped to [2ms, 50ms]).
	MergeMargin time.Duration
	// HealthInterval is the endpoint probe period (default 1s).
	HealthInterval time.Duration
	// FailAfter is how many consecutive probe failures mark an endpoint
	// down (default 3).
	FailAfter int
	// AutoFailover lets the health loop promote the most-caught-up
	// healthy endpoint of a shard whose leader is down.
	AutoFailover bool
	// Logf, when set, receives router lifecycle messages.
	Logf func(format string, args ...any)
}

// endpointState is the router's health view of one daemon.
type endpointState struct {
	url     string
	healthy atomic.Bool
	fails   atomic.Int32
	role    atomic.Value // string: "leader" / "follower" / ""
	applied atomic.Uint64
}

// shardState is one shard's endpoints plus the current leader choice.
type shardState struct {
	name   string
	eps    []*endpointState
	leader atomic.Int32 // index into eps

	probeMu sync.Mutex // serializes write-path re-probes with the health loop
}

// Router scatter-gathers searches across every shard, routes writes to
// the owning shard's leader, and keeps a health/role view of every
// endpoint so it can degrade (partial results) and fail over (promote
// a follower) instead of going dark.
type Router struct {
	cfg    RouterConfig
	client *http.Client
	shards []*shardState

	reg       *obs.Registry
	requests  map[string]*obs.Counter
	errors    map[string]*obs.Counter
	latency   map[string]*obs.Histogram
	degraded  *obs.Counter
	partials  *obs.Counter
	failovers *obs.Counter
	shardErrs []*obs.Counter
}

// NewRouter validates the config and builds the router. Call Run to
// start the health loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Map == nil {
		return nil, errors.New("cluster: router needs a shard map")
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 2 * time.Second
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	// The shard calls' client is dedicated and has no overall timeout:
	// per-request contexts bound every call.
	rt := &Router{cfg: cfg, client: &http.Client{}}
	for _, spec := range cfg.Map.Shards {
		ss := &shardState{name: spec.Name}
		for _, u := range spec.Endpoints {
			ep := &endpointState{url: u}
			ep.role.Store("")
			// Optimistic start: everything is presumed healthy until the
			// probe loop says otherwise, so the first requests after boot
			// are not shed while the first probe round runs.
			ep.healthy.Store(true)
			ss.eps = append(ss.eps, ep)
		}
		rt.shards = append(rt.shards, ss)
	}
	rt.initMetrics()
	return rt, nil
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

func (rt *Router) initMetrics() {
	rt.reg = obs.NewRegistry()
	rt.requests = make(map[string]*obs.Counter)
	rt.errors = make(map[string]*obs.Counter)
	rt.latency = make(map[string]*obs.Histogram)
	for _, path := range []string{"/v1/neighbors", "/v1/upsert", "/v1/delete"} {
		l := obs.L("path", path)
		rt.requests[path] = rt.reg.Counter("ehnad_router_requests_total", "Requests handled by the router.", l)
		rt.errors[path] = rt.reg.Counter("ehnad_router_errors_total", "Requests the router answered with a 4xx/5xx.", l)
		rt.latency[path] = rt.reg.Histogram("ehnad_router_request_seconds", "Router request latency end to end.", l)
	}
	rt.degraded = rt.reg.Counter("ehnad_router_degraded_total",
		"Search responses served with partial shard coverage.")
	rt.partials = rt.reg.Counter("ehnad_router_shard_misses_total",
		"Per-shard search attempts that failed or timed out.")
	rt.failovers = rt.reg.Counter("ehnad_router_failovers_total",
		"Leader changes the router adopted or initiated.")
	rt.reg.GaugeFunc("ehnad_router_map_version", "Shard map version in service.",
		func() float64 { return float64(rt.cfg.Map.Version) })
	for _, ss := range rt.shards {
		ss := ss
		rt.shardErrs = append(rt.shardErrs, rt.reg.Counter("ehnad_router_shard_errors_total",
			"Failed sub-requests per shard.", obs.L("shard", ss.name)))
		for _, ep := range ss.eps {
			ep := ep
			ls := []obs.Label{obs.L("shard", ss.name), obs.L("endpoint", ep.url)}
			rt.reg.GaugeFunc("ehnad_router_endpoint_healthy",
				"1 when the endpoint is passing health probes.",
				func() float64 {
					if ep.healthy.Load() {
						return 1
					}
					return 0
				}, ls...)
			rt.reg.GaugeFunc("ehnad_router_endpoint_applied_seq",
				"Applied WAL watermark the endpoint last reported.",
				func() float64 { return float64(ep.applied.Load()) }, ls...)
		}
		rt.reg.GaugeFunc("ehnad_router_repl_lag_records",
			"Leader-to-laggiest-follower applied gap for the shard.",
			func() float64 { return float64(ss.lag()) }, obs.L("shard", ss.name))
	}
}

// lag reports the gap between the shard's most and least caught-up
// healthy endpoints — 0 for single-endpoint shards.
func (ss *shardState) lag() uint64 {
	var max, min uint64
	first := true
	for _, ep := range ss.eps {
		if !ep.healthy.Load() {
			continue
		}
		a := ep.applied.Load()
		if first {
			max, min, first = a, a, false
			continue
		}
		if a > max {
			max = a
		}
		if a < min {
			min = a
		}
	}
	if first {
		return 0
	}
	return max - min
}

// Run drives the health/failover loop until ctx is canceled.
func (rt *Router) Run(ctx context.Context) {
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	rt.probeAll(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.probeAll(ctx)
		}
	}
}

func (rt *Router) probeAll(ctx context.Context) {
	for _, ss := range rt.shards {
		rt.probeShard(ctx, ss)
	}
}

// probeShard refreshes every endpoint's health/role/applied view and
// re-elects the shard leader if the evidence demands it. Serialized
// per shard so the periodic loop and a write-path recovery probe do
// not race their elections.
func (rt *Router) probeShard(ctx context.Context, ss *shardState) {
	ss.probeMu.Lock()
	defer ss.probeMu.Unlock()
	timeout := rt.cfg.HealthInterval
	if timeout > time.Second {
		timeout = time.Second
	}
	for _, ep := range ss.eps {
		pctx, cancel := context.WithTimeout(ctx, timeout)
		st, err := FetchReplStatus(pctx, rt.client, ep.url)
		cancel()
		if err != nil {
			if n := ep.fails.Add(1); int(n) >= rt.cfg.FailAfter {
				if ep.healthy.Swap(false) {
					rt.logf("cluster: endpoint %s (shard %s) marked down after %d failed probes: %v", ep.url, ss.name, n, err)
				}
			}
			continue
		}
		ep.fails.Store(0)
		ep.healthy.Store(true)
		ep.role.Store(st.Role)
		ep.applied.Store(st.Applied)
	}
	rt.electLeader(ctx, ss)
}

// electLeader keeps the shard's leader pointer on a healthy endpoint
// that is actually serving the leader role, promoting the most
// caught-up healthy follower when allowed and necessary.
func (rt *Router) electLeader(ctx context.Context, ss *shardState) {
	cur := int(ss.leader.Load())
	if ep := ss.eps[cur]; ep.healthy.Load() && ep.role.Load() == "leader" {
		return
	}
	// Someone else already holds the role (an operator promoted, or a
	// previous failover finished): adopt it.
	for i, ep := range ss.eps {
		if i != cur && ep.healthy.Load() && ep.role.Load() == "leader" {
			ss.leader.Store(int32(i))
			rt.failovers.Inc()
			rt.logf("cluster: shard %s: adopting %s as leader", ss.name, ep.url)
			return
		}
	}
	if !rt.cfg.AutoFailover || ss.eps[cur].healthy.Load() {
		// Leader down but failover disabled, or the endpoint is healthy
		// and merely mid-transition (e.g. still reporting follower while
		// a promote lands): leave the pointer alone.
		return
	}
	// Promote the most caught-up healthy follower.
	best, bestApplied := -1, uint64(0)
	for i, ep := range ss.eps {
		if !ep.healthy.Load() || ep.role.Load() != "follower" {
			continue
		}
		if a := ep.applied.Load(); best == -1 || a > bestApplied {
			best, bestApplied = i, a
		}
	}
	if best == -1 {
		return
	}
	ep := ss.eps[best]
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	applied, err := Promote(pctx, rt.client, ep.url)
	cancel()
	if err != nil {
		rt.logf("cluster: shard %s: promote %s failed: %v", ss.name, ep.url, err)
		return
	}
	ep.role.Store("leader")
	ep.applied.Store(applied)
	ss.leader.Store(int32(best))
	rt.failovers.Inc()
	rt.logf("cluster: shard %s: promoted %s at applied seq %d", ss.name, ep.url, applied)
}

// leaderURL returns the shard's current write endpoint.
func (ss *shardState) leaderURL() string { return ss.eps[ss.leader.Load()].url }

// readURL returns the endpoint searches should hit: the leader when
// healthy, else any healthy endpoint (a follower serves reads while a
// failover is in flight), else the leader pointer as a best effort.
func (ss *shardState) readURL() string {
	if ep := ss.eps[ss.leader.Load()]; ep.healthy.Load() {
		return ep.url
	}
	for _, ep := range ss.eps {
		if ep.healthy.Load() {
			return ep.url
		}
	}
	return ss.leaderURL()
}

// Handler builds the router's route table.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	instrument := func(path string, h http.HandlerFunc) http.HandlerFunc {
		reqs, errs, lat := rt.requests[path], rt.errors[path], rt.latency[path]
		return func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			reqs.Inc()
			sw := &statusWriter{ResponseWriter: w}
			h(sw, r)
			if sw.status >= 400 {
				errs.Inc()
			}
			lat.ObserveSince(start)
		}
	}
	mux.HandleFunc("/v1/neighbors", instrument("/v1/neighbors", rt.handleNeighbors))
	mux.HandleFunc("/v1/upsert", instrument("/v1/upsert", rt.handleUpsert))
	mux.HandleFunc("/v1/delete", instrument("/v1/delete", rt.handleDelete))
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.Handle("/metrics", rt.reg.Handler(obs.Default()))
	return mux
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// shardBudget converts the request budget into the per-shard deadline:
// the budget minus the merge margin, never below half the budget.
func (rt *Router) shardBudget(budget time.Duration) time.Duration {
	margin := rt.cfg.MergeMargin
	if margin <= 0 {
		margin = budget / 10
		if margin < 2*time.Millisecond {
			margin = 2 * time.Millisecond
		}
		if margin > 50*time.Millisecond {
			margin = 50 * time.Millisecond
		}
	}
	sb := budget - margin
	if sb < budget/2 {
		sb = budget / 2
	}
	return sb
}

// shardAnswer is one shard's response to the scattered batch. Its
// lists live in the pooled body until release.
type shardAnswer struct {
	body *batchAckBody
	err  error
}

func (a shardAnswer) release() {
	if a.body != nil {
		a.body.release()
	}
}

// byRank orders merged results best first: score descending, then id
// ascending, so a merge is deterministic.
func byRank(a, b ann.Result) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

func (rt *Router) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := ReadNeighborsRequest(r.Body, r.ContentLength)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	defer body.Release() // after the shards have answered and the ack is written
	req := &body.Req
	budget, err := RequestBudget(r, req.DeadlineMS, rt.cfg.DefaultDeadline)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	single := len(req.Queries) == 0
	queries := req.Queries
	defK := req.K
	if single {
		queries = []NeighborQuery{req.NeighborQuery}
	} else if defK <= 0 {
		defK = DefaultK
	}

	// Resolve id-queries into vectors via the owning shard, so every
	// shard can score every query (a non-owner has no row for the id).
	type resolved struct {
		vec  []float64
		k    int
		self *graph.NodeID
	}
	res := make([]resolved, len(queries))
	for i, q := range queries {
		k := q.K
		if k <= 0 {
			k = defK
			if single {
				k = DefaultK
			}
		}
		switch {
		case q.Vector != nil && q.ID != nil:
			WriteError(w, http.StatusBadRequest, "query %d: query has both id and vector", i)
			return
		case q.Vector != nil:
			res[i] = resolved{vec: q.Vector, k: k}
		case q.ID != nil:
			vec, err := rt.fetchVector(ctx, *q.ID)
			if err != nil {
				status := http.StatusBadRequest
				if !errors.Is(err, errNotFound) {
					status = http.StatusServiceUnavailable
				}
				WriteError(w, status, "query %d: %v", i, err)
				return
			}
			id := *q.ID
			res[i] = resolved{vec: vec, k: k, self: &id}
		default:
			WriteError(w, http.StatusBadRequest, "query %d: query needs id or vector", i)
			return
		}
	}

	// Scatter: every shard scores every query at k (+1 for self-trim).
	out := make([]NeighborQuery, len(res))
	for i, rq := range res {
		ask := rq.k
		if rq.self != nil {
			ask++
		}
		out[i] = NeighborQuery{Vector: rq.vec, K: ask}
	}
	// Not pooled: an http.Transport may still be writing a request body
	// after Do has returned (a shard that answers before reading it, a
	// deadline), so this buffer must outlive the handler.
	scatter, ok := appendScatter(make([]byte, 0, len(body.buf)+64), out)
	if !ok {
		WriteError(w, http.StatusBadRequest, "a query vector is not finite")
		return
	}
	shardDeadline := rt.shardBudget(budget)

	answers := make([]shardAnswer, len(rt.shards))
	var wg sync.WaitGroup
	for si, ss := range rt.shards {
		wg.Add(1)
		go func(si int, ss *shardState) {
			defer wg.Done()
			answers[si] = rt.searchShard(ctx, ss, scatter, shardDeadline)
		}(si, ss)
	}
	wg.Wait()
	defer func() {
		for _, a := range answers {
			a.release()
		}
	}()

	answered, total := 0, 0
	anyDegraded := false
	for si, a := range answers {
		if a.err != nil {
			rt.partials.Inc()
			rt.shardErrs[si].Inc()
			rt.logf("cluster: shard %s search: %v", rt.shards[si].name, a.err)
			continue
		}
		answered++
		anyDegraded = anyDegraded || a.body.ack.Degraded
		for _, list := range a.body.ack.Batches {
			total += len(list)
		}
	}
	if answered == 0 {
		WriteError(w, http.StatusServiceUnavailable, "no shards answered")
		return
	}

	// Gather: merge per query across answered shards, re-rank globally
	// (byRank), trim self, cut to k. Every merged list is a window of
	// one slab sized for all the shards' results.
	all := make([]ann.Result, 0, total)
	merged := make([][]ann.Result, len(res))
	for qi := range res {
		lo := len(all)
		for _, a := range answers {
			if a.err == nil && qi < len(a.body.ack.Batches) {
				all = append(all, a.body.ack.Batches[qi]...)
			}
		}
		list := all[lo:]
		slices.SortFunc(list, byRank)
		if self := res[qi].self; self != nil {
			list = slices.DeleteFunc(list, func(x ann.Result) bool { return x.ID == *self })
		}
		if len(list) > res[qi].k {
			list = list[:res[qi].k]
		}
		merged[qi] = list[:len(list):len(list)]
	}

	var status SearchStatus
	if partial := answered < len(rt.shards); partial || anyDegraded {
		status = SearchStatus{Degraded: true, ShardsAnswered: answered, ShardsTotal: len(rt.shards)}
		if partial {
			rt.degraded.Inc()
		}
	}
	if single {
		WriteJSON(w, http.StatusOK, NeighborsAck{merged[0], status})
	} else {
		WriteJSON(w, http.StatusOK, NeighborsBatchAck{merged, status})
	}
}

// searchShard posts the scattered batch to one shard under its share
// of the budget.
func (rt *Router) searchShard(ctx context.Context, ss *shardState, body []byte, deadline time.Duration) shardAnswer {
	sctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, ss.readURL()+"/v1/neighbors", bytes.NewReader(body))
	if err != nil {
		return shardAnswer{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, strconv.Itoa(int(deadline/time.Millisecond)))
	resp, err := rt.client.Do(req)
	if err != nil {
		return shardAnswer{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return shardAnswer{err: fmt.Errorf("status %s: %s", resp.Status, b)}
	}
	ab, err := readBatchAck(resp.Body, resp.ContentLength)
	return shardAnswer{body: ab, err: err}
}

var errNotFound = errors.New("node not in store")

// fetchVector resolves a stored node id into its vector by asking the
// owning shard's read endpoint.
func (rt *Router) fetchVector(ctx context.Context, id graph.NodeID) ([]float64, error) {
	ss := rt.shards[rt.cfg.Map.Owner(id)]
	u := fmt.Sprintf("%s/v1/vector?id=%d", ss.readURL(), id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("resolve id %d on shard %s: %w", id, ss.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("node %d %w", id, errNotFound)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("resolve id %d on shard %s: status %s", id, ss.name, resp.Status)
	}
	var out VectorAck
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Vector, nil
}

// shardWriteResult is the per-shard slice of a routed write.
type shardWriteResult struct {
	Count int    `json:"count"`
	Seq   uint64 `json:"seq,omitempty"`
	Error string `json:"error,omitempty"`
	code  int
}

// postShardWrite sends one write sub-request to the leader of shard si,
// retrying once after a synchronous re-probe (which may fail the shard
// over) when the leader refuses or is unreachable. ack decodes the
// daemon's 200 body into the count and WAL seq it acknowledged.
func (rt *Router) postShardWrite(ctx context.Context, si int, path string, body []byte, ack func(io.Reader) (int, uint64, error)) shardWriteResult {
	ss := rt.shards[si]
	try := func() (shardWriteResult, bool) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ss.leaderURL()+path, bytes.NewReader(body))
		if err != nil {
			return shardWriteResult{Error: err.Error(), code: http.StatusInternalServerError}, false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.client.Do(req)
		if err != nil {
			return shardWriteResult{Error: err.Error(), code: http.StatusServiceUnavailable}, true
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			res := shardWriteResult{Error: fmt.Sprintf("status %s: %s", resp.Status, bytes.TrimSpace(b)), code: resp.StatusCode}
			// Retry when the node can't own the write right now (a
			// follower answering 503, a daemon mid-restart); a 4xx is the
			// request's fault and a retry would not change it.
			return res, resp.StatusCode >= 500
		}
		count, seq, err := ack(resp.Body)
		if err != nil {
			return shardWriteResult{Error: err.Error(), code: http.StatusBadGateway}, false
		}
		return shardWriteResult{Count: count, Seq: seq, code: http.StatusOK}, false
	}
	res, retry := try()
	if res.code == http.StatusOK || !retry {
		return res
	}
	// The leader refused or vanished: re-probe the shard now (the
	// health loop may be seconds away), which may adopt or promote a
	// new leader, then retry once.
	rt.shardErrs[si].Inc()
	rt.probeShard(ctx, ss)
	res2, _ := try()
	return res2
}

func (rt *Router) handleUpsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req UpsertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	updates, err := req.Batch()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Group by owning shard. Atomicity is per shard: a multi-shard
	// batch can land on some shards and fail on others (reported per
	// shard below).
	groups := make(map[int][]UpsertUpdate)
	for _, u := range updates {
		si := rt.cfg.Map.Owner(*u.ID)
		groups[si] = append(groups[si], u)
	}
	scatterWrite(rt, w, r, "/v1/upsert", "upserted", groups,
		func(g []UpsertUpdate) any { return UpsertRequest{Updates: g} },
		func(a UpsertAck) (int, uint64) { return a.Upserted, a.Seq })
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req DeleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	ids, err := req.Batch()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	groups := make(map[int][]graph.NodeID)
	for _, id := range ids {
		si := rt.cfg.Map.Owner(id)
		groups[si] = append(groups[si], id)
	}
	scatterWrite(rt, w, r, "/v1/delete", "deleted", groups,
		func(g []graph.NodeID) any { return DeleteRequest{IDs: g} },
		func(a DeleteAck) (int, uint64) { return a.Deleted, a.Seq })
}

// scatterWrite fans grouped write bodies out to their shard leaders
// concurrently and aggregates the per-shard outcomes. All-success is a
// 200 with the summed count; any failure reports the per-shard map
// under the failing sub-request's status (the daemons are the source
// of truth for what committed). request wraps one shard's group in the
// daemon's request type; acked reads the daemon's ack type A.
func scatterWrite[T, A any](rt *Router, w http.ResponseWriter, r *http.Request, path, countKey string, groups map[int][]T, request func([]T) any, acked func(A) (int, uint64)) {
	budget, err := RequestBudget(r, 0, rt.cfg.DefaultDeadline)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	type keyed struct {
		si  int
		res shardWriteResult
	}
	ack := func(body io.Reader) (int, uint64, error) {
		var a A
		err := json.NewDecoder(body).Decode(&a)
		count, seq := acked(a)
		return count, seq, err
	}
	out := make(chan keyed, len(groups))
	for si, g := range groups {
		go func(si int, g []T) {
			body, _ := json.Marshal(request(g))
			out <- keyed{si, rt.postShardWrite(ctx, si, path, body, ack)}
		}(si, g)
	}
	total := 0
	status := http.StatusOK
	perShard := make(map[string]shardWriteResult, len(groups))
	for range groups {
		k := <-out
		perShard[rt.shards[k.si].name] = k.res
		total += k.res.Count
		if k.res.code != http.StatusOK {
			// Prefer reporting a retryable condition as 503; a client 4xx
			// passes through when it is the only failure class.
			if status == http.StatusOK || k.res.code >= 500 {
				status = k.res.code
			}
			if k.res.code >= 500 {
				status = http.StatusServiceUnavailable
			}
		}
	}
	resp := map[string]any{countKey: total, "shards": perShard}
	if status != http.StatusOK {
		resp["error"] = "one or more shards failed; see shards"
	}
	WriteJSON(w, status, resp)
}

// handleHealthz reports the router's cluster view: per shard, the
// elected leader and every endpoint's health, role and applied seq.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := make([]map[string]any, len(rt.shards))
	for si, ss := range rt.shards {
		eps := make([]map[string]any, len(ss.eps))
		for i, ep := range ss.eps {
			eps[i] = map[string]any{
				"url":     ep.url,
				"healthy": ep.healthy.Load(),
				"role":    ep.role.Load(),
				"applied": ep.applied.Load(),
			}
		}
		shards[si] = map[string]any{
			"name":      ss.name,
			"leader":    ss.leaderURL(),
			"endpoints": eps,
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"map_version": rt.cfg.Map.Version,
		"shards":      shards,
	})
}

// handleReadyz is ready while at least one shard can answer: the
// partial-result contract keeps a router with any live shard useful,
// and degraded beats dark.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	healthyShards := 0
	for _, ss := range rt.shards {
		for _, ep := range ss.eps {
			if ep.healthy.Load() {
				healthyShards++
				break
			}
		}
	}
	if healthyShards == 0 {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reasons": []string{"no healthy shard endpoints"}})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"ready":          true,
		"shards_healthy": healthyShards,
		"shards_total":   len(rt.shards),
	})
}
