package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
	"ehna/internal/wal"
)

// The traced half of a run: the same seeded op stream replayed in
// process against the same artifacts, one span around every call into a
// layer's public function. Spans are recorded from this package only —
// the program under test is not instrumented — kept in memory, and
// written out when the run ends.

// span is one timed call. Parent is the index of the span that caused
// it (-1 for a root); the spans of one replayed op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Self   int64  `json:"self_ns"` // duration minus what child spans cover
}

type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.origin)) }

// durations lists, in nanoseconds, every finished span of one name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans, with each one's self time, beside the run's
// environment block.
func (t *tracer) write(dir, workload string, env map[string]any) error {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"env": env, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

// timed runs fn under one span.
func (t *tracer) timed(name string, parent, op int, fn func()) {
	s := t.begin(name, parent, op)
	fn()
	t.end(s)
}

// medianUS is the median duration of the named spans in microseconds.
func (t *tracer) medianUS(name string) float64 { return median(t.durations(name)) / 1e3 }

// loadIndex opens the artifacts the way ehnad -store ram does: the v3
// snapshot copied into heap slabs, the graph decoded over it.
func loadIndex(tr *tracer, art artifacts) (*embstore.Store, *ann.HNSW, error) {
	var (
		store *embstore.Store
		err   error
	)
	tr.timed("embstore.LoadSnapshotV3", -1, 0, func() {
		store, _, err = embstore.LoadSnapshotV3(art.snapshot(), embstore.DefaultShards)
	})
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(art.graph())
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var h *ann.HNSW
	tr.timed("ann.LoadHNSWGraph", -1, 0, func() { h, err = ann.LoadHNSWGraph(f, store) })
	if err != nil {
		return nil, nil, err
	}
	h.SetEfSearch(efSearch)
	return store, h, nil
}

func fileSize(path string) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(st.Size()), nil
}

// kernelCalls is how many 64-dim kernel calls one span times: a call is
// tens of nanoseconds, below the clock's resolution.
const kernelCalls = 4096

var kernelSink float64

func traceRead(r *run, out *outcome, art artifacts, stream readStream, clientP50ms float64) error {
	defer r.phase("trace", time.Now())
	tr := r.tr
	ctx := context.Background()
	store, h, err := loadIndex(tr, art)
	if err != nil {
		return err
	}

	// The window's requests again, straight into the index.
	for i := 0; i < r.sz.layerOps; i++ {
		qs := stream.queries[i%readBodyPool]
		op := tr.begin("request", -1, i)
		var err error
		tr.timed("ann.HNSW.SearchBatch", op, i, func() { _, err = h.SearchBatch(ctx, qs, topK) })
		tr.end(op)
		if err != nil {
			return err
		}
	}
	batchNS := median(tr.durations("ann.HNSW.SearchBatch"))
	out.set("ann.search_batch_us_per_query", batchNS/1e3/queriesPerRq)
	out.set("ehnad.read_residual_us", clientP50ms*1e3-batchNS/1e3)

	// Single queries through the zero-allocation path, and their recall.
	probes, want := art.truth.probes()
	dst := make([]ann.Result, 0, topK)
	var recall float64
	for i, q := range probes {
		s := tr.begin("ann.HNSW.SearchInto", -1, i)
		dst, err = h.SearchInto(ctx, dst[:0], q, topK)
		tr.end(s)
		if err != nil {
			return err
		}
		hs := make([]hit, len(dst))
		for j, res := range dst {
			hs[j] = hit{uint32(res.ID), res.Score}
		}
		recall += recallOf(hs, want[i])
	}
	out.set("ann.search_into_us", tr.medianUS("ann.HNSW.SearchInto"))
	out.set("ann.recall_at_10", recall/float64(len(probes)))
	// Allocations of SearchInto alone, as testing.AllocsPerRun counts
	// them: whole allocations per query, over the pass least disturbed by
	// the runtime's own background allocations.
	allocs := uint64(math.MaxUint64)
	for pass := 0; pass < 5; pass++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, q := range probes {
			if dst, err = h.SearchInto(ctx, dst[:0], q, topK); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&ms1)
		allocs = min(allocs, (ms1.Mallocs-ms0.Mallocs)/uint64(len(probes)))
	}
	out.set("ann.allocs_per_query", float64(allocs))

	exact := ann.NewExact(store, ann.Cosine)
	for i, q := range probes[:min(len(probes), 50)] {
		s := tr.begin("ann.Exact.SearchInto", -1, i)
		dst, err = exact.SearchInto(ctx, dst[:0], q, topK)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	out.set("ann.exact_us", tr.medianUS("ann.Exact.SearchInto"))

	// The store's read path and the distance kernels under it.
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for i := 0; i < 32; i++ {
		tr.timed("embstore.Store.With", -1, i, func() {
			for j := 0; j < kernelCalls; j++ {
				store.With(graph.NodeID(rng.Intn(datasetN)), func(v *embstore.VecView) { kernelSink += v.Norm })
			}
		})
	}
	out.set("embstore.with_ns", median(tr.durations("embstore.Store.With"))/kernelCalls)
	snapBytes, err := fileSize(art.snapshot())
	if err != nil {
		return err
	}
	out.set("embstore.bytes_per_vector", snapBytes/datasetN)

	a, b := gaussian(rng, datasetDim), gaussian(rng, datasetDim)
	ac, bc := make([]int8, datasetDim), make([]int8, datasetDim)
	as, ao, asum := vecmath.EncodeSQ8(a, ac)
	bs, bo, bsum := vecmath.EncodeSQ8(b, bc)
	qsum := vecmath.Sum(a)
	kernels := []struct {
		name, metric string
		call         func() float64
	}{
		{"vecmath.DotSQ8Sym", "vecmath.dot_sq8sym_ns", func() float64 { return vecmath.DotSQ8Sym(ac, bc, as, ao, bs, bo, asum, bsum) }},
		{"vecmath.DotSQ8", "vecmath.dot_sq8_ns", func() float64 { return vecmath.DotSQ8(a, bc, bs, bo, qsum) }},
		{"vecmath.Dot", "vecmath.dot_f64_ns", func() float64 { return vecmath.Dot(a, b) }},
	}
	for _, k := range kernels {
		for i := 0; i < 32; i++ {
			tr.timed(k.name, -1, i, func() {
				for j := 0; j < kernelCalls; j++ {
					kernelSink += k.call()
				}
			})
		}
		out.set(k.metric, median(tr.durations(k.name))/kernelCalls)
	}

	overhead, err := routerOverheadUS(tr, r.sz.layerOps)
	if err != nil {
		return err
	}
	out.set("cluster.router_overhead_us", overhead)
	return nil
}

// routerOverheadUS times a batch search through cluster.Router's handler
// in front of two stub shards that answer from memory, against the same
// request sent to one stub directly: what the router's resolve, scatter
// and merge add to a request, without any shard's search time in it.
func routerOverheadUS(tr *tracer, requests int) (float64, error) {
	batches := make([][]hit, queriesPerRq)
	for i := range batches {
		for j := 0; j < topK; j++ {
			batches[i] = append(batches[i], hit{uint32(i*topK + j), 1 - float64(j)/100})
		}
	}
	canned, err := json.Marshal(map[string]any{"batches": batches})
	if err != nil {
		return 0, err
	}
	stub := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(io.Discard, req.Body) // a stub shard ignores the query
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(canned) // a failed write surfaces as the caller's non-200
	})
	s1, s2 := httptest.NewServer(stub), httptest.NewServer(stub)
	defer s1.Close()
	defer s2.Close()
	m, err := cluster.NewShardMap(1, []cluster.ShardSpec{
		{Name: "a", Endpoints: []string{s1.URL}}, {Name: "b", Endpoints: []string{s2.URL}},
	})
	if err != nil {
		return 0, err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Map: m})
	if err != nil {
		return 0, err
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	rng := rand.New(rand.NewSource(1))
	qs := make([][]float64, queriesPerRq)
	for i := range qs {
		qs[i] = gaussian(rng, datasetDim)
	}
	body := batchBody(qs)
	hc := &http.Client{Timeout: requestTimeout}
	defer hc.CloseIdleConnections()
	send := func(name, url string, i int) error {
		var err error
		tr.timed(name, -1, i, func() {
			var resp *http.Response
			if resp, err = hc.Post(url+"/v1/neighbors", "application/json", bytes.NewReader(body)); err != nil {
				return
			}
			defer resp.Body.Close()
			if _, err = io.Copy(io.Discard, resp.Body); err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: status %d", name, resp.StatusCode)
			}
		})
		return err
	}
	for i := 0; i < requests; i++ {
		if err := send("cluster.Router.Handler", front.URL, i); err != nil {
			return 0, err
		}
		if err := send("stub shard", s1.URL, i); err != nil {
			return 0, err
		}
	}
	return tr.medianUS("cluster.Router.Handler") - tr.medianUS("stub shard"), nil
}

func traceWrite(r *run, out *outcome, art artifacts, ops []mixedOp, clientP50ms float64) error {
	defer r.phase("trace", time.Now())
	tr := r.tr
	_, h, err := loadIndex(tr, art)
	if err != nil {
		return err
	}
	var writes []mixedOp
	for _, op := range ops {
		if op.write && len(writes) < r.sz.layerOps {
			writes = append(writes, op)
		}
	}

	// The log: every upsert appended under both fsync policies. The
	// difference is what -fsync always adds to an acknowledged write.
	logged := make(map[wal.SyncPolicy]string)
	for _, pol := range []struct {
		sync wal.SyncPolicy
		name string
	}{{wal.SyncNever, "wal.Log.Append(never)"}, {wal.SyncAlways, "wal.Log.Append(always)"}} {
		dir, err := r.sb.subdir("tracewal")
		if err != nil {
			return err
		}
		l, err := wal.Open(dir, wal.Options{Sync: pol.sync})
		if err != nil {
			return err
		}
		for i, op := range writes {
			var err error
			tr.timed(pol.name, -1, i, func() { _, err = l.Append(wal.OpUpsert, graph.NodeID(op.id), op.vec) })
			if err != nil {
				l.Close()
				return err
			}
		}
		if pol.sync == wal.SyncNever {
			out.set("wal.bytes_per_record", float64(l.Stats().SizeBytes)/float64(len(writes)))
		}
		if err := l.Close(); err != nil {
			return err
		}
		logged[pol.sync] = dir
	}
	appendUS, alwaysUS := tr.medianUS("wal.Log.Append(never)"), tr.medianUS("wal.Log.Append(always)")
	out.set("wal.append_us", appendUS)
	out.set("wal.fsync_us", alwaysUS-appendUS)

	// Recovery's two halves: decoding the log, and applying a record.
	var recs []wal.Record
	s := tr.begin("wal.Replay", -1, 0)
	_, err = wal.Replay(logged[wal.SyncAlways], 0, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	tr.end(s)
	if err != nil {
		return err
	}
	if len(recs) != len(writes) {
		return fmt.Errorf("wal replay returned %d records of %d appended", len(recs), len(writes))
	}
	out.set("wal.replay_us_per_record", tr.medianUS("wal.Replay")/float64(len(recs)))

	// The store alone, on its own copy so the graph's store stays as the
	// artifacts left it.
	plain, _, err := embstore.LoadSnapshotV3(art.snapshot(), embstore.DefaultShards)
	if err != nil {
		return err
	}
	for i, rec := range recs {
		var err error
		tr.timed("embstore.Store.ApplyWAL", -1, i, func() { err = plain.ApplyWAL(rec) })
		if err != nil {
			return err
		}
	}
	for i, op := range writes {
		var err error
		tr.timed("embstore.Store.Upsert", -1, i, func() { err = plain.Upsert(graph.NodeID(op.id), op.vec) })
		if err != nil {
			return err
		}
	}
	out.set("embstore.apply_wal_us", tr.medianUS("embstore.Store.ApplyWAL"))
	out.set("embstore.upsert_us", tr.medianUS("embstore.Store.Upsert"))

	// The index: store upsert plus graph insert, new ids apart from
	// overwrites (an overwrite also tombstones the old slot).
	for i, op := range writes {
		name := "ann.HNSW.Add(overwrite)"
		if op.fresh {
			name = "ann.HNSW.Add(new)"
		}
		var err error
		tr.timed(name, -1, i, func() { err = h.Add(graph.NodeID(op.id), op.vec) })
		if err != nil {
			return err
		}
	}
	addUS, readdUS := tr.medianUS("ann.HNSW.Add(new)"), tr.medianUS("ann.HNSW.Add(overwrite)")
	out.set("ann.add_us", addUS)
	out.set("ann.readd_us", readdUS)
	// The stream is half new ids, half overwrites; an upsert's serial path
	// in the daemon is the durable append and then the index add.
	out.set("ehnad.write_residual_us", clientP50ms*1e3-(alwaysUS+(addUS+readdUS)/2))
	return nil
}

func traceRestart(r *run, out *outcome, art artifacts) error {
	defer r.phase("trace", time.Now())
	tr := r.tr
	const loads = 20
	var store *embstore.Store
	for i := 0; i < loads; i++ {
		var (
			cold *embstore.Store
			err  error
		)
		tr.timed("embstore.OpenMmap", -1, i, func() { cold, _, err = embstore.OpenMmap(art.snapshot()) })
		if err != nil {
			return err
		}
		f, err := os.Open(art.graph())
		if err != nil {
			cold.Close()
			return err
		}
		tr.timed("ann.LoadHNSWGraph", -1, i, func() { _, err = ann.LoadHNSWGraph(f, cold) })
		f.Close()
		if cerr := cold.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		tr.timed("embstore.LoadSnapshotV3", -1, i, func() {
			store, _, err = embstore.LoadSnapshotV3(art.snapshot(), embstore.DefaultShards)
		})
		if err != nil {
			return err
		}
		dst, err := os.CreateTemp(r.sb.dir, "resnap-*.snap")
		if err != nil {
			return err
		}
		tr.timed("embstore.Store.SaveSnapshotV3", -1, i, func() { err = store.SaveSnapshotV3(dst, 0) })
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		os.Remove(dst.Name())
		if err != nil {
			return err
		}
	}
	ms := func(name string) float64 { return tr.medianUS(name) / 1e3 }
	out.set("embstore.open_mmap_ms", ms("embstore.OpenMmap"))
	out.set("embstore.load_v3_ms", ms("embstore.LoadSnapshotV3"))
	out.set("embstore.snapshot_v3_ms", ms("embstore.Store.SaveSnapshotV3"))
	out.set("ann.graph_load_ms", ms("ann.LoadHNSWGraph"))
	graphBytes, err := fileSize(art.graph())
	if err != nil {
		return err
	}
	out.set("ann.graph_bytes_per_node", graphBytes/datasetN)

	// One full build over the loaded store, as ehnad-mkstore -hnsw does.
	tr.timed("ann.BuildHNSW", -1, 0, func() { _, err = ann.BuildHNSW(store, ann.DefaultHNSWConfig()) })
	if err != nil {
		return err
	}
	out.set("ann.build_ms_per_knode", ms("ann.BuildHNSW")/(datasetN/1000.0))
	return nil
}
