package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ehna/internal/vecmath"
)

// The three serving workloads: read_batch, write_mixed and restart, each
// one closed-loop client against a real ehnad over ehnad-mkstore
// artifacts.

// efSearch is the query-time beam width. At the library default of 64
// the default graph (M=16, ef-construction 200) reaches recall@10 0.90
// on 5000 isotropic Gaussian vectors — the hardest case — and 0.987 at
// 192, which leaves room above recallFloor on every seed and after the
// write_mixed churn.
const efSearch = 192

// servingFlags is the configuration every daemon boots with. The batch
// window timer and the time-triggered background work (snapshot
// rotation, compaction) are switched off so that nothing but the
// client's requests runs inside the window; their cost is measured per
// layer.
var servingFlags = []string{
	"-index", "hnsw", "-precision", "sq8", "-metric", "cosine", "-ef-search", strconv.Itoa(efSearch),
	"-batch-window", "0", "-snapshot-interval", "0", "-compact-at", "0",
}

var numCPU = runtime.NumCPU()

// artifacts is one ehnad-mkstore output directory.
type artifacts struct {
	dir   string
	truth truthFile
}

func (a artifacts) snapshot() string { return filepath.Join(a.dir, "store.snap") }
func (a artifacts) graph() string    { return filepath.Join(a.dir, "graph.gob") }

// truthFile mirrors ehnad-mkstore's truth.json.
type truthFile struct {
	Dim     int `json:"dim"`
	N       int `json:"n"`
	K       int `json:"k"`
	Queries []struct {
		Vector []float64 `json:"vector"`
		IDs    []uint32  `json:"ids"`
	} `json:"queries"`
}

// mkstore generates the dataset, its HNSW graph and the exact truth.
// GOMAXPROCS=1 makes the graph build — and so recall and the graph's
// size — a function of the seed alone: the parallel build races its
// inserts and is no faster on two vCPUs.
func (r *run) mkstore(ctx context.Context) (artifacts, error) {
	dir, err := r.sb.subdir("art")
	if err != nil {
		return artifacts{}, err
	}
	c, err := r.sb.spawn([]string{"GOMAXPROCS=1"}, filepath.Join(r.cfg.bin, "ehnad-mkstore"),
		"-out", dir, "-n", strconv.Itoa(datasetN), "-dim", strconv.Itoa(datasetDim),
		"-precision", "sq8", "-hnsw", "-queries", strconv.Itoa(truthProbe),
		"-k", strconv.Itoa(topK), "-seed", strconv.FormatInt(r.cfg.seed, 10))
	if err != nil {
		return artifacts{}, err
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		c.kill()
		return artifacts{}, ctx.Err()
	}
	ok := c.cmd.ProcessState.Success()
	tail := c.logTail()
	c.kill() // already reaped: unregisters it
	if !ok {
		return artifacts{}, fmt.Errorf("ehnad-mkstore failed:\n%s", tail)
	}
	a := artifacts{dir: dir}
	b, err := os.ReadFile(filepath.Join(dir, "truth.json"))
	if err != nil {
		return artifacts{}, err
	}
	if err := json.Unmarshal(b, &a.truth); err != nil {
		return artifacts{}, fmt.Errorf("truth.json: %w", err)
	}
	if len(a.truth.Queries) != truthProbe || a.truth.Dim != datasetDim {
		return artifacts{}, fmt.Errorf("truth.json: %d probes of dim %d, want %d of dim %d",
			len(a.truth.Queries), a.truth.Dim, truthProbe, datasetDim)
	}
	return a, nil
}

// daemon is one running ehnad and the client bound to it.
type daemon struct {
	*child
	cl *client
}

func (d *daemon) stop() {
	d.cl.close()
	d.kill()
}

// boot spawns ehnad on a free port with the serving flags plus mode.
// GOMAXPROCS is set to the CPU count the daemon can run on — one, see
// pin.go — so the recorded value is the effective one.
func (r *run) boot(mode ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	r.flags = append(slices.Clone(servingFlags), mode...)
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, r.flags...)
	c, err := r.sb.spawn([]string{"GOMAXPROCS=" + strconv.Itoa(numCPU)}, filepath.Join(r.cfg.bin, "ehnad"), args...)
	if err != nil {
		return nil, err
	}
	return &daemon{child: c, cl: newClient(port)}, nil
}

// setUp is the timed set-up of a serving workload: generate the data,
// build the index, boot the daemon and get a first answer. It runs
// sz.setups times; setup_s is the median, and the last instance stays
// up for the window. mode maps the artifacts to the daemon's flags.
func (r *run) setUp(ctx context.Context, out *outcome, mode func(artifacts) ([]string, error)) (artifacts, *daemon, error) {
	defer r.phase("setup", time.Now())
	var times []float64
	for i := 0; ; i++ {
		r.sampleReference()
		start := time.Now()
		art, err := r.mkstore(ctx)
		if err != nil {
			return artifacts{}, nil, err
		}
		flags, err := mode(art)
		if err != nil {
			return artifacts{}, nil, err
		}
		d, err := r.boot(flags...)
		if err != nil {
			return artifacts{}, nil, err
		}
		if _, err := d.cl.awaitAnswer(ctx, d.child, singleBody(art.truth.Queries[0].Vector)); err != nil {
			d.stop()
			return artifacts{}, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == r.sz.setups-1 {
			out.set("setup_s", median(times))
			return art, d, nil
		}
		d.stop()
	}
}

// hit is one search result as the daemon encodes it.
type hit struct {
	ID    uint32  `json:"id"`
	Score float64 `json:"score"`
}

type neighborsResponse struct {
	Results []hit   `json:"results"`
	Batches [][]hit `json:"batches"`
}

// checkHits reports what is wrong with one query's result list: it must
// hold exactly topK distinct ids below idLimit, best score first.
func checkHits(hs []hit, idLimit uint32) error {
	if len(hs) != topK {
		return fmt.Errorf("%d results, want %d", len(hs), topK)
	}
	for i, h := range hs {
		if h.ID >= idLimit {
			return fmt.Errorf("id %d outside [0,%d)", h.ID, idLimit)
		}
		if math.IsNaN(h.Score) || math.IsInf(h.Score, 0) {
			return fmt.Errorf("score %v", h.Score)
		}
		if i > 0 && h.Score > hs[i-1].Score {
			return fmt.Errorf("results not sorted by descending score")
		}
		for _, prev := range hs[:i] {
			if prev.ID == h.ID {
				return fmt.Errorf("id %d returned twice", h.ID)
			}
		}
	}
	return nil
}

// recallOf is the share of want found in hs.
func recallOf(hs []hit, want []uint32) float64 {
	found := 0
	for _, h := range hs {
		for _, w := range want {
			if h.ID == w {
				found++
				break
			}
		}
	}
	return float64(found) / float64(len(want))
}

// probeRecall sends every truth probe to the live daemon, in batch
// requests, and returns mean recall@10 against want (one id list per
// probe). A request that fails counts as recall 0 for its probes.
func probeRecall(ctx context.Context, cl *client, probes [][]float64, want [][]uint32, idLimit uint32) float64 {
	var sum float64
	for lo := 0; lo < len(probes); lo += queriesPerRq {
		hi := min(lo+queriesPerRq, len(probes))
		status, body, err := cl.post(ctx, "/v1/neighbors", batchBody(probes[lo:hi]))
		var resp neighborsResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Batches) != hi-lo {
			continue
		}
		for i, hs := range resp.Batches {
			if checkHits(hs, idLimit) == nil {
				sum += recallOf(hs, want[lo+i])
			}
		}
	}
	return sum / float64(len(probes))
}

func (t truthFile) probes() (vecs [][]float64, ids [][]uint32) {
	for _, q := range t.Queries {
		vecs = append(vecs, q.Vector)
		ids = append(ids, q.IDs)
	}
	return vecs, ids
}

// daemonCPU reads a live daemon's CPU time for a window.
func daemonCPU(d *daemon) func() (float64, error) {
	return func() (float64, error) { return cpuSeconds(d.cmd.Process.Pid) }
}

// setWindow reports the window's four time metrics and keeps every
// segment's values for the environment block.
func (r *run) setWindow(out *outcome, w windowStats) {
	r.segments = map[string][]float64{
		"ops_per_s": w.segTput, "lat_p50_ms": w.segP50, "lat_p90_ms": w.segP90, "cpu_s_per_kop": w.segCPU,
	}
	out.set("ops_per_s", w.opsPerSec)
	out.set("lat_p50_ms", w.p50ms)
	out.set("lat_p90_ms", w.p90ms)
	out.set("cpu_s_per_kop", w.cpuPerKop)
}

// closeDaemonWindow finishes a window measured against one live daemon:
// its time metrics, and the daemon's peak RSS.
func (r *run) closeDaemonWindow(out *outcome, win *window, opsPerSample float64, d *daemon) (windowStats, error) {
	w, err := win.finish(opsPerSample)
	if err != nil {
		return w, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return w, err
	}
	r.setWindow(out, w)
	out.set("rss_mb", rss)
	return w, nil
}

func runRead(ctx context.Context, r *run, out *outcome) error {
	stream := genReadStream(r.cfg.seed, datasetDim)
	art, d, err := r.setUp(ctx, out, func(a artifacts) ([]string, error) {
		return []string{"-store", "ram", "-snapshot", a.snapshot(), "-hnsw-graph", a.graph()}, nil
	})
	if err != nil {
		return err
	}
	defer d.stop()

	windowStart := time.Now()
	warm := r.sz.readReqs / 10
	win := newWindow(r.sz.readReqs, segmentCount(r.sz.readReqs), daemonCPU(d), r.sampleReference)
	var respBytes int
	origin := time.Now()
	for i := 0; i < warm+r.sz.readReqs; i++ {
		if err := win.begin(i - warm); err != nil {
			return err
		}
		body := stream.bodies[i%readBodyPool]
		t0 := time.Since(origin)
		status, resp, err := d.cl.post(ctx, "/v1/neighbors", body)
		t1 := time.Since(origin)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		bad := queriesPerRq // a failed request fails every query it carried
		var parsed neighborsResponse
		if err == nil && status == http.StatusOK && json.Unmarshal(resp, &parsed) == nil && len(parsed.Batches) == queriesPerRq {
			bad = 0
			for _, hs := range parsed.Batches {
				if checkHits(hs, datasetN) != nil {
					bad++
				}
			}
		}
		if i >= warm {
			win.add(opSample{int64(t0), int64(t1), true})
			out.attempted += queriesPerRq
			out.fail(bad)
			respBytes += len(resp)
		}
	}
	w, err := r.closeDaemonWindow(out, win, queriesPerRq, d)
	if err != nil {
		return err
	}
	r.phase("window", windowStart)

	probes, want := art.truth.probes()
	out.setRecall(probeRecall(ctx, d.cl, probes, want, datasetN))
	if r.tr != nil {
		out.set("ehnad.resp_bytes_per_query", float64(respBytes)/float64(r.sz.readReqs*queriesPerRq))
		return traceRead(r, out, art, stream, w.p50ms)
	}
	return nil
}

// cosine is the full-precision cosine similarity the truth is scored by.
func cosine(a, b []float64) float64 {
	return vecmath.Dot(a, b) / (vecmath.Norm(a)*vecmath.Norm(b) + 1e-12)
}

// bruteForce is the exact cosine top-k of q over contents (id → vector).
func bruteForce(contents map[uint32][]float64, q []float64) []uint32 {
	type scored struct {
		id uint32
		s  float64
	}
	all := make([]scored, 0, len(contents))
	for id, v := range contents {
		all = append(all, scored{id, cosine(q, v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].id < all[j].id
	})
	ids := make([]uint32, topK)
	for i := range ids {
		ids[i] = all[i].id
	}
	return ids
}

// readBackTolerance is how close a read-back vector must be to the one
// acknowledged: the store keeps sq8 codes, so equality is up to
// quantization (≈1e-4 in cosine at 64 dims), far from any other vector.
const readBackTolerance = 0.999

func runWrite(ctx context.Context, r *run, out *outcome) error {
	ops := genMixedStream(r.cfg.seed, r.sz.writeOps/10+r.sz.writeOps, datasetN, datasetDim)
	// Every set-up gets an empty WAL directory; flags keeps the last
	// one's, which the recovery boot reuses.
	var flags []string
	art, d, err := r.setUp(ctx, out, func(a artifacts) ([]string, error) {
		dir, err := r.sb.subdir("wal")
		flags = []string{"-store", "ram", "-wal", dir, "-fsync", "always", "-snapshot", a.snapshot(), "-hnsw-graph", a.graph()}
		return flags, err
	})
	if err != nil {
		return err
	}
	defer func() { d.stop() }() // d is rebound to the recovered daemon below

	var before map[string]float64
	if r.tr != nil {
		if before, err = scrapeMetrics(ctx, d.cl); err != nil {
			return err
		}
	}
	windowStart := time.Now()
	warm := r.sz.writeOps / 10
	idLimit, upserts := uint32(datasetN), 0 // ids the stream ever uses; measured upserts
	for i, op := range ops {
		if op.fresh {
			idLimit++
		}
		if op.write && i >= warm {
			upserts++
		}
	}
	win := newWindow(r.sz.writeOps, segmentCount(upserts), daemonCPU(d), r.sampleReference)
	acked := make(map[uint32][]float64) // id → last acknowledged vector
	ackedWrites := 0
	origin := time.Now()
	for i, op := range ops {
		if err := win.begin(i - warm); err != nil {
			return err
		}
		path := "/v1/neighbors"
		if op.write {
			path = "/v1/upsert"
		}
		t0 := time.Since(origin)
		status, resp, err := d.cl.post(ctx, path, op.body)
		t1 := time.Since(origin)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		ok := err == nil && status == http.StatusOK
		if ok && op.write {
			var ack struct {
				Upserted int    `json:"upserted"`
				Seq      uint64 `json:"seq"`
			}
			ok = json.Unmarshal(resp, &ack) == nil && ack.Upserted == 1 && ack.Seq > 0
			if ok {
				acked[op.id] = op.vec
				ackedWrites++
			}
		} else if ok {
			var parsed neighborsResponse
			ok = json.Unmarshal(resp, &parsed) == nil && checkHits(parsed.Results, idLimit) == nil
		}
		if i >= warm {
			win.add(opSample{int64(t0), int64(t1), op.write})
			out.attempted++
			if !ok {
				out.fail(1)
			}
		} else if !ok {
			return fmt.Errorf("warm-up op %d failed (status %d, err %v):\n%s", i, status, err, d.logTail())
		}
	}
	w, err := r.closeDaemonWindow(out, win, 1, d)
	if err != nil {
		return err
	}
	r.phase("window", windowStart)
	var after map[string]float64
	if r.tr != nil {
		if after, err = scrapeMetrics(ctx, d.cl); err != nil {
			return err
		}
	}

	// Durability: kill the daemon without warning, boot a new one on the
	// same WAL directory, and read every acknowledged upsert back.
	recoveryStart := time.Now()
	d.stop()
	if d, err = r.boot(flags...); err != nil {
		return err
	}
	if _, err := d.cl.awaitAnswer(ctx, d.child, singleBody(art.truth.Queries[0].Vector)); err != nil {
		return err
	}
	recoveryMS := time.Since(recoveryStart).Seconds() * 1000
	lost := 0
	for id, want := range acked {
		status, body, err := d.cl.get(ctx, "/v1/vector?id="+strconv.FormatUint(uint64(id), 10))
		var got struct {
			Vector []float64 `json:"vector"`
		}
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &got) != nil ||
			len(got.Vector) != datasetDim || cosine(got.Vector, want) < readBackTolerance {
			lost++
		}
	}
	if lost > 0 {
		out.fail(lost)
		out.gate("%d of %d acknowledged upserts not read back after SIGKILL", lost, len(acked))
	}
	r.phase("recovery", recoveryStart)

	// Quality: recall of the held-out probes against brute force over
	// what the store must now hold.
	contents := make(map[uint32][]float64, datasetN+len(acked))
	for id, v := range datasetVectors(r.cfg.seed, datasetN, datasetDim) {
		contents[uint32(id)] = v
	}
	for id, v := range acked {
		contents[id] = v
	}
	probes, _ := art.truth.probes()
	want := make([][]uint32, len(probes))
	for i, q := range probes {
		want[i] = bruteForce(contents, q)
	}
	out.setRecall(probeRecall(ctx, d.cl, probes, want, idLimit))

	if r.tr != nil {
		delta := func(name string) float64 { return sumSeries(after, name) - sumSeries(before, name) }
		ratio := func(num, den float64) float64 {
			if den == 0 {
				return 0
			}
			return num / den
		}
		out.set("ehnad.batch_size_mean", ratio(delta("ehnad_batch_size_sum"), delta("ehnad_batch_size_count")))
		out.set("ehnad.queue_wait_us_mean", 1e6*ratio(delta("ehnad_queue_wait_seconds_sum"), delta("ehnad_queue_wait_seconds_count")))
		out.set("ehnad.fsyncs_per_write", ratio(delta("ehnad_wal_fsync_seconds_count"), float64(ackedWrites)))
		out.set("ehnad.recovered_share", ratio(float64(len(acked)-lost), float64(len(acked))))
		out.set("ehnad.recovery_ms", recoveryMS)
		return traceWrite(r, out, art, ops, w.p50ms)
	}
	return nil
}

func runRestart(ctx context.Context, r *run, out *outcome) error {
	var flags []string
	art, d, err := r.setUp(ctx, out, func(a artifacts) ([]string, error) {
		flags = []string{"-store", "mmap", "-snapshot", a.snapshot(), "-hnsw-graph", a.graph()}
		return flags, nil
	})
	if err != nil {
		return err
	}
	d.stop()

	windowStart := time.Now()
	warm := r.sz.restarts / 10
	var cpu, recallSum float64 // cpu: what the reaped daemons used, summed
	win := newWindow(r.sz.restarts, segmentCount(r.sz.restarts), func() (float64, error) { return cpu, nil }, r.sampleReference)
	var rss, bootReported []float64
	origin := time.Now()
	for i := 0; i < warm+r.sz.restarts; i++ {
		probe := art.truth.Queries[i%truthProbe]
		if err := win.begin(i - warm); err != nil {
			return err
		}
		t0 := time.Since(origin)
		d, err := r.boot(flags...)
		if err != nil {
			return err
		}
		answer, err := d.cl.awaitAnswer(ctx, d.child, singleBody(probe.Vector))
		t1 := time.Since(origin)
		if err != nil {
			d.stop()
			return err
		}
		var parsed neighborsResponse
		ok := json.Unmarshal(answer, &parsed) == nil && checkHits(parsed.Results, datasetN) == nil
		if r.tr != nil && i >= warm {
			m, err := scrapeMetrics(ctx, d.cl)
			if err != nil {
				d.stop()
				return err
			}
			bootReported = append(bootReported, 1000*sumSeries(m, "ehnad_boot_seconds"))
		}
		d.stop()
		if i < warm {
			continue
		}
		c, m := d.rusage()
		cpu += c
		rss = append(rss, m)
		win.add(opSample{int64(t0), int64(t1), true})
		out.attempted++
		if ok {
			recallSum += recallOf(parsed.Results, probe.IDs)
		} else {
			out.fail(1)
		}
	}
	w, err := win.finish(1)
	if err != nil {
		return err
	}
	r.phase("window", windowStart)
	r.setWindow(out, w)
	out.set("rss_mb", median(rss))
	out.setRecall(recallSum / float64(r.sz.restarts)) // of the first answer after each boot
	if r.tr != nil {
		reported := median(bootReported)
		out.set("ehnad.boot_reported_ms", reported)
		out.set("ehnad.spawn_residual_ms", w.p50ms-reported)
		return traceRestart(r, out, art)
	}
	return nil
}

// scrapeMetrics reads the daemon's /metrics into series → value, the
// series being the metric name with its label set as printed.
func scrapeMetrics(ctx context.Context, cl *client) (map[string]float64, error) {
	status, body, err := cl.get(ctx, "/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", status, err)
	}
	return parseMetrics(string(body)), nil
}

// parseMetrics reads the Prometheus text exposition format.
func parseMetrics(body string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// sumSeries adds up every label set of one metric name.
func sumSeries(m map[string]float64, name string) float64 {
	var sum float64
	for series, v := range m {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}
