// Metrics wiring for the daemon. Two registries feed /metrics:
//
//   - obs.Default() carries process-wide series owned by the library
//     packages (ann query/stage metrics, wal append/fsync latency, Go
//     runtime stats) plus the daemon-level histograms below — all
//     cumulative, so several servers in one test process can share
//     them harmlessly.
//   - Each server owns a private registry of instance gauges (store
//     shape, graph shape, WAL/snapshot state, in-flight requests)
//     and its per-endpoint HTTP series. Gauges describe *this*
//     server, so they cannot live on a process-wide registry without
//     two test servers clobbering each other.
//
// /healthz reads the same gauges through Registry.GaugeValue — the
// registry is the one source of truth, the JSON report just a second
// rendering of it.
package main

import (
	"net/http"
	"strconv"
	"time"

	"ehna/internal/ann"
	"ehna/internal/obs"
	"ehna/internal/vecmath"
)

// Daemon-level histograms and counters on the process-wide registry.
var (
	snapshotHist = obs.Default().Histogram("ehnad_snapshot_seconds",
		"Duration of one snapshot rotation (WAL rotate + store/graph save).")
	shedInflight = obs.Default().Counter("ehnad_requests_shed_total",
		"Requests refused at admission, by reason.", obs.L("reason", "inflight"))
)

// serverMetrics is one server instance's registry plus the helpers the
// handlers use against it.
type serverMetrics struct {
	reg *obs.Registry
}

// gauge reads a registered gauge by name, 0 when absent.
func (m *serverMetrics) gauge(name string) float64 {
	v, _ := m.reg.GaugeValue(name)
	return v
}

// newServerMetrics builds the per-server registry and registers the
// store/index/admission gauges. Durability gauges join later, once the
// WAL layer exists (buildServer calls durable.registerMetrics).
func newServerMetrics(s *server) *serverMetrics {
	obs.RegisterRuntime() // idempotent; runtime + build info on the default registry
	obs.RegisterProcess() // idempotent; /proc/self memory + major-fault gauges (linux)
	m := &serverMetrics{reg: obs.NewRegistry()}
	r := m.reg
	r.GaugeFunc("ehnad_store_nodes", "Vectors in the store.",
		func() float64 { return float64(s.store.Len()) })
	r.GaugeFunc("ehnad_store_dim", "Vector dimensionality.",
		func() float64 { return float64(s.store.Dim()) })
	r.GaugeFunc("ehnad_store_bytes_per_vector", "Slab bytes per stored vector (payload + sidecars).",
		func() float64 { return float64(s.store.Precision().BytesPerVector(s.store.Dim())) })
	// Store residency mode as an info gauge, plus — in mmap mode — the
	// cold tier's shape: how much of the mapped base the page cache
	// actually holds right now, and how much heap the write overlay has
	// accumulated since the last rotation folded it.
	mode := "ram"
	if s.store.Cold() {
		mode = "mmap"
	}
	r.Gauge("ehnad_store_mode", "Store residency mode (identity in the mode label): ram or mmap.",
		obs.L("mode", mode)).Set(1)
	if s.store.Cold() {
		r.GaugeFunc("ehnad_store_mapped_bytes", "Bytes of the v3 snapshot currently mmap'd as the cold base.",
			func() float64 { return float64(s.store.MappedBytes()) })
		r.GaugeFunc("ehnad_store_mapped_payload_bytes", "Vector-slab bytes inside the mapping (excludes ids, norms, padding).",
			func() float64 { return float64(s.store.MappedPayloadBytes()) })
		r.GaugeFunc("ehnad_store_mapped_resident_bytes", "Mapped bytes resident in the page cache right now (mincore; -1 = unknown).",
			func() float64 { return float64(s.store.MappedResidentBytes()) })
		r.GaugeFunc("ehnad_store_overlay_vectors", "Vectors in the heap overlay awaiting the next rotation fold.",
			func() float64 { v, _, _ := s.store.OverlayStats(); return float64(v) })
		r.GaugeFunc("ehnad_store_overlay_bytes", "Heap bytes the overlay slabs hold.",
			func() float64 { _, b, _ := s.store.OverlayStats(); return float64(b) })
		r.GaugeFunc("ehnad_store_base_masked", "Base rows shadowed by an overlay write or delete.",
			func() float64 { _, _, m := s.store.OverlayStats(); return float64(m) })
	}
	r.GaugeFunc("ehnad_uptime_seconds", "Seconds since this server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	// Info gauge (constant 1, identity in the label): which vecmath
	// kernel backend the distance computations run on — "avx2", "neon"
	// or "scalar". A deployment alerting on this catches a daemon that
	// silently booted on the slow path (wrong build tag, EHNA_NOSIMD
	// left set, unexpected hardware).
	r.Gauge("ehnad_kernel_backend", "Active vecmath kernel backend (identity in the backend label).",
		obs.L("backend", vecmath.Backend())).Set(1)
	r.GaugeFunc("ehnad_inflight_requests", "/v1/neighbors requests holding a -max-inflight slot (0 when uncapped).",
		func() float64 { return float64(len(s.inflight)) })
	r.GaugeFunc("ehnad_ef_search_current", "ef-search the degrader currently applies (0 = degrader inactive).",
		func() float64 { return float64(s.deg.efNow()) })
	r.GaugeFunc("ehnad_degraded", "1 while searches run below the configured ef-search beam.",
		func() float64 { return one(s.deg.degradedNow()) })

	// Graph gauges report zero when the index is not HNSW.
	h, _ := s.index.(*ann.HNSW)
	graphStat := func(pick func(alive, tombstones, maxLevel int) float64) func() float64 {
		return func() float64 {
			if h == nil {
				return 0
			}
			return pick(h.Stats())
		}
	}
	r.GaugeFunc("ehnad_graph_nodes", "Live (non-tombstoned) HNSW graph nodes.",
		graphStat(func(alive, _, _ int) float64 { return float64(alive) }))
	r.GaugeFunc("ehnad_graph_tombstones", "Free graph slots awaiting reuse.",
		graphStat(func(_, tombstones, _ int) float64 { return float64(tombstones) }))
	r.GaugeFunc("ehnad_graph_layers", "HNSW graph layers.",
		graphStat(func(_, _, maxLevel int) float64 { return float64(maxLevel + 1) }))
	return m
}

// statusWriter captures the response status for the request counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route with a latency histogram and per-status-
// class counters, all labeled by path. Instruments are resolved once
// at mux-build time, so a request pays two atomic adds and one
// statusWriter allocation — noise next to its JSON decode.
func (m *serverMetrics) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	lat := m.reg.Histogram("ehnad_http_request_seconds",
		"HTTP request latency by endpoint.", obs.L("path", path))
	const helpReq = "HTTP requests by endpoint and status class."
	codes := [6]*obs.Counter{}
	for i := 1; i <= 5; i++ {
		codes[i] = m.reg.Counter("ehnad_http_requests_total", helpReq,
			obs.L("path", path), obs.L("code", strconv.Itoa(i)+"xx"))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		lat.ObserveSince(start)
		if class := sw.status / 100; class >= 1 && class <= 5 {
			codes[class].Inc()
		}
	}
}

// registerMetrics exposes the durability layer's state as gauges on
// the server registry: the WAL instance gauges plus snapshot and replay
// state. Called once the layer exists.
func (d *durable) registerMetrics(r *obs.Registry) {
	d.reg = r // heal() re-registers the WAL gauges against the fresh log
	d.wal().RegisterMetrics(r)
	r.GaugeFunc("ehnad_read_only", "1 while the daemon is in read-only degraded mode (WAL unavailable).",
		func() float64 { return one(!d.node.load().writable()) })
	r.GaugeFunc("ehnad_read_only_since_unix", "Unix time read-only mode was entered (0 = writable).",
		func() float64 { return float64(d.node.load().since) })
	r.GaugeFunc("ehnad_wal_heal_attempts", "WAL reopen-and-probe attempts made while read-only.",
		func() float64 { return float64(d.healAttempts.Load()) })
	r.GaugeFunc("ehnad_wal_heals", "Successful WAL heals (read-only mode exits) since boot.",
		func() float64 { return float64(d.heals.Load()) })
	r.GaugeFunc("ehnad_snapshot_watermark", "WAL sequence the newest snapshot pair covers.",
		func() float64 { return float64(d.watermark.Load()) })
	r.GaugeFunc("ehnad_snapshot_count", "Snapshot rotations completed since boot.",
		func() float64 { return float64(d.snapshots.Load()) })
	r.GaugeFunc("ehnad_snapshot_last_unix", "Unix time of the last snapshot rotation (0 = never).",
		func() float64 { return float64(d.lastSnapshot.Load()) })
	r.GaugeFunc("ehnad_snapshot_error_count", "Failed snapshot rotations since boot.",
		func() float64 { return float64(d.snapshotErrs.Load()) })
	r.GaugeFunc("ehnad_snapshot_interval_seconds", "Background snapshot rotation period (0 = disabled).",
		func() float64 { return d.interval.Seconds() })
	r.GaugeFunc("ehnad_replayed_records", "WAL records replayed at boot.",
		func() float64 { return float64(d.replayed) })
	r.GaugeFunc("ehnad_replay_torn_tail", "1 when boot replay truncated a torn WAL tail.",
		func() float64 { return one(d.replayTorn) })
}

// one is a gauge's reading of a condition: 1 when it holds.
func one(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
