// Command ehnad is the online embedding-serving daemon: it loads a
// snapshot of trained embeddings into an in-memory (or mapped) store,
// builds an ANN index over it, and answers HTTP/JSON queries.
//
// Endpoints:
//
//	POST /v1/neighbors       top-k similar nodes, by stored id or raw vector,
//	                         one query or a "queries":[...] batch
//	POST /v1/score           pairwise link-prediction score under a Table II
//	                         edge operator (hadamard sum = dot product)
//	POST /v1/upsert          insert/replace vectors (logged when there is a WAL,
//	                         then store + index; acks then carry the WAL seq)
//	POST /v1/delete          remove vectors (same path)
//	GET  /v1/vector          resolve one stored id to its vector (router id-queries)
//	GET  /v1/export          stream a v3 embstore snapshot of the live store
//	                         (watermark-stamped with -wal; follower bootstrap source)
//	GET  /v1/repl/stream     (with -wal) ship framed WAL records to a follower
//	GET  /v1/repl/status     role + replication watermarks
//	POST /v1/admin/promote   leave follower mode; returns the applied watermark
//	POST /v1/admin/snapshot  (with -wal) rotate a snapshot now
//	GET  /healthz            liveness + store/index/durability stats
//	GET  /readyz             readiness: 503 with the reasons while draining
//	                         or read-only (WAL unavailable), else 200
//	GET  /metrics            Prometheus text exposition (server gauges, then
//	                         the ann/wal histograms and runtime stats)
//	GET  /debug/pprof/       (with -pprof) live CPU/heap/mutex profiling
//
// What it serves (openStore, one resolution order for every mode):
// the base file is DIR/store.snap when -wal DIR holds one — the
// snapshot the daemon itself rotates — else -snapshot (a v3 embstore
// snapshot written by Store.SaveSnapshotV3: the attention-aggregated
// InferAll embeddings exported by `ehna train -snapshot` or
// examples/serving, a /v1/export download, ehnad-mkstore output). With
// no base file the store starts empty at -dim. -store ram then loads
// the base into heap slabs; -store mmap maps it and serves in place,
// first publishing DIR/store.snap when what it was given is a seed or
// is encoded at another precision than -precision.
//
// One write path: every mutation — an HTTP upsert or delete, a WAL
// record replayed at boot, a batch from a leader's replication stream —
// goes through one applier (cmd/ehnad/durability.go) that logs it, then
// applies it to store + index, then waits for the log to be durable
// before acknowledging. The log is optional. With -wal DIR the daemon
// is a system of record, not a cache: records are fsynced per -fsync,
// snapshots of store + HNSW graph rotate in the background every
// -snapshot-interval (tmp+rename, WAL truncated to the snapshot
// watermark; the graph file holds live slots only), and a boot replays
// the WAL suffix over the newest snapshot pair. The HNSW graph needs no
// maintenance of its own: an insert reuses the slot a delete or
// overwrite freed. Without -wal the same applier
// runs with the logging steps dropped out: acks carry no seq, nothing
// survives a restart. See durability.go for the recovery invariants.
//
// Index selection: -index hnsw (graph search, the default — sublinear
// at 100k+ nodes) or exact (ground truth, linear scan). With -index
// hnsw, -hnsw-graph names a graph file (ann.SaveGraph's flat, CRC32C-
// checked link structure): loaded when present so the daemon boots
// without rebuilding, written after a fresh build otherwise (with -wal
// it defaults to DIR/graph.gob — a name kept from the gob format that
// file used to hold). A gob graph from an older version is refused
// (ann.ErrGobGraph); with -wal that is a logged rebuild which rewrites
// the file, without it boot fails.
//
// Precision: the vector slab layout is float32 (f32, the default for a
// new store) or int8 scalar quantization (sq8: ~4x less vector memory
// again; searches score quantized rows against the full-precision
// query with a widened beam, recall@10 ≥ 0.95 gated in CI). With
// -precision unset the daemon serves its base snapshot at the
// precision it was written in; -precision f32|sq8 converts the base
// on load (or picks the layout of a new store). A float64 snapshot
// written by an older version converts to f32. WAL records always
// carry full-precision vectors, so durability semantics are unchanged.
// /healthz reports precision and bytes_per_vector, the one copy of each
// vector: an hnsw graph reads the store's rows.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ehna/internal/ann"
	"ehna/internal/embstore"
	"ehna/internal/faultfs"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		snapshot  = flag.String("snapshot", "", "path to a v3 embstore snapshot (ehna train -snapshot, Store.SaveSnapshotV3, /v1/export, ehnad-mkstore)")
		dim       = flag.Int("dim", 0, "boot an empty store of this dimensionality when there is no snapshot to load")
		precision = flag.String("precision", "", "vector slab precision: f32 (float32 rows) or sq8 (int8 scalar quantization, ~4x less memory; recall gated >= 0.95). Unset: serve the snapshot at the precision it was written in, a new store at f32. Set: convert the snapshot to this layout on load. WAL records stay full-precision")
		storeMode = flag.String("store", "ram", "store residency: ram (heap slabs, fastest) or mmap (serve the vector slabs straight from a mapped v3 snapshot; boot is O(1) in dataset size and the OS pages vectors in on demand, so the set can exceed RAM)")
		indexKind = flag.String("index", "hnsw", "ann index: exact or hnsw")
		m         = flag.Int("m", 16, "hnsw: graph degree M (layer 0 allows 2M links)")
		efCons    = flag.Int("ef-construction", 200, "hnsw: build-time beam width")
		efSearch  = flag.Int("ef-search", 64, "hnsw: query-time beam width (recall/latency dial)")
		hnswGraph = flag.String("hnsw-graph", "", "hnsw: graph snapshot path — loaded if present (boot without rebuild), written after a fresh build otherwise")
		metric    = flag.String("metric", "cosine", "similarity metric: cosine or dot")
		_         = flag.Duration("batch-window", 0, "ignored; a single query is searched on its own request")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for live profiling")
		walDir    = flag.String("wal", "", "write-ahead-log directory: makes writes durable and enables snapshot rotation")
		fsync     = flag.String("fsync", "always", "wal fsync policy: always (group commit, crash-safe), never, or a flush interval like 100ms")
		snapEvery = flag.Duration("snapshot-interval", 5*time.Minute, "wal: background snapshot rotation period (0 disables; snapshots can still be forced via /v1/admin/snapshot)")
		_         = flag.Float64("compact-at", 0, "ignored; dead slots are reused in place")
		deadline  = flag.Duration("default-deadline", 2*time.Second, "per-request time budget when the client sends none (deadline_ms field or X-Ehnad-Deadline-Ms header override; 0 disables)")
		inflight  = flag.Int("max-inflight", 256, "max concurrently served /v1/neighbors requests; excess sheds with 429 (0 = unlimited)")
		efFloor   = flag.Int("ef-floor", 16, "hnsw: lowest ef-search the overload degrader may shrink the beam to while -max-inflight stays over 3/4 full (0 disables adaptation)")
		faultSpec = flag.String("fault", "", `wal fault-injection spec for chaos drills, e.g. "sync:after=100,count=3;write:enospc,p=0.01,seed=7" (see internal/faultfs)`)
		follow    = flag.String("follow", "", "run as a replication follower of this leader base URL (requires -wal): bootstrap from its /v1/export if the WAL dir is empty, tail its /v1/repl/stream, refuse writes until promoted via /v1/admin/promote")
	)
	flag.Parse()

	var fsys faultfs.FS
	if *faultSpec != "" {
		inj, err := faultfs.Parse(*faultSpec, faultfs.OS())
		if err != nil {
			log.Fatalf("ehnad: -fault: %v", err)
		}
		fsys = inj
		log.Printf("ehnad: WAL fault injection armed: %s", *faultSpec)
	}

	mt, err := ann.ParseMetric(*metric)
	if err != nil {
		log.Fatalf("ehnad: %v", err)
	}
	prec, err := embstore.ParsePrecision(*precision)
	if err != nil {
		log.Fatalf("ehnad: %v", err)
	}
	srv, err := buildServer(serverConfig{
		snapshot:  *snapshot,
		dim:       *dim,
		precision: prec,
		storeMode: *storeMode,
		index: indexOptions{
			kind:           *indexKind,
			metric:         mt,
			m:              *m,
			efConstruction: *efCons,
			efSearch:       *efSearch,
			graphPath:      *hnswGraph,
		},
		pprof:            *pprofOn,
		walDir:           *walDir,
		fsync:            *fsync,
		snapshotInterval: *snapEvery,
		defaultDeadline:  *deadline,
		maxInflight:      *inflight,
		efFloor:          *efFloor,
		fs:               fsys,
		follow:           *follow,
	})
	if err != nil {
		log.Fatalf("ehnad: %v", err)
	}
	log.Printf("ehnad: store loaded: %d nodes × %d dims at %s (%d bytes/vector), %s index (%s metric)",
		srv.store.Len(), srv.store.Dim(), srv.store.Precision(),
		srv.store.Precision().BytesPerVector(srv.store.Dim()), *indexKind, mt)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.close()
		log.Fatalf("ehnad: %v", err)
	}
	if *pprofOn {
		log.Printf("ehnad: pprof mounted at %s/debug/pprof/", *addr)
	}
	if err := runDaemon(srv, ln); err != nil {
		srv.close()
		log.Fatalf("ehnad: %v", err)
	}
}

// runDaemon serves srv on ln until SIGTERM/SIGINT, then exits
// gracefully: stop accepting and drain in-flight HTTP (readiness flips
// not-ready first, so balancers stop routing), fsync the WAL, and
// rotate a final snapshot pair if the node was serving, so the next
// boot replays zero records. Shared with the crash-test helper so the
// signal path under test is the production one.
func runDaemon(srv *server, ln net.Listener) error {
	httpSrv := &http.Server{Handler: srv.handler()}
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// Logged after Notify: a SIGTERM sent once this line is out drains
	// the daemon instead of killing it.
	log.Printf("ehnad: listening on %s", ln.Addr())
	go func() {
		left := srv.dur.node.drain("signal: " + (<-sig).String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		srv.teardown(left == phaseServing)
		close(done)
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	<-done
	log.Print("ehnad: shutdown complete")
	return nil
}

// serverConfig is everything buildServer needs: the flag set, parsed.
// Factored out of main so the crash-recovery tests can boot the exact
// daemon stack in-process and as a helper process.
type serverConfig struct {
	snapshot  string
	dim       int
	precision embstore.Precision // zero: follow the base snapshot, f32 for a new store
	storeMode string             // "" or "ram" (heap slabs) | "mmap" (mapped v3 base + overlay)
	index     indexOptions
	pprof     bool

	walDir           string
	fsync            string
	snapshotInterval time.Duration

	// Overload-control plane (zero values = permissive defaults that
	// keep existing tests and embedders behaving as before).
	defaultDeadline time.Duration // per-request budget when the client sends none (0 = none)
	maxInflight     int           // concurrent /v1/neighbors cap (0 = unlimited)
	efFloor         int           // lowest ef-search the degrader may shrink to (0 = off)
	fs              faultfs.FS    // nil = the real filesystem

	// follow makes the daemon a replication follower of this leader URL
	// (requires walDir; see cmd/ehnad/replica.go).
	follow string
}

// fsys is the filesystem the daemon's persistent state goes through.
func (cfg serverConfig) fsys() faultfs.FS {
	if cfg.fs != nil {
		return cfg.fs
	}
	return faultfs.OS()
}

// buildServer boots the daemon: resolve and open the store, load or
// build the index, assemble the server, and — with a WAL dir — replay
// the log suffix, open the log and start the maintenance loop.
func buildServer(cfg serverConfig) (*server, error) {
	bootStart := time.Now()
	if cfg.storeMode == "" {
		cfg.storeMode = "ram"
	}
	if cfg.storeMode != "ram" && cfg.storeMode != "mmap" {
		return nil, fmt.Errorf("-store=%s: want ram or mmap", cfg.storeMode)
	}
	if cfg.follow != "" && cfg.walDir == "" {
		return nil, fmt.Errorf("-follow requires -wal: a follower preserves the leader's log")
	}
	if cfg.walDir != "" {
		// The snapshot pair and the graph land in the log directory,
		// possibly before wal.Open creates it — make it exist first.
		if err := os.MkdirAll(cfg.walDir, 0o755); err != nil {
			return nil, err
		}
		// A brand-new follower seeds its snapshot from the leader before
		// the store is resolved below.
		if cfg.follow != "" {
			if err := bootstrapFollower(cfg); err != nil {
				return nil, err
			}
		}
		if cfg.index.kind == "hnsw" && cfg.index.graphPath == "" {
			cfg.index.graphPath = filepath.Join(cfg.walDir, "graph.gob")
		}
		cfg.index.rebuildOnLoadError = true // a stale graph is survivable, not fatal
	}
	store, watermark, err := openStore(cfg)
	if err != nil {
		return nil, err
	}
	storeLoaded := time.Now()

	index, err := buildIndex(store, cfg.index)
	if err != nil {
		return nil, err
	}
	indexBuilt := time.Now()
	srv := newServer(cfg, store, index)
	if cfg.pprof {
		// Sampled mutex/block profiles so /debug/pprof/mutex and /block
		// carry data. 1-in-100 contention events and blocking events
		// over ~1ms keep the overhead invisible next to a search.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Millisecond))
	}
	if cfg.walDir != "" {
		if err := srv.dur.openLog(cfg, watermark); err != nil {
			srv.close()
			return nil, err
		}
		srv.dur.registerMetrics(srv.metrics.reg)
		if cfg.follow != "" {
			srv.repl = newReplica(cfg.follow, srv.dur)
			srv.repl.registerMetrics(srv.metrics.reg)
		}
	}
	boot := time.Since(bootStart)
	srv.metrics.reg.Gauge("ehnad_boot_seconds",
		"Wall time from process start to ready: store load + index build + WAL recovery.").Set(boot.Seconds())
	log.Printf("ehnad: boot %v (store %v [%s], index %v, recovery %v)",
		boot.Round(time.Millisecond), storeLoaded.Sub(bootStart).Round(time.Millisecond), cfg.storeMode,
		indexBuilt.Sub(storeLoaded).Round(time.Millisecond), time.Since(indexBuilt).Round(time.Millisecond))
	return srv, nil
}

// walSnapshotV3Path is where the rotating flat v3 snapshot lives in WAL
// mode: the file the mmap store serves straight out of.
func walSnapshotV3Path(walDir string) string { return filepath.Join(walDir, "store.snap") }

// openStore resolves what the daemon serves from and opens it, returning
// the store and the WAL watermark its image covers. One order, every
// mode:
//
//  1. The base file is DIR/store.snap — the snapshot this daemon rotates
//     — when -wal DIR holds one, else -snapshot. A -snapshot given beside
//     -wal only seeds the first boot: whatever watermark it was stamped
//     with belongs to another log, so it counts as 0 here.
//  2. With no base file, seed an empty heap store from -dim.
//  3. Open it, at -precision or — unset — at the precision the base was
//     written in (f32 for a new store and for a legacy float64 base,
//     which no store serves as is). -store ram loads the base into heap
//     slabs. -store mmap maps the base and serves it in place; when the
//     file to map does not exist yet (a seed) or must be rewritten (a
//     -snapshot that has to land under DIR, a base at another precision
//     than the one to serve — a read-only mapping cannot be re-encoded
//     in place), the store goes through the heap first and is published
//     as DIR/store.snap, which is then mapped. Without -wal there is no
//     DIR to publish to: -store mmap needs a -snapshot and serves it at
//     the precision it was written in.
//
// Rotation keeps DIR/store.snap fresh from then on.
func openStore(cfg serverConfig) (*embstore.Store, uint64, error) {
	mmapMode := cfg.storeMode == "mmap"
	own, base := "", cfg.snapshot
	if cfg.walDir != "" {
		own = walSnapshotV3Path(cfg.walDir)
		if _, err := os.Stat(own); err == nil {
			base = own
		} else if !os.IsNotExist(err) {
			return nil, 0, err
		}
	}
	if mmapMode && own == "" && base == "" {
		return nil, 0, fmt.Errorf("-store=mmap without -wal requires -snapshot pointing at a v3 snapshot (SaveSnapshotV3 output)")
	}
	var (
		heap      *embstore.Store
		watermark uint64
		err       error
	)
	if base == "" {
		if cfg.dim <= 0 {
			return nil, 0, fmt.Errorf("nothing to serve: pass -snapshot (embstore snapshot), or -dim to boot empty")
		}
		prec := cfg.precision
		if prec == 0 {
			prec = embstore.F32
		}
		if heap, err = embstore.New(cfg.dim, prec); err != nil {
			return nil, 0, err
		}
	}
	// Step 3. At most two passes: the second only when the mapped base
	// turns out to be at another precision and has to be re-published.
	viaHeap := !mmapMode || (own != "" && base != own)
	for {
		if heap == nil && viaHeap {
			if heap, watermark, err = loadHeapStore(base, cfg.precision); err != nil {
				return nil, 0, fmt.Errorf("load snapshot %s: %w", base, err)
			}
			if base != own {
				watermark = 0
			}
		}
		if !mmapMode {
			log.Printf("ehnad: store in heap slabs: %d nodes at %s, watermark %d", heap.Len(), heap.Precision(), watermark)
			return heap, watermark, nil
		}
		if heap != nil {
			if err := writeStoreSnapshotV3(cfg.fsys(), own, heap, watermark); err != nil {
				return nil, 0, fmt.Errorf("publish v3 base %s at %s: %w", own, heap.Precision(), err)
			}
			base, heap, viaHeap = own, nil, false
		}
		var cold *embstore.Store
		cold, watermark, err = embstore.OpenMmap(base)
		if errors.Is(err, embstore.ErrF64Snapshot) && own != "" {
			log.Printf("ehnad: snapshot %s is a legacy float64 image: re-encoding and remapping", base)
			viaHeap = true
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("load snapshot %s: %w", base, err)
		}
		switch {
		case cfg.precision == 0 || cold.Precision() == cfg.precision:
		case own == "":
			log.Printf("ehnad: -store=mmap serves %s at its native precision %s (-precision %s has no effect without -wal)",
				base, cold.Precision(), cfg.precision)
		default:
			log.Printf("ehnad: snapshot %s is %s: re-encoding at %s and remapping", base, cold.Precision(), cfg.precision)
			cold.Close()
			viaHeap = true
			continue
		}
		log.Printf("ehnad: snapshot %s mapped: %d nodes at %s, %d bytes resident of %d mapped, watermark %d",
			base, cold.Len(), cold.Precision(), cold.MappedResidentBytes(), cold.MappedBytes(), watermark)
		return cold, watermark, nil
	}
}

// loadHeapStore loads the snapshot at path into heap slabs at prec; the
// zero prec keeps the precision the file was written in, f32 for a
// legacy float64 file.
func loadHeapStore(path string, prec embstore.Precision) (*embstore.Store, uint64, error) {
	if prec == 0 {
		s, watermark, err := embstore.LoadSnapshotV3(path, embstore.DefaultShards)
		if !errors.Is(err, embstore.ErrF64Snapshot) {
			return s, watermark, err
		}
		prec = embstore.F32
	}
	return embstore.LoadSnapshotV3At(path, prec)
}

// writeStoreSnapshotV3 publishes a flat v3 snapshot of store via the
// injectable filesystem (tmp+rename, fsynced).
func writeStoreSnapshotV3(fsys faultfs.FS, path string, store *embstore.Store, watermark uint64) error {
	return faultfs.WriteFileAtomic(fsys, path, func(f faultfs.File) error {
		return store.SaveSnapshotV3(f, watermark)
	})
}

// indexOptions carries every index-selection flag; the hnsw fields are
// consulted only for that kind.
type indexOptions struct {
	kind   string
	metric ann.Metric
	// hnsw
	m, efConstruction, efSearch int
	graphPath                   string
	// rebuildOnLoadError downgrades a corrupt/stale graph snapshot from
	// fatal to a logged rebuild. Set in WAL mode, where a crash between
	// the store and graph renames legitimately leaves the pair skewed.
	rebuildOnLoadError bool
}

func buildIndex(store *embstore.Store, o indexOptions) (ann.Index, error) {
	switch o.kind {
	case "exact":
		return ann.NewExact(store, o.metric), nil
	case "hnsw":
		return buildHNSW(store, o)
	default:
		return nil, fmt.Errorf("unknown index %q (want exact or hnsw)", o.kind)
	}
}

// buildHNSW loads the graph snapshot when one exists (boot without
// rebuild) and builds+saves it otherwise.
func buildHNSW(store *embstore.Store, o indexOptions) (ann.Index, error) {
	if o.graphPath != "" {
		if f, err := os.Open(o.graphPath); err == nil {
			h, err := loadHNSWGraph(f, store, o)
			f.Close()
			if err == nil {
				return h, nil
			}
			if !o.rebuildOnLoadError {
				return nil, err
			}
			log.Printf("ehnad: %v; rebuilding graph from the store", err)
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	start := time.Now()
	cfg := ann.DefaultHNSWConfig() // keeps the library's level-draw seed
	cfg.M, cfg.EfConstruction, cfg.EfSearch, cfg.Metric = o.m, o.efConstruction, o.efSearch, o.metric
	h, err := ann.BuildHNSW(store, cfg)
	if err != nil {
		return nil, err
	}
	alive, _, maxLevel := h.Stats()
	log.Printf("ehnad: hnsw graph built: %d nodes, %d layers in %v", alive, maxLevel+1, time.Since(start).Round(time.Millisecond))
	if o.graphPath != "" {
		// Write-then-rename so a crash mid-save cannot leave a truncated
		// snapshot that bricks every subsequent boot.
		if err := faultfs.WriteFileAtomic(faultfs.OS(), o.graphPath, func(f faultfs.File) error {
			return h.SaveGraph(f)
		}); err != nil {
			return nil, err
		}
		log.Printf("ehnad: hnsw graph saved to %s", o.graphPath)
	}
	return h, nil
}

// loadHNSWGraph loads and validates a graph snapshot against the store.
func loadHNSWGraph(f *os.File, store *embstore.Store, o indexOptions) (*ann.HNSW, error) {
	h, err := ann.LoadHNSWGraph(f, store)
	if err != nil {
		return nil, fmt.Errorf("load hnsw graph %s: %w", f.Name(), err)
	}
	// The snapshot fixes the build-time parameters (metric, M,
	// ef-construction); only -ef-search applies at load. A metric
	// mismatch would silently rank by the wrong similarity, so
	// refuse it rather than ignore the flag.
	loaded := h.Config()
	if loaded.Metric != o.metric {
		return nil, fmt.Errorf("hnsw graph %s was built with metric %s, conflicting with -metric %s (rebuild, or match the flag)",
			f.Name(), loaded.Metric, o.metric)
	}
	h.SetEfSearch(o.efSearch)
	alive, tombs, maxLevel := h.Stats()
	log.Printf("ehnad: hnsw graph loaded from %s: %d nodes (%d tombstones), %d layers, m=%d ef-construction=%d (snapshot values)",
		f.Name(), alive, tombs, maxLevel+1, loaded.M, loaded.EfConstruction)
	return h, nil
}
