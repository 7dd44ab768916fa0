// Command ehnad is the online embedding-serving daemon: it loads a
// trained embedding table into a sharded in-memory store, builds an ANN
// index over it, and answers HTTP/JSON queries.
//
// Endpoints:
//
//	POST /v1/neighbors       top-k similar nodes, by stored id or raw vector;
//	                         single queries are micro-batched server-side,
//	                         "queries":[...] batches explicitly
//	POST /v1/score           pairwise link-prediction score under a Table II
//	                         edge operator (hadamard sum = dot product)
//	POST /v1/upsert          insert/replace vectors (WAL-logged, then store + index;
//	                         acks carry the WAL seq)
//	POST /v1/delete          remove vectors (WAL-logged, then store + index)
//	GET  /v1/vector          resolve one stored id to its vector (router id-queries)
//	GET  /v1/export          stream a v3 embstore snapshot of the live store
//	                         (watermark-stamped with -wal; follower bootstrap source)
//	GET  /v1/repl/stream     (with -wal) ship framed WAL records to a follower
//	GET  /v1/repl/status     role + replication watermarks
//	POST /v1/admin/promote   leave follower mode; returns the applied watermark
//	POST /v1/admin/snapshot  (with -wal) rotate a snapshot now
//	POST /v1/admin/compact   (with -wal) rebuild the HNSW graph now, swapping
//	                         it in under live traffic
//	GET  /healthz            liveness + store/index/durability stats
//	GET  /debug/pprof/       (with -pprof) live CPU/heap/mutex profiling
//
// The embedding source is either -model (an ehna model snapshot written
// by Model.Save — serves the raw embedding table) or -snapshot (a v3
// embstore snapshot written by Store.SaveSnapshotV3 — e.g. the
// attention-aggregated InferAll embeddings exported by
// examples/serving, a /v1/export download, or ehnad-mkstore output).
//
// Durability: with -wal DIR the daemon is a system of record, not a
// cache. Every mutation is appended to a write-ahead log (fsynced per
// -fsync) before it touches the store, snapshots of store + HNSW graph
// rotate in the background every -snapshot-interval (tmp+rename, WAL
// truncated to the snapshot watermark), and the maintenance loop
// rebuilds the HNSW graph in the background once its tombstone ratio
// passes -compact-at, atomically swapping the fresh graph in while
// searches keep answering. On boot the daemon loads the newest
// snapshot pair and replays the WAL suffix; -model/-snapshot then only
// seed the very first boot, and -dim allows starting empty. See
// cmd/ehnad/durability.go for the recovery invariants.
//
// Index selection: -index hnsw (graph search, the default — sublinear
// at 100k+ nodes) or exact (ground truth, linear scan). With -index
// hnsw, -hnsw-graph names a gob snapshot of the graph structure: loaded
// when present so the daemon boots without rebuilding, written after a
// fresh build otherwise (with -wal it defaults to DIR/graph.gob).
//
// Precision: -precision f64|f32|sq8 selects the vector slab layout —
// full float64, float32 (half the memory), or int8 scalar quantization
// (~8x less vector memory; searches score quantized rows against the
// full-precision query with a widened beam, recall@10 ≥ 0.95 gated in
// CI). The precision applies per boot: snapshots of any precision
// convert to the requested layout on load, so pass the same value on
// every restart to keep the layout. WAL records always carry
// full-precision vectors, so durability semantics are unchanged.
// /healthz reports precision and bytes_per_vector (and, with -index
// hnsw, the graph slab's mirror cost under graph.slab_bytes_per_vector).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
		model     = flag.String("model", "", "path to an ehna model snapshot (Model.Save)")
		snapshot  = flag.String("snapshot", "", "path to a v3 embstore snapshot (Store.SaveSnapshotV3, /v1/export, ehnad-mkstore)")
		dim       = flag.Int("dim", 0, "with -wal: boot an empty store of this dimensionality when no snapshot or seed exists yet")
		precision = flag.String("precision", "f64", "vector slab precision: f64 (full), f32 (half the memory), or sq8 (int8 scalar quantization, ~8x less memory; recall gated >= 0.95). Applies per boot: snapshots of any precision convert to this layout on load, so pass the same value on every restart to keep the layout. WAL records stay full-precision")
		storeMode = flag.String("store", "ram", "store residency: ram (heap slabs, fastest) or mmap (serve the vector slabs straight from a mapped v3 snapshot; boot is O(1) in dataset size and the OS pages vectors in on demand, so the set can exceed RAM)")
		shards    = flag.Int("shards", embstore.DefaultShards, "store shard count")
		indexKind = flag.String("index", "hnsw", "ann index: exact or hnsw")
		m         = flag.Int("m", 16, "hnsw: graph degree M (layer 0 allows 2M links)")
		efCons    = flag.Int("ef-construction", 200, "hnsw: build-time beam width")
		efSearch  = flag.Int("ef-search", 64, "hnsw: query-time beam width (recall/latency dial)")
		hnswGraph = flag.String("hnsw-graph", "", "hnsw: graph snapshot path — loaded if present (boot without rebuild), written after a fresh build otherwise")
		seed      = flag.Int64("seed", 1, "hnsw level-draw seed")
		metric    = flag.String("metric", "cosine", "similarity metric: cosine or dot")
		maxBatch  = flag.Int("max-batch", 64, "micro-batcher: max coalesced queries")
		window    = flag.Duration("batch-window", 2*time.Millisecond, "micro-batcher: gather window (0 disables)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for live profiling")
		walDir    = flag.String("wal", "", "write-ahead-log directory: makes writes durable and enables snapshot rotation + background compaction")
		fsync     = flag.String("fsync", "always", "wal fsync policy: always (group commit, crash-safe), never, or a flush interval like 100ms")
		snapEvery = flag.Duration("snapshot-interval", 5*time.Minute, "wal: background snapshot rotation period (0 disables; snapshots can still be forced via /v1/admin/snapshot)")
		compactAt = flag.Float64("compact-at", 0.2, "hnsw+wal: tombstone ratio that triggers a background compaction rebuild (<=0 disables)")
		deadline  = flag.Duration("default-deadline", 2*time.Second, "per-request time budget when the client sends none (deadline_ms field or X-Ehnad-Deadline-Ms header override; 0 disables)")
		inflight  = flag.Int("max-inflight", 256, "max concurrently served /v1/neighbors requests; excess sheds with 429 (0 = unlimited)")
		queueCap  = flag.Int("queue-depth", 0, "micro-batcher admission queue capacity; a full queue sheds with 429 (0 = 4×max-batch)")
		efFloor   = flag.Int("ef-floor", 16, "hnsw: lowest ef-search the overload degrader may shrink the beam to under sustained queue pressure (0 disables adaptation)")
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
	if *storeMode != "ram" && *storeMode != "mmap" {
		log.Fatalf("ehnad: -store=%s: want ram or mmap", *storeMode)
	}
	srv, err := buildServer(serverConfig{
		model:     *model,
		snapshot:  *snapshot,
		dim:       *dim,
		precision: prec,
		storeMode: *storeMode,
		shards:    *shards,
		index: indexOptions{
			kind:           *indexKind,
			metric:         mt,
			seed:           *seed,
			m:              *m,
			efConstruction: *efCons,
			efSearch:       *efSearch,
			graphPath:      *hnswGraph,
		},
		maxBatch:         *maxBatch,
		window:           *window,
		pprof:            *pprofOn,
		walDir:           *walDir,
		fsync:            *fsync,
		snapshotInterval: *snapEvery,
		compactAt:        *compactAt,
		defaultDeadline:  *deadline,
		maxInflight:      *inflight,
		queueDepth:       *queueCap,
		efFloor:          *efFloor,
		fs:               fsys,
		follow:           *follow,
	})
	if err != nil {
		log.Fatalf("ehnad: %v", err)
	}
	log.Printf("ehnad: store loaded: %d nodes × %d dims across %d shards at %s (%d bytes/vector), %s index (%s metric)",
		srv.store.Len(), srv.store.Dim(), srv.store.NumShards(),
		srv.store.Precision(), srv.store.Precision().BytesPerVector(srv.store.Dim()), *indexKind, mt)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.close()
		log.Fatalf("ehnad: %v", err)
	}
	if *pprofOn {
		log.Printf("ehnad: pprof mounted at %s/debug/pprof/", *addr)
	}
	log.Printf("ehnad: listening on %s", *addr)
	if err := runDaemon(srv, ln); err != nil {
		srv.close()
		log.Fatalf("ehnad: %v", err)
	}
}

// runDaemon serves srv on ln until SIGTERM/SIGINT, then exits
// gracefully: stop accepting and drain in-flight HTTP (readiness flips
// not-ready first, so balancers stop routing), drain the micro-batcher,
// fsync the WAL, and rotate a final snapshot pair — a clean exit
// replays zero records on the next boot. Shared with the crash-test
// helper process so the signal path under test is the production one.
func runDaemon(srv *server, ln net.Listener) error {
	httpSrv := &http.Server{Handler: srv.handler()}
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("ehnad: shutting down: draining requests, flushing WAL, rotating final snapshot")
		srv.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		srv.shutdown()
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
	model     string
	snapshot  string
	dim       int
	precision embstore.Precision
	storeMode string // "" or "ram" (heap slabs) | "mmap" (mapped v3 base + overlay)
	shards    int
	index     indexOptions
	maxBatch  int
	window    time.Duration
	pprof     bool

	walDir           string
	fsync            string
	snapshotInterval time.Duration
	compactAt        float64

	// Overload-control plane (zero values = permissive defaults that
	// keep existing tests and embedders behaving as before).
	defaultDeadline time.Duration
	maxInflight     int
	queueDepth      int
	efFloor         int
	fs              faultfs.FS // nil = the real filesystem

	// follow makes the daemon a replication follower of this leader URL
	// (requires walDir; see cmd/ehnad/replica.go).
	follow string
}

// buildServer assembles store, index and (with a WAL dir) the
// durability layer: snapshot + WAL-replay recovery on the way up, the
// write-ahead applier and the maintenance loop once running.
func buildServer(cfg serverConfig) (*server, error) {
	var (
		store     *embstore.Store
		watermark uint64
		err       error
	)
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
	fsys := cfg.fs
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if cfg.walDir != "" {
		// The snapshot pair and the graph land in the log directory,
		// possibly before wal.Open creates it — make it exist first.
		if err := os.MkdirAll(cfg.walDir, 0o755); err != nil {
			return nil, err
		}
		// A brand-new follower seeds its snapshot from the leader before
		// the normal load below.
		if cfg.follow != "" {
			if err := bootstrapFollower(cfg); err != nil {
				return nil, err
			}
		}
		// In WAL mode the rotating snapshot pair lives in the log
		// directory and takes precedence over any seed artifact.
		if cfg.index.kind == "hnsw" && cfg.index.graphPath == "" {
			cfg.index.graphPath = filepath.Join(cfg.walDir, "graph.gob")
		}
		cfg.index.rebuildOnLoadError = true // a stale graph is survivable, not fatal
		store, watermark, err = loadWALStore(cfg, fsys)
		if err != nil {
			return nil, err
		}
	} else if cfg.storeMode == "mmap" {
		// Without a WAL there is no rotation to write a v3 base, so the
		// seed artifact itself must already be one.
		if cfg.snapshot == "" {
			return nil, fmt.Errorf("-store=mmap without -wal requires -snapshot pointing at a v3 snapshot (SaveSnapshotV3 output)")
		}
		store, _, err = embstore.OpenMmap(cfg.snapshot)
		if err != nil {
			return nil, fmt.Errorf("-snapshot %s: %w", cfg.snapshot, err)
		}
		if store.Precision() != cfg.precision {
			// A mapped base serves at the precision it was written in; the
			// flag cannot re-encode a read-only file.
			log.Printf("ehnad: -store=mmap serves %s at its native precision %s (-precision %s has no effect without -wal)",
				cfg.snapshot, store.Precision(), cfg.precision)
		}
	} else {
		store, err = loadStore(cfg.model, cfg.snapshot, cfg.shards, cfg.precision)
		if err != nil {
			return nil, err
		}
	}
	storeLoaded := time.Now()

	index, err := buildIndex(store, cfg.index)
	if err != nil {
		return nil, err
	}
	indexBuilt := time.Now()
	sw := ann.NewSwapper(index)
	srv := newServer(store, sw, cfg.index.kind, cfg.maxBatch, cfg.window, serveOpts{
		defaultDeadline: cfg.defaultDeadline,
		maxInflight:     cfg.maxInflight,
		queueDepth:      cfg.queueDepth,
		efFloor:         cfg.efFloor,
	})
	srv.pprof = cfg.pprof
	if cfg.pprof {
		// Sampled mutex/block profiles so /debug/pprof/mutex and /block
		// carry data. 1-in-100 contention events and blocking events
		// over ~1ms keep the overhead invisible next to a search.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Millisecond))
	}
	if cfg.walDir != "" {
		srv.dur, err = newDurable(cfg, store, sw, watermark)
		if err != nil {
			srv.close()
			return nil, err
		}
		srv.dur.registerMetrics(srv.metrics.reg)
		if cfg.follow != "" {
			srv.repl = newReplica(cfg.follow, srv.dur)
			srv.repl.registerMetrics(srv.metrics.reg)
			srv.repl.start()
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

// loadWALStore loads the store for a WAL directory from its rotating
// v3 snapshot, falling back to the seed artifacts on the first boot.
// The matrix by mode:
//
//	store.snap exists: ram → copy it into heap slabs at -precision;
//	                   mmap → map it (precision mismatch: materialize
//	                   at the requested precision, rewrite the base,
//	                   map the rewrite).
//	no snapshot yet:   seed from -model/-snapshot/-dim; mmap writes a
//	                   v3 base from the seed now and maps it, so the
//	                   cold tier exists from the first boot.
//
// Rotation keeps the v3 base fresh from then on.
func loadWALStore(cfg serverConfig, fsys faultfs.FS) (*embstore.Store, uint64, error) {
	v3Path := walSnapshotV3Path(cfg.walDir)
	mmapMode := cfg.storeMode == "mmap"
	if _, serr := os.Stat(v3Path); serr == nil {
		if !mmapMode {
			store, watermark, err := embstore.LoadSnapshotV3At(v3Path, cfg.shards, cfg.precision)
			if err != nil {
				return nil, 0, fmt.Errorf("load wal snapshot %s: %w", v3Path, err)
			}
			log.Printf("ehnad: wal snapshot %s loaded: %d nodes at %s, watermark %d",
				v3Path, store.Len(), store.Precision(), watermark)
			return store, watermark, nil
		}
		store, watermark, err := embstore.OpenMmap(v3Path)
		if err != nil {
			return nil, 0, fmt.Errorf("load wal snapshot %s: %w", v3Path, err)
		}
		if store.Precision() != cfg.precision {
			// A precision switch cannot re-encode the read-only mapping in
			// place: materialize at the target precision, publish the
			// re-encoded base, and map that instead.
			store.Close()
			conv, wm, err := embstore.LoadSnapshotV3At(v3Path, cfg.shards, cfg.precision)
			if err != nil {
				return nil, 0, fmt.Errorf("load wal snapshot %s: %w", v3Path, err)
			}
			if err := writeStoreSnapshotV3(fsys, v3Path, conv, wm); err != nil {
				return nil, 0, fmt.Errorf("rewrite wal snapshot at %s: %w", conv.Precision(), err)
			}
			store, watermark, err = embstore.OpenMmap(v3Path)
			if err != nil {
				return nil, 0, fmt.Errorf("load wal snapshot %s: %w", v3Path, err)
			}
			log.Printf("ehnad: wal snapshot %s re-encoded at %s and remapped", v3Path, store.Precision())
		}
		log.Printf("ehnad: wal snapshot %s mapped: %d nodes at %s, %d bytes resident of %d mapped, watermark %d",
			v3Path, store.Len(), store.Precision(), store.MappedResidentBytes(), store.MappedBytes(), watermark)
		return store, watermark, nil
	} else if !os.IsNotExist(serr) {
		return nil, 0, serr
	}

	store, err := seedStore(cfg)
	if err != nil {
		return nil, 0, err
	}
	if !mmapMode {
		return store, 0, nil
	}
	// mmap mode needs an on-disk v3 base to serve from; write one from
	// the seeded store and reopen it cold. The WAL replays into the
	// overlay from watermark 0 as usual.
	if err := writeStoreSnapshotV3(fsys, v3Path, store, 0); err != nil {
		return nil, 0, fmt.Errorf("write v3 base %s: %w", v3Path, err)
	}
	cold, watermark, err := embstore.OpenMmap(v3Path)
	if err != nil {
		return nil, 0, fmt.Errorf("load wal snapshot %s: %w", v3Path, err)
	}
	log.Printf("ehnad: v3 base %s written and mapped: %d nodes at %s, watermark %d",
		v3Path, cold.Len(), cold.Precision(), watermark)
	return cold, watermark, nil
}

// writeStoreSnapshotV3 publishes a flat v3 snapshot of store via the
// injectable filesystem (tmp+rename, fsynced).
func writeStoreSnapshotV3(fsys faultfs.FS, path string, store *embstore.Store, watermark uint64) error {
	return writeFileAtomicFS(fsys, path, func(f faultfs.File) error {
		return store.SaveSnapshotV3(f, watermark)
	})
}

// seedStore builds the initial store for a WAL directory that has no
// snapshot yet: a seed artifact if one was given, an empty store under
// -dim otherwise.
func seedStore(cfg serverConfig) (*embstore.Store, error) {
	if cfg.model != "" || cfg.snapshot != "" {
		return loadStore(cfg.model, cfg.snapshot, cfg.shards, cfg.precision)
	}
	if cfg.dim < 1 {
		return nil, fmt.Errorf("wal dir %s has no snapshot: pass -model, -snapshot, or -dim to boot empty", cfg.walDir)
	}
	return embstore.NewPrecision(cfg.dim, cfg.shards, cfg.precision)
}

// loadStore builds the store from exactly one of the two sources, at
// the requested slab precision (model tables are full-precision; v3
// snapshots convert from whatever they were written in). A -snapshot
// in any other format fails with embstore.ErrNotV3Snapshot.
func loadStore(model, snapshot string, shards int, prec embstore.Precision) (*embstore.Store, error) {
	switch {
	case model != "" && snapshot != "":
		return nil, fmt.Errorf("pass -model or -snapshot, not both")
	case model == "" && snapshot == "":
		return nil, fmt.Errorf("pass -model (ehna snapshot) or -snapshot (embstore snapshot)")
	case model != "":
		f, err := os.Open(model)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return embstore.FromModelSnapshotPrecision(f, shards, prec)
	default:
		s, _, err := embstore.LoadSnapshotV3At(snapshot, shards, prec)
		if err != nil {
			return nil, fmt.Errorf("-snapshot %s: %w", snapshot, err)
		}
		return s, nil
	}
}

// indexOptions carries every index-selection flag; the hnsw fields are
// consulted only for that kind.
type indexOptions struct {
	kind   string
	metric ann.Metric
	seed   int64
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

// hnswConfigOf maps the hnsw flag subset onto an ann.HNSWConfig — also
// the parameter set background compaction rebuilds with.
func hnswConfigOf(o indexOptions) ann.HNSWConfig {
	return ann.HNSWConfig{M: o.m, EfConstruction: o.efConstruction, EfSearch: o.efSearch, Seed: o.seed, Metric: o.metric}
}

// buildHNSW loads the graph snapshot when one exists (boot without
// rebuild) and builds+saves it otherwise.
func buildHNSW(store *embstore.Store, o indexOptions) (ann.Index, error) {
	cfg := hnswConfigOf(o)
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
	h, err := ann.BuildHNSW(store, cfg)
	if err != nil {
		return nil, err
	}
	alive, _, maxLevel := h.Stats()
	log.Printf("ehnad: hnsw graph built: %d nodes, %d layers in %v", alive, maxLevel+1, time.Since(start).Round(time.Millisecond))
	if o.graphPath != "" {
		// Write-then-rename so a crash mid-save cannot leave a truncated
		// snapshot that bricks every subsequent boot.
		if err := writeFileAtomic(o.graphPath, h.SaveGraph); err != nil {
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

// writeFileAtomic writes via a sibling temp file and renames it into
// place, so readers only ever see a complete file.
func writeFileAtomic(path string, write func(w io.Writer) error) error {
	return writeFileAtomicFS(faultfs.OS(), path, func(f faultfs.File) error {
		return write(f)
	})
}

// writeFileAtomicFS is writeFileAtomic through the injectable
// filesystem, so chaos drills can break the snapshot publish path
// (write, fsync, the rename itself) the same way they break the WAL.
// The write callback gets the full faultfs.File — the v3 snapshot
// writer seeks back to stamp its header.
func writeFileAtomicFS(fsys faultfs.FS, path string, write func(f faultfs.File) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// Fsync the directory: until the rename itself is durable, nothing
	// may rely on the new file surviving power loss (the snapshot loop
	// deletes WAL segments on the strength of this rename).
	d, err := fsys.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
