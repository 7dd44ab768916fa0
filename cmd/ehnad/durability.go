// The durability layer: the daemon's one write path, and — when it is
// given a log — what turns the daemon from a cache into a system of
// record.
//
// Write path (the applier): every mutation, whatever its source — an
// HTTP upsert or delete, a WAL record replayed at boot, a batch from
// the leader's replication stream — is a []wal.Record handed to apply:
// take d.mu, append to the WAL buffer, apply each record to the
// store+index (applyRecord, the only code in the daemon that mutates
// them), release d.mu, and only acknowledge after wal.Commit makes the
// records durable per -fsync (concurrent requests group-commit behind
// one fsync). The log is optional: without -wal the
// append and the commit drop out and nothing else changes. Because
// append and apply happen under one lock, "everything the log holds up
// to seq S has been applied" is true whenever the lock is free — the
// invariant snapshot watermarking leans on.
//
// Snapshot rotation: under d.mu (writes stall, searches don't), Rotate
// seals the WAL segment and yields the watermark W; the store snapshot
// (stamped with W) and the HNSW graph snapshot — its live slots only,
// so the file carries no tombstone — are then written tmp+rename as a
// consistent pair. After the lock drops, sealed WAL segments ≤ W are
// deleted. A crash at any point leaves either the old
// pair + full WAL or the new pair + WAL suffix — both recover exactly.
//
// Boot: load the snapshot pair (graph invalid/stale → rebuild), then
// replay the WAL suffix (seq > W) through the applier. Records that bled
// into the snapshot past W replay harmlessly (last-writer-wins).
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/embstore"
	"ehna/internal/faultfs"
	"ehna/internal/graph"
	"ehna/internal/obs"
	"ehna/internal/wal"
)

// healCheckEvery is how often the maintenance loop retries a WAL heal
// while the daemon is read-only.
const healCheckEvery = time.Second

type durable struct {
	mu   sync.Mutex              // the applier lock; see the package comment
	logp atomic.Pointer[wal.Log] // nil without -wal, and until openLog has replayed

	index ann.Index
	store *embstore.Store
	node  node // role and phase (state.go); apply's admission check reads it

	walDir    string
	walOpts   wal.Options
	fsys      faultfs.FS
	snapPath  string // the rotating flat v3 snapshot (store.snap)
	graphPath string // "" unless the index is hnsw
	interval  time.Duration

	stop chan struct{}
	done chan struct{}

	reg *obs.Registry // set by registerMetrics; heal() re-binds WAL gauges

	replayed        int // records recovered at boot
	replayTorn      bool
	snapshots       atomic.Int64
	lastSnapshot    atomic.Int64 // unix seconds
	watermark       atomic.Uint64
	snapshotErrs    atomic.Int64
	lastSnapshotErr atomic.Value // string

	healAttempts atomic.Int64
	heals        atomic.Int64
}

// wal returns the live log, nil when the daemon keeps none. An atomic
// pointer because heal() swaps in a fresh log while metrics closures
// and late Commit calls may still hold the old one.
func (d *durable) wal() *wal.Log { return d.logp.Load() }

// hasLog reports whether writes are logged: what the endpoints that
// operate on the log itself (snapshot rotation, the replication
// stream) and the durability report ask before they run.
func (d *durable) hasLog() bool { return d.wal() != nil }

// spoolDir is where /v1/export spools its image: beside the WAL when
// there is one (the data volume has room for it), else the OS temp dir.
func (d *durable) spoolDir() string {
	if d.walDir != "" {
		return d.walDir
	}
	return os.TempDir()
}

// newDurable builds the applier over store+index. It is complete as is
// for a daemon without -wal; openLog adds the log.
func newDurable(cfg serverConfig, store *embstore.Store, index ann.Index) *durable {
	d := &durable{
		index:    index,
		store:    store,
		walDir:   cfg.walDir,
		fsys:     cfg.fsys(),
		snapPath: walSnapshotV3Path(cfg.walDir),
		interval: cfg.snapshotInterval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.index.kind == "hnsw" {
		d.graphPath = cfg.index.graphPath
	}
	r := roleLeader
	if cfg.follow != "" {
		r = roleFollower
	}
	d.node.boot(r)
	return d
}

// openLog recovers state — the WAL suffix past watermark replayed over
// the already-loaded snapshot, through the same apply every later write
// takes (no log is open yet, so nothing is appended a second time) —
// then opens the log for appending (repairing any torn tail) and starts
// the maintenance loop.
func (d *durable) openLog(cfg serverConfig, watermark uint64) error {
	d.watermark.Store(watermark)
	info, err := wal.ReplayFS(d.fsys, d.walDir, watermark, func(r wal.Record) error {
		return d.replicate([]wal.Record{r})
	})
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	d.replayed, d.replayTorn = info.Records, info.Torn
	if info.Torn {
		log.Printf("ehnad: wal %s has a torn tail at %s+%d (crash mid-append); truncating and continuing",
			d.walDir, info.TornPath, info.TornOffset)
	}
	log.Printf("ehnad: wal recovery: %d records replayed past watermark %d (last seq %d)",
		info.Records, watermark, info.LastSeq)

	policy, ivl, err := wal.ParseSyncPolicy(cfg.fsync)
	if err != nil {
		return err
	}
	// FirstSeq matters only when the directory has no segments yet: a
	// follower bootstrapped from a leader snapshot at watermark W must
	// open its empty log at W+1 so replicated records keep the leader's
	// numbering and Replay(W) finds no gap. (A leader whose log was
	// rotated always has a live segment, so FirstSeq is ignored there.)
	d.walOpts = wal.Options{Sync: policy, Interval: ivl, FS: d.fsys, FirstSeq: watermark + 1}
	l, err := wal.Open(d.walDir, d.walOpts)
	if err != nil {
		return fmt.Errorf("wal open: %w", err)
	}
	d.logp.Store(l)
	go d.run()
	return nil
}

// heal tries to exit read-only mode: close the poisoned log, reopen
// the directory (wal.Open truncates any torn tail the failed writes
// left), probe the fresh log with a real fsync, and rotate a
// reconciliation snapshot of the in-memory state before accepting
// writes again. The snapshot matters: operations that were applied in
// memory but torn out of the failed log would otherwise be silently
// missing from a later recovery. Any step failing leaves the daemon
// read-only for the next tick to retry.
func (d *durable) heal() {
	d.healAttempts.Add(1)
	d.mu.Lock()
	old := d.wal()
	_ = old.Close() // flush what it still can; errors are expected here
	fresh, err := wal.Open(d.walDir, d.walOpts)
	if err != nil {
		d.mu.Unlock()
		log.Printf("ehnad: wal heal: reopen: %v (still read-only)", err)
		return
	}
	if err := fresh.Sync(); err != nil {
		fresh.Close()
		d.mu.Unlock()
		log.Printf("ehnad: wal heal: fsync probe: %v (still read-only)", err)
		return
	}
	d.logp.Store(fresh)
	d.mu.Unlock()

	if d.reg != nil {
		fresh.RegisterMetrics(d.reg) // GaugeFunc re-registration re-binds to the live log
	}
	if _, err := d.snapshot(); err != nil {
		log.Printf("ehnad: wal heal: reconciliation snapshot: %v (still read-only)", err)
		return
	}
	d.heals.Add(1)
	d.node.healed(d.healAttempts.Load())
}

// apply is the write path: log the records, then apply them,
// acknowledging only once they are durable. The WAL write happening
// before the apply is the whole point: a crash after the append replays
// the mutation, a crash before it means the client never got an ack.
// Append+apply run under d.mu (preserving the watermark invariant); the
// durability wait happens after the lock drops, so concurrent requests
// group-commit behind one fsync instead of each paying a serialized
// sync. The phase check sits in front of the append so a poisoned
// log refuses work before mutating anything.
//
// appendTo is how the records enter the log: (*wal.Log).AppendBuffered
// numbers them, (*wal.Log).AppendAt keeps the numbers a leader gave
// them and refuses a batch that diverges (wal.ErrDiverged) before
// writing a byte — a protocol disagreement, not a persistence failure,
// so it leaves the log healthy and writable. Any other failure with a
// log is a fault: the daemon turns read-only.
//
// It returns how many deletes found their id, and the last WAL sequence
// the batch was logged at (0 without a log) — the ack token a client
// (or the shard router) can compare against a new leader's promotion
// watermark after a failover.
func (d *durable) apply(recs []wal.Record, appendTo func(*wal.Log, []wal.Record) (uint64, error)) (removed int, last uint64, err error) {
	if !d.node.load().writable() {
		return 0, 0, errReadOnly
	}
	d.mu.Lock()
	lg := d.wal()
	if lg != nil {
		if last, err = appendTo(lg, recs); err != nil {
			err = fmt.Errorf("wal append: %w", err)
		}
	}
	for i := 0; i < len(recs) && err == nil; i++ {
		var hit bool
		if hit, err = d.applyRecord(recs[i]); hit {
			removed++
		}
	}
	d.mu.Unlock()
	if lg == nil {
		return removed, 0, err
	}
	if err == nil {
		if err = lg.Commit(last); err != nil {
			err = fmt.Errorf("wal commit: %w", err)
		}
	}
	if err != nil {
		if !errors.Is(err, wal.ErrDiverged) {
			d.node.fault(err)
		}
		return removed, 0, err
	}
	return removed, last, nil
}

// applyRecord applies one logged mutation to the store+index,
// reporting whether a delete found its id.
func (d *durable) applyRecord(r wal.Record) (bool, error) {
	switch r.Op {
	case wal.OpUpsert:
		return false, d.index.Add(r.ID, r.Vec)
	case wal.OpDelete:
		return d.index.Remove(r.ID), nil
	default:
		return false, fmt.Errorf("wal record %d has unknown op %d", r.Seq, r.Op)
	}
}

// upsert applies a batch of validated updates, returning its ack seq.
func (d *durable) upsert(updates []cluster.UpsertUpdate) (uint64, error) {
	recs := make([]wal.Record, len(updates))
	for i, u := range updates {
		recs[i] = wal.Record{Op: wal.OpUpsert, ID: *u.ID, Vec: u.Vector}
	}
	_, last, err := d.apply(recs, (*wal.Log).AppendBuffered)
	return last, err
}

// delete applies removals, reporting how many ids were present.
func (d *durable) delete(ids []graph.NodeID) (int, uint64, error) {
	recs := make([]wal.Record, len(ids))
	for i, id := range ids {
		recs[i] = wal.Record{Op: wal.OpDelete, ID: id}
	}
	return d.apply(recs, (*wal.Log).AppendBuffered)
}

// replicate applies records that already carry sequence numbers: one
// contiguous batch from the leader's replication stream, logged at
// those numbers — or, at boot, this daemon's own WAL suffix, replayed
// before the log is open and so not logged again.
func (d *durable) replicate(recs []wal.Record) error {
	_, _, err := d.apply(recs, (*wal.Log).AppendAt)
	return err
}

// applied reports the watermark through which the local state reflects
// the log — LastSeq, by the applier-lock invariant; 0 when there is no
// log and so no sequence space.
func (d *durable) applied() uint64 {
	if lg := d.wal(); lg != nil {
		return lg.LastSeq()
	}
	return 0
}

// exportTo writes a v3 store snapshot stamped with the current WAL
// watermark. Holding d.mu freezes the write path for the duration of
// the local write, so the image holds every batch whole or not at all
// and pairs with its watermark exactly (a follower bootstrapping from
// it resumes streaming at this sequence); searches keep serving
// throughout.
func (d *durable) exportTo(ws io.WriteSeeker) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.SaveSnapshotV3(ws, d.applied())
}

// snapshot rotates the WAL and writes the store (+ graph) snapshot
// pair, then truncates sealed segments the pair covers. Holding d.mu
// across the writes stalls mutations — not searches — for the
// duration; the price of an exactly-consistent pair.
//
// When the store serves from a mapped base, the fresh image is remapped
// in as the new base before the lock drops — folding the overlay back
// to zero heap.
func (d *durable) snapshot() (uint64, error) {
	start := time.Now()
	wm, err := func() (uint64, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		wm, err := d.wal().Rotate()
		if err != nil {
			return 0, fmt.Errorf("wal rotate: %w", err)
		}
		if err := writeStoreSnapshotV3(d.fsys, d.snapPath, d.store, wm); err != nil {
			return 0, fmt.Errorf("store snapshot: %w", err)
		}
		if d.graphPath != "" {
			if h, ok := d.index.(*ann.HNSW); ok {
				if err := faultfs.WriteFileAtomic(d.fsys, d.graphPath, func(f faultfs.File) error {
					return h.SaveGraph(f)
				}); err != nil {
					return 0, fmt.Errorf("graph snapshot: %w", err)
				}
			}
		}
		if d.store.Cold() {
			// Writers are stalled under d.mu (the applier lock), which is
			// exactly the quiescence Remap's contract asks for. The fold
			// renumbers every store row, so a graph re-slots with it, under
			// its own write lock. A failed fold is survivable: the old base
			// keeps serving and the overlay simply persists until the next
			// rotation.
			remap := d.store.Remap
			if h, ok := d.index.(*ann.HNSW); ok {
				remap = h.Remap
			}
			if err := remap(d.snapPath); err != nil {
				log.Printf("ehnad: overlay fold: remap %s: %v (serving continues on the previous base)", d.snapPath, err)
			}
		}
		return wm, nil
	}()
	if err != nil {
		d.snapshotErrs.Add(1)
		d.lastSnapshotErr.Store(err.Error())
		return 0, err
	}
	d.watermark.Store(wm)
	d.snapshots.Add(1)
	d.lastSnapshot.Store(time.Now().Unix())
	snapshotHist.ObserveSince(start)
	if err := d.wal().TruncateThrough(wm); err != nil {
		// The snapshot is good; stale segments just linger until the
		// next rotation. Worth a log line, not a failed snapshot.
		log.Printf("ehnad: wal truncate through %d: %v", wm, err)
	}
	return wm, nil
}

// run is the maintenance loop: periodic snapshot rotation and — while
// read-only — WAL heal retries.
func (d *durable) run() {
	defer close(d.done)
	var snapC <-chan time.Time
	if d.interval > 0 {
		t := time.NewTicker(d.interval)
		defer t.Stop()
		snapC = t.C
	}
	healT := time.NewTicker(healCheckEvery)
	defer healT.Stop()
	for {
		select {
		case <-snapC:
			if !d.node.load().writable() {
				continue // rotation needs a working log; heal goes first
			}
			if _, err := d.snapshot(); err != nil {
				log.Printf("ehnad: background snapshot: %v", err)
			}
		case <-healT.C:
			if !d.node.load().writable() {
				d.heal()
			}
		case <-d.stop:
			return
		}
	}
}

// close stops the maintenance loop and closes the log (flushing and
// fsyncing whatever the policy had not yet synced); without a log there
// is neither. A final snapshot pair, when asked for, lets the next boot
// replay zero records. A log poisoned after the drain refuses that
// rotation, and the WAL suffix already on disk is the recovery.
func (d *durable) close(finalSnapshot bool) {
	if !d.hasLog() {
		return
	}
	close(d.stop)
	<-d.done
	if finalSnapshot {
		if _, err := d.snapshot(); err != nil {
			log.Printf("ehnad: final snapshot: %v (boot will replay the wal instead)", err)
		}
	}
	if err := d.wal().Close(); err != nil {
		log.Printf("ehnad: wal close: %v", err)
	}
}

// healthz returns the durability block of the health report, reading
// every number through the gauges registerMetrics installed (see
// metrics.go) so /healthz and /metrics render one set of values.
func (d *durable) healthz(m *serverMetrics) map[string]any {
	g := m.gauge
	out := map[string]any{
		"wal": map[string]any{
			"last_seq":    uint64(g("ehnad_wal_last_seq")),
			"durable_seq": uint64(g("ehnad_wal_durable_seq")),
			"segments":    int(g("ehnad_wal_segments")),
			"size_bytes":  int64(g("ehnad_wal_size_bytes")),
		},
		"snapshot": map[string]any{
			"watermark":  uint64(g("ehnad_snapshot_watermark")),
			"count":      int64(g("ehnad_snapshot_count")),
			"last_unix":  int64(g("ehnad_snapshot_last_unix")),
			"interval_s": g("ehnad_snapshot_interval_seconds"),
			"errors":     int64(g("ehnad_snapshot_error_count")),
		},
		"replayed_records": int(g("ehnad_replayed_records")),
		"replay_torn_tail": g("ehnad_replay_torn_tail") != 0,
	}
	ro := map[string]any{
		"read_only":     g("ehnad_read_only") != 0,
		"heal_attempts": int64(g("ehnad_wal_heal_attempts")),
		"heals":         int64(g("ehnad_wal_heals")),
	}
	if st := d.node.load(); !st.writable() {
		ro["since_unix"] = int64(g("ehnad_read_only_since_unix"))
		ro["cause"] = st.cause
	}
	out["write_path"] = ro
	if msg, ok := d.lastSnapshotErr.Load().(string); ok {
		out["last_snapshot_error"] = msg
	}
	return out
}
