// Replication: the daemon's half of the cluster's WAL-shipping plane.
//
// A leader (any daemon with -wal) exposes:
//
//	GET  /v1/repl/stream?after=SEQ  — framed WAL records after SEQ, bounded
//	                                  to the durable watermark (never ship
//	                                  what a crash could take back); 410 +
//	                                  the snapshot watermark when SEQ was
//	                                  truncated away
//	GET  /v1/repl/status            — role + log watermarks
//	POST /v1/admin/promote          — leave follower mode; the applied
//	                                  watermark in the response is the
//	                                  acked-write survival line
//
// A follower (-follow URL, requires -wal) bootstraps from the leader's
// /v1/export when its directory is empty, then tails the stream through
// cluster.ReplClient, applying every batch through durable.replicate —
// the applier every local write and boot replay go through, under the
// same lock, preserving the leader's sequence numbers. Promotion just
// stops the tail and flips the role: the log already is a leader log.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"ehna/internal/cluster"
	"ehna/internal/faultfs"
	"ehna/internal/graph"
	"ehna/internal/obs"
	"ehna/internal/wal"
)

// replStreamPollWait is how long /v1/repl/stream holds a caught-up
// request open waiting for new records before answering empty — a
// brief long-poll that keeps follower lag near zero without a tight
// reconnect loop.
const replStreamPollWait = 900 * time.Millisecond

// replica tails a leader: the upstream URL and the stream client.
type replica struct {
	leader string
	dur    *durable
	client *cluster.ReplClient
	cancel context.CancelFunc
	done   chan struct{} // closed once the client has returned
}

// newReplica starts tailing the leader.
func newReplica(leader string, d *durable) *replica {
	ctx, cancel := context.WithCancel(context.Background())
	rp := &replica{leader: leader, dur: d, cancel: cancel, done: make(chan struct{})}
	rp.client = &cluster.ReplClient{
		Leader:  leader,
		Apply:   d.replicate,
		Applied: d.applied,
		OnGap: func(wm uint64) error {
			// Streaming can never catch up once the leader truncated past
			// our watermark. Re-bootstrapping would mean discarding local
			// state — an operator decision, so surface it loudly and keep
			// retrying (the error path backs off) rather than self-wipe.
			return fmt.Errorf("leader snapshot watermark %d is past this log: wipe the WAL dir and restart to re-bootstrap from %s/v1/export", wm, leader)
		},
		Logf: log.Printf,
	}
	go func() {
		rp.client.Run(ctx)
		close(rp.done)
	}()
	log.Printf("ehnad: following %s (replication stream)", leader)
	return rp
}

// stop halts the stream client and waits for its last apply to finish.
// Idempotent, and safe from several goroutines at once.
func (rp *replica) stop() {
	rp.cancel()
	<-rp.done
}

// registerMetrics adds the follower-side replication gauges to the
// server registry (the router keeps its own cluster-wide view; these
// are the daemon's ground truth).
func (rp *replica) registerMetrics(r *obs.Registry) {
	r.GaugeFunc("ehnad_is_follower", "1 while this daemon is tailing a leader instead of owning writes.",
		func() float64 { return one(rp.dur.node.load().role == roleFollower) })
	r.GaugeFunc("ehnad_repl_applied_seq", "Highest leader sequence applied locally.",
		func() float64 { return float64(rp.dur.applied()) })
	r.GaugeFunc("ehnad_repl_leader_seq", "Leader durable watermark as of the last stream round.",
		func() float64 { return float64(rp.client.LeaderSeq()) })
	r.GaugeFunc("ehnad_repl_lag_records", "Records the leader has durably logged that this follower has not applied.",
		func() float64 {
			leader, applied := rp.client.LeaderSeq(), rp.dur.applied()
			if leader <= applied {
				return 0
			}
			return float64(leader - applied)
		})
}

// bootstrapFollower seeds an empty follower WAL directory from the
// leader's /v1/export — a v3 store snapshot stamped with the leader's
// watermark, saved straight to store.snap so the normal boot path
// loads (or maps) it and the stream resumes at exactly that sequence.
// A directory that already has a snapshot or log segments resumes from
// local state instead (cheaper, and the stream's gap check catches a
// stale resume).
func bootstrapFollower(cfg serverConfig) error {
	snapPath := walSnapshotV3Path(cfg.walDir)
	if _, err := os.Stat(snapPath); err == nil {
		return nil
	} else if !os.IsNotExist(err) {
		return err
	}
	oldest, err := wal.OldestSeq(cfg.walDir)
	if err != nil {
		return err
	}
	if oldest > 0 {
		return nil
	}
	resp, err := http.Get(cfg.follow + "/v1/export")
	if err != nil {
		return fmt.Errorf("bootstrap from %s: %w", cfg.follow, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bootstrap from %s: status %s", cfg.follow, resp.Status)
	}
	if err := faultfs.WriteFileAtomic(faultfs.OS(), snapPath, func(f faultfs.File) error {
		_, err := io.Copy(f, resp.Body)
		return err
	}); err != nil {
		return fmt.Errorf("bootstrap snapshot: %w", err)
	}
	log.Printf("ehnad: bootstrapped follower snapshot from %s/v1/export", cfg.follow)
	return nil
}

// durableThrough reports the watermark the stream may ship up to,
// syncing first when the log holds buffered records — replication
// implies durability: a record a crash could take back must never
// reach a follower.
func durableThrough(lg *wal.Log) uint64 {
	if lg.DurableSeq() < lg.LastSeq() {
		if err := lg.Sync(); err != nil {
			return lg.DurableSeq()
		}
	}
	return lg.DurableSeq()
}

// handleReplStream serves the leader side of WAL shipping: framed
// records after ?after, bounded to the durable watermark, re-encoded
// through the same codec the on-disk segments use (replay re-validates
// every CRC on the way out).
func (s *server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		cluster.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if !s.requireLog(w, "replication") {
		return
	}
	after := uint64(0)
	if q := r.URL.Query().Get("after"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			cluster.WriteError(w, http.StatusBadRequest, "invalid after %q: %v", q, err)
			return
		}
		after = v
	}
	upTo := durableThrough(s.dur.wal())
	// Caught up: hold the request briefly so a write lands mid-poll
	// instead of on the next reconnect.
	deadline := time.Now().Add(replStreamPollWait)
	for upTo <= after && time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(20 * time.Millisecond):
		}
		upTo = durableThrough(s.dur.wal())
	}
	oldest, err := wal.OldestSeq(s.dur.walDir)
	if err != nil {
		cluster.WriteError(w, http.StatusInternalServerError, "repl stream: %v", err)
		return
	}
	w.Header().Set(cluster.LastSeqHeader, strconv.FormatUint(upTo, 10))
	if oldest > after+1 {
		// Records (after, oldest) were truncated by snapshot rotation: the
		// follower can never stream its way up from here.
		cluster.WriteJSON(w, http.StatusGone, cluster.ReplGap{
			Watermark: s.dur.watermark.Load(),
			Error:     fmt.Sprintf("records after seq %d truncated; oldest surviving seq is %d", after, oldest),
		})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if upTo <= after {
		w.WriteHeader(http.StatusOK)
		return
	}
	enc := wal.NewEncoder(w)
	if _, err := wal.ReplayRange(s.dur.walDir, after, upTo, enc.Encode); err != nil {
		// Headers are sent; the follower sees a torn stream, applies the
		// contiguous prefix it got, and resumes from its new watermark.
		log.Printf("ehnad: repl stream (%d, %d]: %v", after, upTo, err)
	}
}

// handleReplStatus reports role + watermarks — what the router's health
// loop probes to elect leaders and measure lag. Always 200: a daemon
// without -wal is a zero-watermark leader.
func (s *server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	role := s.dur.node.load().role
	st := cluster.ReplStatus{Role: role.String()}
	if role == roleFollower {
		st.Leader = s.repl.leader
	}
	if lg := s.dur.wal(); lg != nil {
		st.LastSeq, st.DurableSeq, st.Applied = lg.LastSeq(), lg.DurableSeq(), s.dur.applied()
	}
	cluster.WriteJSON(w, http.StatusOK, st)
}

// handleAdminPromote flips a follower into the shard's write owner,
// returning the applied watermark writes resume from. Idempotent —
// promoting a leader (or a daemon that never followed) reports its
// current watermark and changes nothing.
func (s *server) handleAdminPromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		cluster.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.repl != nil {
		s.repl.stop()
		s.dur.node.promote(fmt.Sprintf("promoted at applied seq %d, was following %s", s.dur.applied(), s.repl.leader))
	}
	cluster.WriteJSON(w, http.StatusOK, cluster.PromoteAck{Applied: s.dur.applied(), Role: "leader"})
}

// handleVector resolves one stored id to its vector — the router uses
// it to turn an id-query into a vector it can scatter to non-owning
// shards.
func (s *server) handleVector(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		cluster.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query().Get("id")
	id, err := strconv.ParseUint(q, 10, 32)
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "invalid id %q", q)
		return
	}
	vec, ok := s.store.Get(graph.NodeID(id))
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "node %d not in store", id)
		return
	}
	cluster.WriteJSON(w, http.StatusOK, cluster.VectorAck{ID: graph.NodeID(id), Vector: vec})
}
