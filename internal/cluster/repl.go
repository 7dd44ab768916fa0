package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ehna/internal/obs"
	"ehna/internal/wal"
)

// Replication wire contract (leader side, served by cmd/ehnad; the
// JSON bodies are declared in wire.go):
//
//	GET /v1/repl/stream?after=<seq>
//	  200: body is a sequence of CRC-framed WAL records (the on-disk
//	       segment format) with after < seq ≤ X-Ehnad-Last-Seq, in
//	       order. Only durable records are shipped — the leader never
//	       streams what it could itself lose in a crash.
//	  410: the leader truncated past `after`; body carries the leader's
//	       snapshot watermark. The follower must re-bootstrap from
//	       /v1/export instead of streaming.
//	GET  /v1/repl/status   — {role, last_seq, durable_seq, applied, ...}
//	POST /v1/admin/promote — leave follower mode; returns the applied
//	       watermark the new leader starts serving writes from.

const (
	// replPollInterval is the pause after an empty round.
	replPollInterval = 200 * time.Millisecond
	// replBatchMax bounds the records per Apply call, so one huge
	// catch-up stream doesn't hold the applier lock for its entirety.
	replBatchMax = 256
)

var (
	replRecords = obs.Default().Counter("ehnad_repl_records_total",
		"WAL records received and applied from the replication stream.")
	replRounds = obs.Default().Counter("ehnad_repl_rounds_total",
		"Replication stream requests issued (reconnects and empty polls included).")
	replErrors = obs.Default().Counter("ehnad_repl_errors_total",
		"Replication rounds that ended in a transport, protocol or apply error.")
	replApplyHist = obs.Default().Histogram("ehnad_repl_apply_seconds",
		"Latency of applying one replicated record batch (append + index).")
)

// ReplClient tails a leader's WAL over HTTP and applies each batch
// through the caller's apply function — on the daemon, the same
// store+index path boot replay uses, under the same applier lock, with
// the leader's sequence numbers preserved. Run keeps the follower
// converging until its context is canceled (promotion, shutdown).
type ReplClient struct {
	// Leader is the leader daemon's base URL.
	Leader string
	// Apply applies one contiguous batch of replicated records. An
	// error pauses the stream and retries the same position — records
	// are re-fetched, never skipped.
	Apply func(recs []wal.Record) error
	// Applied reports the highest sequence number locally applied; each
	// stream round resumes after it.
	Applied func() uint64
	// OnGap is called when the leader answers 410 (it truncated past
	// our watermark, so streaming can never catch up) with the leader's
	// snapshot watermark. Absent or failing, the client backs off and
	// retries — re-bootstrapping is the daemon's call, not ours.
	OnGap func(leaderWatermark uint64) error
	// Logf, when set, receives replication lifecycle messages.
	Logf func(format string, args ...any)

	leaderSeq atomic.Uint64
}

// LeaderSeq returns the leader's durable watermark as of the last
// stream round — with Applied(), the replication lag.
func (rc *ReplClient) LeaderSeq() uint64 { return rc.leaderSeq.Load() }

func (rc *ReplClient) logf(format string, args ...any) {
	if rc.Logf != nil {
		rc.Logf(format, args...)
	}
}

// Run tails the leader until ctx is canceled. Transport errors,
// protocol divergence and apply failures all back off and resume from
// the applied watermark; the loop never skips or reorders records.
func (rc *ReplClient) Run(ctx context.Context) {
	// A dedicated client with no overall timeout: the server long-polls.
	client := &http.Client{}
	for ctx.Err() == nil {
		n, err := rc.round(ctx, client)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			replErrors.Inc()
			rc.logf("cluster: replication from %s: %v", rc.Leader, err)
			if !sleepCtx(ctx, replPollInterval) {
				return
			}
			continue
		}
		if n == 0 {
			// Caught up; the server already long-polled before answering
			// empty, so this pause only bounds the reconnect rate.
			if !sleepCtx(ctx, replPollInterval) {
				return
			}
		}
	}
}

// round performs one stream request and applies everything it returns,
// reporting how many records were applied.
func (rc *ReplClient) round(ctx context.Context, client *http.Client) (int, error) {
	replRounds.Inc()
	after := rc.Applied()
	u := fmt.Sprintf("%s/v1/repl/stream?after=%d", rc.Leader, after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if h := resp.Header.Get(LastSeqHeader); h != "" {
		if v, err := strconv.ParseUint(h, 10, 64); err == nil {
			rc.leaderSeq.Store(v)
		}
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		var body ReplGap
		_ = json.NewDecoder(resp.Body).Decode(&body)
		if rc.OnGap != nil {
			if err := rc.OnGap(body.Watermark); err != nil {
				return 0, fmt.Errorf("leader truncated past seq %d (watermark %d): %w", after, body.Watermark, err)
			}
			return 0, nil
		}
		return 0, fmt.Errorf("leader truncated past seq %d (watermark %d): re-bootstrap required", after, body.Watermark)
	default:
		return 0, fmt.Errorf("stream status %s", resp.Status)
	}

	dec := wal.NewDecoder(resp.Body)
	var (
		batch   []wal.Record
		applied int
		next    = after + 1
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		start := time.Now()
		if err := rc.Apply(batch); err != nil {
			return fmt.Errorf("apply batch at seq %d: %w", batch[0].Seq, err)
		}
		replApplyHist.ObserveSince(start)
		replRecords.Add(uint64(len(batch)))
		applied += len(batch)
		batch = batch[:0]
		return nil
	}
	for {
		rec, err := dec.Decode()
		if err == io.EOF {
			return applied, flush()
		}
		if err != nil {
			// A torn frame is a dropped connection mid-record: apply what
			// arrived whole and resume from the new watermark.
			if ferr := flush(); ferr != nil {
				return applied, ferr
			}
			return applied, fmt.Errorf("stream decode after seq %d: %w", next-1, err)
		}
		if rec.Seq != next {
			// Apply the contiguous prefix, then resume from it — the
			// discontinuity suffix is re-fetched, never guessed at.
			if ferr := flush(); ferr != nil {
				return applied, ferr
			}
			return applied, fmt.Errorf("stream discontinuity: got seq %d, want %d", rec.Seq, next)
		}
		next++
		batch = append(batch, rec)
		if len(batch) >= replBatchMax {
			if err := flush(); err != nil {
				return applied, err
			}
		}
	}
}

// sleepCtx sleeps d or until ctx is done, reporting whether to keep
// running.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// FetchReplStatus asks one daemon for its role and watermarks.
func FetchReplStatus(ctx context.Context, client *http.Client, base string) (ReplStatus, error) {
	var st ReplStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/repl/status", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("repl status from %s: %s", base, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("repl status from %s: %w", base, err)
	}
	return st, nil
}

// Promote asks the daemon at base to leave follower mode and own its
// shard's write path, returning the applied watermark it promotes at —
// every acked write with seq ≤ that watermark survived the failover.
func Promote(ctx context.Context, client *http.Client, base string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/admin/promote", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("promote %s: %s: %s", base, resp.Status, b)
	}
	var body PromoteAck
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return body.Applied, nil
}
