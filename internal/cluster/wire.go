package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ehna/internal/ann"
	"ehna/internal/graph"
)

// The HTTP/JSON contract of the serving plane, declared once: cmd/ehnad
// answers it, the Router speaks it on both sides (to clients, and to
// its shards), ehnad-mkstore -check and the tests decode it. A field
// added here reaches every party at once.

// DefaultK is the result depth of a query that names none.
const DefaultK = 10

// DeadlineHeader is the client's per-request budget override in
// milliseconds; the JSON deadline_ms field takes precedence over it.
// The router accepts it from clients and forwards each shard its share.
const DeadlineHeader = "X-Ehnad-Deadline-Ms"

// LastSeqHeader carries the durable watermark a /v1/repl/stream
// response was bounded by, so a follower can report lag even on an
// empty poll.
const LastSeqHeader = "X-Ehnad-Last-Seq"

// RequestBudget derives a request's time budget: deadline_ms in the
// body, then DeadlineHeader, then def (0 = unbounded). An override that
// is malformed or not positive is an error, never silently the default:
// a client that asked for a budget and got unbounded work would
// discover the typo as an outage.
func RequestBudget(r *http.Request, deadlineMS int, def time.Duration) (time.Duration, error) {
	if deadlineMS < 0 {
		return 0, fmt.Errorf("invalid deadline_ms %d: want a positive number of milliseconds", deadlineMS)
	}
	if h := r.Header.Get(DeadlineHeader); h != "" {
		v, err := strconv.Atoi(h)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("invalid %s header %q: want a positive integer of milliseconds", DeadlineHeader, h)
		}
		def = time.Duration(v) * time.Millisecond
	}
	if deadlineMS > 0 {
		def = time.Duration(deadlineMS) * time.Millisecond
	}
	return def, nil
}

// NeighborQuery is one top-k query: a stored node id or a raw vector,
// never both. K defaults to DefaultK.
type NeighborQuery struct {
	ID     *graph.NodeID `json:"id,omitempty"`
	Vector []float64     `json:"vector,omitempty"`
	K      int           `json:"k,omitempty"`
}

// NeighborsRequest is the /v1/neighbors body: a single query inline, or
// several under "queries" (K is the per-query default then).
type NeighborsRequest struct {
	NeighborQuery
	Queries    []NeighborQuery `json:"queries,omitempty"`
	DeadlineMS int             `json:"deadline_ms,omitempty"`
}

// SearchStatus is what both /v1/neighbors acks carry besides results.
// Degraded marks an answer served below the configured beam width or,
// through the router, from fewer than all shards — the two shard
// counts appear only on such a routed answer.
type SearchStatus struct {
	Degraded       bool `json:"degraded,omitempty"`
	ShardsAnswered int  `json:"shards_answered,omitempty"`
	ShardsTotal    int  `json:"shards_total,omitempty"`
}

// NeighborsAck answers a single inline query.
type NeighborsAck struct {
	Results []ann.Result `json:"results"`
	SearchStatus
}

// NeighborsBatchAck answers a "queries" batch, one list per query.
type NeighborsBatchAck struct {
	Batches [][]ann.Result `json:"batches"`
	SearchStatus
}

// VectorAck answers GET /v1/vector?id=N.
type VectorAck struct {
	ID     graph.NodeID `json:"id"`
	Vector []float64    `json:"vector"`
}

// UpsertUpdate is one vector to insert or replace.
type UpsertUpdate struct {
	ID     *graph.NodeID `json:"id,omitempty"`
	Vector []float64     `json:"vector,omitempty"`
}

// UpsertRequest is the /v1/upsert body: one update inline, or many
// under "updates".
type UpsertRequest struct {
	UpsertUpdate
	Updates []UpsertUpdate `json:"updates,omitempty"`
}

// Batch returns the request's updates in either spelling, refusing one
// that names no id.
func (r UpsertRequest) Batch() ([]UpsertUpdate, error) {
	updates := r.Updates
	if len(updates) == 0 {
		updates = []UpsertUpdate{r.UpsertUpdate}
	}
	for i, u := range updates {
		if u.ID == nil {
			return nil, fmt.Errorf("update %d: missing id", i)
		}
	}
	return updates, nil
}

// DeleteRequest is the /v1/delete body: one id inline, or many under
// "ids".
type DeleteRequest struct {
	ID  *graph.NodeID  `json:"id,omitempty"`
	IDs []graph.NodeID `json:"ids,omitempty"`
}

// Batch returns the request's ids in either spelling, refusing none.
func (r DeleteRequest) Batch() ([]graph.NodeID, error) {
	ids := r.IDs
	if r.ID != nil {
		ids = append(ids, *r.ID)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("delete needs id or ids")
	}
	return ids, nil
}

// UpsertAck and DeleteAck acknowledge a write. Seq is the last WAL
// sequence the batch was logged at — present only when the daemon keeps
// a log. It is the failover token: after a promotion, every acked write
// with Seq ≤ the new leader's watermark provably survived.
type UpsertAck struct {
	Upserted int    `json:"upserted"`
	Seq      uint64 `json:"seq,omitempty"`
	Nodes    int    `json:"nodes"`
}

type DeleteAck struct {
	Deleted int    `json:"deleted"`
	Seq     uint64 `json:"seq,omitempty"`
	Nodes   int    `json:"nodes"`
}

// ReplStatus is the /v1/repl/status body: the role a daemon is serving
// in and its replication watermarks.
type ReplStatus struct {
	Role       string `json:"role"` // "leader" or "follower"
	LastSeq    uint64 `json:"last_seq"`
	DurableSeq uint64 `json:"durable_seq"`
	// Applied is the watermark through which the local store+index
	// reflect the log. Under the daemon's applier-lock invariant it
	// equals LastSeq whenever the lock is free.
	Applied uint64 `json:"applied"`
	// Leader is the upstream URL when Role is "follower".
	Leader string `json:"leader,omitempty"`
}

// PromoteAck answers POST /v1/admin/promote: the applied watermark the
// daemon serves writes from, in the role it now holds.
type PromoteAck struct {
	Applied uint64 `json:"applied"`
	Role    string `json:"role"`
}

// ReplGap is the 410 body of /v1/repl/stream: the records asked for
// were truncated away, and Watermark is the snapshot that covers them.
type ReplGap struct {
	Watermark uint64 `json:"watermark"`
	Error     string `json:"error"`
}
