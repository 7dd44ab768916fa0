package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unsafe"

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

// errorBody is the body of every 4xx/5xx answer.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON answers with v as the JSON body under status: the bytes
// json.NewEncoder(w).Encode(v) writes, trailing newline included, but
// encoded before the header goes out. A value encoding/json refuses (a
// NaN score, say) is a 500 carrying the encoder's error, not a 200 with
// an empty body. The /v1/neighbors acks and UpsertAck take the
// hand-written encoder below; everything else goes through
// encoding/json.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	bp := bufPool.Get().(*[]byte)
	b, err := appendJSON((*bp)[:0], v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = appendJSON(b[:0], errorBody{Error: "encode response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
	putBuf(bp, b)
}

// WriteError answers with an errorBody under status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// The codec of the hot wire shapes. A /v1/neighbors request and its ack
// cross the wire on every search — client → router → shard and back —
// and a /v1/upsert request and its ack on every write, so they skip
// encoding/json's reflection and its generic float parser.
//
// Decoding: a byte scanner takes the canonical shapes only — exact
// lowercase keys, JSON whitespace, any key order, no duplicate keys,
// numbers scanFloat converts, and for an upsert a single update whose
// id scanUint32 takes — and hands every other input (an escape, a null,
// an "id" in a neighbors request, an "updates" batch, an unknown or
// case-folded key, a duplicate, an id out of range, anything malformed)
// to json.NewDecoder(bytes.NewReader(b)).Decode. The set of accepted
// inputs, the decoded values and the error text are therefore
// encoding/json's by construction; like that call, the scanner reads
// one JSON value and ignores what follows it.
//
// Encoding: the neighbors acks and UpsertAck are written byte for byte
// as encoding/json writes them; one the hand-written encoder cannot
// write (a non-finite score) goes through encoding/json, which reports
// the error.

// maxPooledBytes caps the backing array a pooled buffer or slab may
// keep when it goes back to its pool; one outsized request's memory is
// dropped instead, so the pools cannot pin a high-water mark.
const maxPooledBytes = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// putBuf returns b's storage to bufPool under bp.
func putBuf(bp *[]byte, b []byte) {
	if b = reuse(b); b != nil {
		*bp = b
		bufPool.Put(bp)
	}
}

// reuse empties s for its pool, or drops it (nil) when its backing
// array is over maxPooledBytes.
func reuse[T any](s []T) []T {
	var zero T
	if cap(s)*int(unsafe.Sizeof(zero)) > maxPooledBytes {
		return nil
	}
	return s[:0]
}

// readAll reads r to EOF into b's storage. size, when positive (a
// Content-Length), sizes the buffer up front, up to maxPooledBytes.
func readAll(b []byte, r io.Reader, size int64) ([]byte, error) {
	b = b[:0]
	if want := int(min(size, maxPooledBytes)) + 1; want > cap(b) {
		b = make([]byte, 0, want)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// NeighborsBody is a /v1/neighbors request read off the wire, with the
// pooled memory it was decoded into: the raw body, and one slab holding
// every "queries" vector back to back. Release hands the memory back;
// nothing reachable from Req may be used after it, except Req.Vector.
// The single query's vector is always a fresh allocation, because a
// daemon's micro-batcher can still hold it after the handler that asked
// has given up on its deadline and returned.
type NeighborsBody struct {
	Req NeighborsRequest

	buf     []byte
	slab    []float64
	queries []NeighborQuery
	spans   []span // queries[i]'s vector in slab; n < 0 for none
}

// span locates one list in a slab.
type span struct{ off, n int }

var neighborsPool = sync.Pool{New: func() any { return new(NeighborsBody) }}

// ReadNeighborsRequest reads r to EOF and decodes it as a
// NeighborsRequest. size is the body's length when known (a
// Content-Length), else -1. The error is a read error or encoding/json's
// decode error for the same bytes.
func ReadNeighborsRequest(r io.Reader, size int64) (*NeighborsBody, error) {
	nb := neighborsPool.Get().(*NeighborsBody)
	var err error
	if nb.buf, err = readAll(nb.buf, r, size); err == nil {
		err = nb.decode()
	}
	if err != nil {
		nb.Release()
		return nil, err
	}
	return nb, nil
}

// Release returns the body's memory to the pool.
func (nb *NeighborsBody) Release() {
	nb.Req = NeighborsRequest{}
	nb.buf, nb.slab, nb.queries, nb.spans = reuse(nb.buf), reuse(nb.slab), reuse(nb.queries), reuse(nb.spans)
	neighborsPool.Put(nb)
}

func (nb *NeighborsBody) decode() error {
	if nb.decodeFast() {
		return nil
	}
	nb.Req = NeighborsRequest{}
	return json.NewDecoder(bytes.NewReader(nb.buf)).Decode(&nb.Req)
}

// Key bits, for refusing duplicates.
const (
	keyK = 1 << iota
	keyDeadline
	keyVector
	keyQueries
	keyID
	keyScore
	keyBatches
	keyDegraded
	keyAnswered
	keyTotal
)

// decodeFast decodes nb.buf if it is a canonical NeighborsRequest,
// reporting false — with Req in no particular state — if it is not.
func (nb *NeighborsBody) decodeFast() bool {
	nb.Req = NeighborsRequest{}
	// Non-nil from the start: an empty "queries" or "vector" decodes to
	// an empty slice, never nil, as in encoding/json.
	if cap(nb.slab) == 0 {
		nb.slab = make([]float64, 0, 512)
	}
	if cap(nb.queries) == 0 {
		nb.queries = make([]NeighborQuery, 0, 32)
	}
	nb.slab, nb.queries, nb.spans = nb.slab[:0], nb.queries[:0], nb.spans[:0]
	b := nb.buf
	_, ok := scanObject(b, skipWS(b, 0), func(key []byte, i int) (bit, end int, ok bool) {
		switch string(key) {
		case "k":
			nb.Req.K, end, ok = scanInt(b, i)
			return keyK, end, ok
		case "deadline_ms":
			nb.Req.DeadlineMS, end, ok = scanInt(b, i)
			return keyDeadline, end, ok
		case "vector":
			off := len(nb.slab)
			if nb.slab, end, ok = scanVector(b, i, nb.slab); ok {
				nb.Req.Vector = make([]float64, len(nb.slab)-off)
				copy(nb.Req.Vector, nb.slab[off:])
				nb.slab = nb.slab[:off]
			}
			return keyVector, end, ok
		case "queries":
			end, ok = scanArray(b, i, nb.scanQuery)
			nb.Req.Queries = nb.queries
			return keyQueries, end, ok
		}
		return 0, i, false
	})
	if !ok {
		return false
	}
	// The slab has stopped growing: point each query at its vector,
	// capacity-limited so an append cannot spill into the next one.
	for qi, s := range nb.spans {
		if s.n >= 0 {
			nb.queries[qi].Vector = nb.slab[s.off : s.off+s.n : s.off+s.n]
		}
	}
	return true
}

// scanQuery decodes one "queries" element at b[i].
func (nb *NeighborsBody) scanQuery(b []byte, i int) (int, bool) {
	var q NeighborQuery
	vec := span{n: -1}
	end, ok := scanObject(b, i, func(key []byte, i int) (bit, end int, ok bool) {
		switch string(key) {
		case "k":
			q.K, end, ok = scanInt(b, i)
			return keyK, end, ok
		case "vector":
			vec.off = len(nb.slab)
			nb.slab, end, ok = scanVector(b, i, nb.slab)
			vec.n = len(nb.slab) - vec.off
			return keyVector, end, ok
		}
		return 0, i, false
	})
	nb.queries = append(nb.queries, q)
	nb.spans = append(nb.spans, vec)
	return end, ok
}

// upsertBody is the pooled memory a /v1/upsert request is decoded
// through: the raw body, and the slab a canonical update's vector is
// scanned into before its copy is cut to length.
type upsertBody struct {
	buf  []byte
	slab []float64
}

var upsertPool = sync.Pool{New: func() any { return new(upsertBody) }}

// ReadUpsertRequest reads r to EOF and decodes it as an UpsertRequest.
// size is the body's length when known (a Content-Length), else -1. The
// error is a read error or encoding/json's decode error for the same
// bytes. Nothing in the request points into pooled memory: the write
// path keeps the vector after the handler returns.
func ReadUpsertRequest(r io.Reader, size int64) (UpsertRequest, error) {
	ub := upsertPool.Get().(*upsertBody)
	var req UpsertRequest
	var err error
	if ub.buf, err = readAll(ub.buf, r, size); err == nil {
		ok := false
		if req, ok = ub.decodeFast(); !ok {
			req = UpsertRequest{}
			err = json.NewDecoder(bytes.NewReader(ub.buf)).Decode(&req)
		}
	}
	ub.buf, ub.slab = reuse(ub.buf), reuse(ub.slab)
	upsertPool.Put(ub)
	return req, err
}

// decodeFast decodes ub.buf if it is a canonical single update,
// reporting false — with the request in no particular state — if it is
// not.
func (ub *upsertBody) decodeFast() (UpsertRequest, bool) {
	var req UpsertRequest
	b := ub.buf
	_, ok := scanObject(b, skipWS(b, 0), func(key []byte, i int) (bit, end int, ok bool) {
		switch string(key) {
		case "id":
			var id graph.NodeID
			if id, end, ok = scanUint32(b, i); ok {
				req.ID = &id
			}
			return keyID, end, ok
		case "vector":
			if ub.slab, end, ok = scanVector(b, i, ub.slab[:0]); ok {
				req.Vector = make([]float64, len(ub.slab)) // an empty vector decodes non-nil
				copy(req.Vector, ub.slab)
			}
			return keyVector, end, ok
		}
		return 0, i, false
	})
	return req, ok
}

// batchAckBody is a shard's NeighborsBatchAck read off the wire, every
// result list carved from one pooled slab.
type batchAckBody struct {
	ack NeighborsBatchAck

	buf   []byte
	slab  []ann.Result
	lists [][]ann.Result
	spans []span
}

var ackPool = sync.Pool{New: func() any { return new(batchAckBody) }}

// readBatchAck reads r to EOF and decodes it as a NeighborsBatchAck.
func readBatchAck(r io.Reader, size int64) (*batchAckBody, error) {
	ab := ackPool.Get().(*batchAckBody)
	var err error
	if ab.buf, err = readAll(ab.buf, r, size); err == nil {
		err = ab.decode()
	}
	if err != nil {
		ab.release()
		return nil, err
	}
	return ab, nil
}

func (ab *batchAckBody) release() {
	ab.ack = NeighborsBatchAck{}
	ab.buf, ab.slab, ab.lists, ab.spans = reuse(ab.buf), reuse(ab.slab), reuse(ab.lists), reuse(ab.spans)
	ackPool.Put(ab)
}

func (ab *batchAckBody) decode() error {
	if ab.decodeFast() {
		return nil
	}
	ab.ack = NeighborsBatchAck{}
	return json.NewDecoder(bytes.NewReader(ab.buf)).Decode(&ab.ack)
}

// decodeFast is NeighborsBody.decodeFast for a canonical
// NeighborsBatchAck.
func (ab *batchAckBody) decodeFast() bool {
	ab.ack = NeighborsBatchAck{}
	if cap(ab.slab) == 0 {
		ab.slab = make([]ann.Result, 0, 512)
	}
	if cap(ab.lists) == 0 {
		ab.lists = make([][]ann.Result, 0, 32)
	}
	ab.slab, ab.lists, ab.spans = ab.slab[:0], ab.lists[:0], ab.spans[:0]
	b := ab.buf
	batches := false
	_, ok := scanObject(b, skipWS(b, 0), func(key []byte, i int) (bit, end int, ok bool) {
		switch string(key) {
		case "batches":
			batches = true
			end, ok = scanArray(b, i, ab.scanList)
			return keyBatches, end, ok
		case "degraded":
			ab.ack.Degraded, end, ok = scanBool(b, i)
			return keyDegraded, end, ok
		case "shards_answered":
			ab.ack.ShardsAnswered, end, ok = scanInt(b, i)
			return keyAnswered, end, ok
		case "shards_total":
			ab.ack.ShardsTotal, end, ok = scanInt(b, i)
			return keyTotal, end, ok
		}
		return 0, i, false
	})
	if !ok {
		return false
	}
	for _, s := range ab.spans {
		ab.lists = append(ab.lists, ab.slab[s.off:s.off+s.n:s.off+s.n])
	}
	if batches {
		ab.ack.Batches = ab.lists
	}
	return true
}

// scanList decodes one "batches" element, a result list, at b[i].
func (ab *batchAckBody) scanList(b []byte, i int) (int, bool) {
	list := span{off: len(ab.slab)}
	end, ok := scanArray(b, i, func(b []byte, i int) (int, bool) {
		var r ann.Result
		end, ok := scanObject(b, i, func(key []byte, i int) (bit, end int, ok bool) {
			switch string(key) {
			case "id":
				r.ID, end, ok = scanUint32(b, i)
				return keyID, end, ok
			case "score":
				r.Score, end, ok = scanFloat(b, i)
				return keyScore, end, ok
			}
			return 0, i, false
		})
		ab.slab = append(ab.slab, r)
		return end, ok
	})
	list.n = len(ab.slab) - list.off
	ab.spans = append(ab.spans, list)
	return end, ok
}

// scanObject walks the JSON object at b[i]. member decodes the value of
// key, which starts at b[j], and returns the key's bit (0 for a key it
// does not take) and the index past the value. scanObject returns the
// index past the closing brace; ok is false for anything but an object
// of distinct keys member takes.
func scanObject(b []byte, i int, member func(key []byte, j int) (bit, end int, ok bool)) (int, bool) {
	if at(b, i) != '{' {
		return i, false
	}
	i = skipWS(b, i+1)
	if at(b, i) == '}' {
		return i + 1, true
	}
	seen := 0
	for {
		key, j, ok := scanKey(b, i)
		if !ok {
			return j, false
		}
		bit := 0
		if bit, i, ok = member(key, j); !ok || bit == 0 || seen&bit != 0 {
			return i, false
		}
		seen |= bit
		more := false
		if i, more, ok = endMember(b, i, '}'); !ok || !more {
			return i, ok
		}
	}
}

// scanArray walks the JSON array at b[i]: elem decodes the element at
// b[j] and returns the index past it. scanArray returns the index past
// the closing bracket.
func scanArray(b []byte, i int, elem func(b []byte, j int) (end int, ok bool)) (int, bool) {
	if at(b, i) != '[' {
		return i, false
	}
	i = skipWS(b, i+1)
	if at(b, i) == ']' {
		return i + 1, true
	}
	for {
		ok, more := false, false
		if i, ok = elem(b, i); !ok {
			return i, false
		}
		if i, more, ok = endMember(b, i, ']'); !ok || !more {
			return i, ok
		}
	}
}

// scanVector appends the JSON array of numbers at b[i] to slab — the
// hot loop of a request, so it does not go through scanArray.
func scanVector(b []byte, i int, slab []float64) ([]float64, int, bool) {
	if at(b, i) != '[' {
		return slab, i, false
	}
	i = skipWS(b, i+1)
	if at(b, i) == ']' {
		return slab, i + 1, true
	}
	for {
		f, end, ok := scanFloat(b, i)
		if !ok {
			return slab, end, false
		}
		slab = append(slab, f)
		more := false
		if i, more, ok = endMember(b, end, ']'); !ok || !more {
			return slab, i, ok
		}
	}
}

// scanKey reads the object key at b[i] through its colon and the
// whitespace after it, returning the key's raw bytes and the index of
// its value. Only a plain quoted key passes — an escape or a control
// character fails it — so only the exact spelling of a key can match.
func scanKey(b []byte, i int) (key []byte, j int, ok bool) {
	if at(b, i) != '"' {
		return nil, i, false
	}
	start := i + 1
	for j = start; at(b, j) != '"'; j++ {
		if c := at(b, j); c < 0x20 || c == '\\' { // 0 past the end
			return nil, j, false
		}
	}
	key = b[start:j]
	j = skipWS(b, j+1)
	if at(b, j) != ':' {
		return nil, j, false
	}
	return key, skipWS(b, j+1), true
}

// endMember steps over the whitespace and separator after a member or
// element: more is true after a comma (j then at the next one), false
// after the closing bracket (j just past it).
func endMember(b []byte, i int, close byte) (j int, more, ok bool) {
	i = skipWS(b, i)
	switch at(b, i) {
	case ',':
		return skipWS(b, i+1), true, true
	case close:
		return i + 1, false, true
	}
	return i, false, false
}

func skipWS(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return i
		}
	}
	return i
}

// scanInt scans a JSON integer encoding/json decodes into an int field
// without complaint: no fraction or exponent, and at most 18 digits, so
// it cannot overflow.
func scanInt(b []byte, i int) (v, end int, ok bool) {
	neg := at(b, i) == '-'
	if neg {
		i++
	}
	start := i
	if at(b, i) == '0' {
		i++
	} else {
		for ; isDigit(at(b, i)); i++ {
			v = v*10 + int(b[i]-'0')
		}
	}
	if n := i - start; n == 0 || n > 18 || !endsNumber(at(b, i)) {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// scanUint32 is scanInt for a node id: no sign, at most MaxUint32.
func scanUint32(b []byte, i int) (v uint32, end int, ok bool) {
	start := i
	var x uint64
	if at(b, i) == '0' {
		i++
	} else {
		for ; isDigit(at(b, i)) && i-start < 11; i++ {
			x = x*10 + uint64(b[i]-'0')
		}
	}
	if n := i - start; n == 0 || n > 10 || x > math.MaxUint32 || !endsNumber(at(b, i)) {
		return 0, i, false
	}
	return uint32(x), i, true
}

// endsNumber reports whether an integer literal ends before c: a digit
// (after a leading zero), a fraction or an exponent would continue it.
func endsNumber(c byte) bool { return !isDigit(c) && c != '.' && c|0x20 != 'e' }

func scanBool(b []byte, i int) (v bool, end int, ok bool) {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(b[i:], []byte("false")):
		return false, i + 5, true
	}
	return false, i, false
}

// appendJSON appends what json.NewEncoder(w).Encode(v) writes.
func appendJSON(b []byte, v any) ([]byte, error) {
	start, ok := len(b), false
	switch v := v.(type) {
	case NeighborsAck:
		b, ok = appendNeighborsAck(b, v)
	case NeighborsBatchAck:
		b, ok = appendNeighborsBatchAck(b, v)
	case UpsertAck:
		b, ok = appendUpsertAck(b, v), true
	}
	if ok {
		return append(b, '\n'), nil
	}
	buf := bytes.NewBuffer(b[:start])
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

// appendUpsertAck appends json.Marshal(a).
func appendUpsertAck(b []byte, a UpsertAck) []byte {
	b = strconv.AppendInt(append(b, `{"upserted":`...), int64(a.Upserted), 10)
	if a.Seq != 0 {
		b = strconv.AppendUint(append(b, `,"seq":`...), a.Seq, 10)
	}
	b = strconv.AppendInt(append(b, `,"nodes":`...), int64(a.Nodes), 10)
	return append(b, '}')
}

// appendNeighborsAck appends json.Marshal(a); ok is false if a holds a
// score encoding/json refuses.
func appendNeighborsAck(b []byte, a NeighborsAck) ([]byte, bool) {
	b = append(b, `{"results":`...)
	b, ok := appendResults(b, a.Results)
	return appendStatus(b, a.SearchStatus), ok
}

// appendNeighborsBatchAck is appendNeighborsAck for a batch.
func appendNeighborsBatchAck(b []byte, a NeighborsBatchAck) ([]byte, bool) {
	b = append(b, `{"batches":`...)
	if a.Batches == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, rs := range a.Batches {
			if i > 0 {
				b = append(b, ',')
			}
			ok := false
			if b, ok = appendResults(b, rs); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	return appendStatus(b, a.SearchStatus), true
}

func appendResults(b []byte, rs []ann.Result) ([]byte, bool) {
	if rs == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i, r := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, uint64(r.ID), 10)
		b = append(b, `,"score":`...)
		ok := false
		if b, ok = appendFloat(b, r.Score); !ok {
			return b, false
		}
		b = append(b, '}')
	}
	return append(b, ']'), true
}

// appendStatus appends SearchStatus's omitempty fields and closes the
// ack object.
func appendStatus(b []byte, s SearchStatus) []byte {
	if s.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if s.ShardsAnswered != 0 {
		b = append(b, `,"shards_answered":`...)
		b = strconv.AppendInt(b, int64(s.ShardsAnswered), 10)
	}
	if s.ShardsTotal != 0 {
		b = append(b, `,"shards_total":`...)
		b = strconv.AppendInt(b, int64(s.ShardsTotal), 10)
	}
	return append(b, '}')
}

// appendScatter appends json.Marshal(NeighborsRequest{Queries: qs})
// for the router's scatter body: at least one query, each carrying a
// vector and a k and no id. ok is false if a coordinate is one
// encoding/json refuses.
func appendScatter(b []byte, qs []NeighborQuery) ([]byte, bool) {
	b = append(b, `{"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if len(q.Vector) > 0 {
			b = append(b, `"vector":[`...)
			for j, x := range q.Vector {
				if j > 0 {
					b = append(b, ',')
				}
				ok := false
				if b, ok = appendFloat(b, x); !ok {
					return b, false
				}
			}
			b = append(b, ']')
		}
		if q.K != 0 {
			if len(q.Vector) > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `"k":`...), int64(q.K), 10)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), true
}

// appendFloat appends f as encoding/json writes a float64: shortest
// round-trip digits, 'f' form inside [1e-6, 1e21) and 'e' form outside
// it with a one-digit negative exponent unpadded. ok is false for NaN
// and ±Inf, which JSON cannot carry.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
