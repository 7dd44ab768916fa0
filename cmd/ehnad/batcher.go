package main

import (
	"context"
	"errors"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"ehna/internal/ann"
)

// errShutdown is returned to queries caught in a daemon shutdown.
var errShutdown = errors.New("server shutting down")

// errOverloaded is returned to queries shed at admission: the queue is
// full, or the predicted queue wait already exceeds the request's
// deadline. The HTTP layer maps it to 429 + Retry-After — the request
// was refused cheaply and retrying later is expected to succeed.
var errOverloaded = errors.New("server overloaded")

// nnRequest is one neighbor query waiting for a batch slot.
type nnRequest struct {
	ctx      context.Context
	vec      []float64
	k        int
	enqueued time.Time
	out      chan nnResponse
}

type nnResponse struct {
	results  []ann.Result
	buf      *resultBuf // release() when done with results; may be nil
	degraded bool       // served at a shrunken ef-search under pressure
	err      error
}

// resultBuf is one coalesced batch's pooled result storage: a slice of
// per-request []Result buffers whose capacity survives across batches,
// so the steady-state query path performs no result allocations. It is
// handed out to every handler served from the batch and returned to the
// pool when the last one releases it.
type resultBuf struct {
	pool *sync.Pool
	refs atomic.Int32
	bufs [][]ann.Result
}

// release returns the buffer to its pool once every consumer is done.
// Safe on nil (error/shutdown responses carry no buffer).
func (rb *resultBuf) release() {
	if rb != nil && rb.refs.Add(-1) == 0 {
		rb.pool.Put(rb)
	}
}

// degradeSustain is how many consecutive flushes must observe queue
// depth past a watermark before the degrader moves ef-search — the
// hysteresis that keeps one bursty flush from thrashing the dial.
const degradeSustain = 4

// degrader is the graceful-degradation controller: under sustained
// queue pressure it halves the HNSW ef-search beam (cheaper, slightly
// lower recall) down to a floor, and restores it by doubling once the
// queue drains. Responses served below the configured beam are flagged
// degraded, so clients know recall was traded for survival. Only the
// batcher's run() goroutine mutates it; readers go through atomics.
type degrader struct {
	graph       *ann.HNSW
	full, floor int          // configured ef-search and the shrink limit
	high, low   int          // queue-depth watermarks
	hot, cool   int          // consecutive samples past a watermark
	cur         atomic.Int64 // ef-search currently applied
	isDegraded  atomic.Bool
	shrinks     atomic.Int64
}

func newDegrader(graph *ann.HNSW, full, floor, queueCap int) *degrader {
	if floor <= 0 || floor >= full {
		return nil
	}
	d := &degrader{
		graph: graph,
		full:  full,
		floor: floor,
		high:  queueCap * 3 / 4,
		low:   queueCap / 4,
	}
	d.cur.Store(int64(full))
	return d
}

// sample feeds one flush's queue-depth observation into the controller,
// setting the graph's beam width when it moves.
func (d *degrader) sample(depth int) {
	if d == nil {
		return
	}
	cur := int(d.cur.Load())
	switch {
	case depth >= d.high:
		d.cool = 0
		if d.hot++; d.hot >= degradeSustain && cur > d.floor {
			d.hot = 0
			if cur /= 2; cur < d.floor {
				cur = d.floor
			}
			d.cur.Store(int64(cur))
			d.graph.SetEfSearch(cur)
			d.shrinks.Add(1)
			d.isDegraded.Store(true)
			log.Printf("ehnad: queue depth %d >= %d sustained; degrading ef-search to %d (floor %d)",
				depth, d.high, cur, d.floor)
		}
	case depth <= d.low:
		d.hot = 0
		if d.cool++; d.cool >= degradeSustain && cur < d.full {
			d.cool = 0
			if cur *= 2; cur > d.full {
				cur = d.full
			}
			d.cur.Store(int64(cur))
			d.graph.SetEfSearch(cur)
			d.isDegraded.Store(cur < d.full)
			log.Printf("ehnad: queue pressure cleared; restoring ef-search to %d (full %d)", cur, d.full)
		}
	default:
		d.hot, d.cool = 0, 0
	}
}

// degradedNow reports whether searches are currently served below the
// configured beam width. Safe on nil and from any goroutine.
func (d *degrader) degradedNow() bool { return d != nil && d.isDegraded.Load() }

// efNow reports the beam width currently applied (0 when inactive).
func (d *degrader) efNow() int {
	if d == nil {
		return 0
	}
	return int(d.cur.Load())
}

// batcher coalesces concurrent single-query /v1/neighbors requests into
// one index pass: the first arrival opens a window, everything landing
// within it (up to maxBatch) rides the same flush. Under load this
// amortizes per-query overhead; an idle daemon pays at most the window
// in extra latency. Each flush answers its queries through SearchInto
// on pooled buffers — the allocating Search veneer never runs, keeping
// the daemon's steady-state query path allocation-free end to end.
//
// Admission is bounded: the queue holds at most queueDepth requests and
// do() never blocks on a full queue — it sheds with errOverloaded, as
// it does when the predicted queue wait (an EWMA of flush latency,
// scaled by the backlog) already exceeds the request's deadline.
// Requests whose deadline expires while queued are answered with their
// context error at flush time without ever being searched.
type batcher struct {
	index    ann.Index
	in       chan nnRequest
	maxBatch int
	window   time.Duration
	stop     chan struct{}
	bufPool  sync.Pool
	errs     []error // flush scratch; only the run() goroutine touches it
	deg      *degrader
	flushNs  atomic.Int64 // EWMA of one flush's wall time, for predicted wait
}

func newBatcher(index ann.Index, maxBatch int, window time.Duration, queueDepth int, deg *degrader) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queueDepth < maxBatch {
		queueDepth = 4 * maxBatch
	}
	b := &batcher{
		index:    index,
		in:       make(chan nnRequest, queueDepth),
		maxBatch: maxBatch,
		window:   window,
		stop:     make(chan struct{}),
		deg:      deg,
	}
	b.bufPool.New = func() any { return &resultBuf{pool: &b.bufPool} }
	go b.run()
	return b
}

// predictedWait estimates how long a request arriving now would sit in
// the queue: the number of flushes ahead of it times the smoothed cost
// of one flush. Zero until the first flush has been measured.
func (b *batcher) predictedWait() time.Duration {
	ewma := b.flushNs.Load()
	if ewma == 0 {
		return 0
	}
	flushesAhead := int64(len(b.in)/b.maxBatch + 1)
	return time.Duration(flushesAhead * ewma)
}

// do submits one query and blocks for its result. The caller must
// release() the returned buffer after it is done reading (and mutating
// — trimSelf filters in place) the results. Admission can refuse: a
// full queue or a deadline the predicted wait would blow sheds with
// errOverloaded instead of queueing doomed work, and a closed batcher
// fails fast instead of blocking forever (req.out is buffered, so a
// flush racing the shutdown reply is dropped harmlessly).
func (b *batcher) do(ctx context.Context, vec []float64, k int) ([]ann.Result, *resultBuf, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, false, err
	}
	// Predictive shed never fires on an empty queue: the EWMA only
	// updates when a flush runs, so if every request were refused on a
	// stale (storm-inflated) estimate, no flush would ever re-measure
	// it and the batcher would shed forever. An empty queue always
	// admits a probe; its flush refreshes the EWMA within a few rounds.
	if dl, ok := ctx.Deadline(); ok && len(b.in) > 0 {
		if wait := b.predictedWait(); wait > time.Until(dl) {
			shedDeadline.Inc()
			return nil, nil, false, errOverloaded
		}
	}
	req := nnRequest{ctx: ctx, vec: vec, k: k, enqueued: time.Now(), out: make(chan nnResponse, 1)}
	select {
	case b.in <- req:
	case <-b.stop:
		return nil, nil, false, errShutdown
	default:
		shedQueueFull.Inc()
		return nil, nil, false, errOverloaded
	}
	select {
	case resp := <-req.out:
		return resp.results, resp.buf, resp.degraded, resp.err
	case <-b.stop:
		return nil, nil, false, errShutdown
	case <-ctx.Done():
		// The flush will notice the expired context (before or during the
		// search) and answer into the buffered channel; returning now just
		// keeps the caller's latency bounded by its own deadline.
		return nil, nil, false, ctx.Err()
	}
}

func (b *batcher) close() { close(b.stop) }

func (b *batcher) run() {
	for {
		var first nnRequest
		select {
		case first = <-b.in:
		case <-b.stop:
			b.drain()
			return
		}
		batch := []nnRequest{first}
		if b.window > 0 {
			deadline := time.NewTimer(b.window)
		gather:
			for len(batch) < b.maxBatch {
				select {
				case req := <-b.in:
					batch = append(batch, req)
				case <-deadline.C:
					break gather
				case <-b.stop:
					deadline.Stop()
					b.flush(batch)
					b.drain()
					return
				}
			}
			deadline.Stop()
		} else {
			// No window: still drain whatever is already queued.
		drain:
			for len(batch) < b.maxBatch {
				select {
				case req := <-b.in:
					batch = append(batch, req)
				default:
					break drain
				}
			}
		}
		b.flush(batch)
	}
}

// drain rejects whatever was buffered in b.in at shutdown so no do()
// caller is left waiting (out channels are buffered; sends never block).
func (b *batcher) drain() {
	for {
		select {
		case req := <-b.in:
			req.out <- nnResponse{err: errShutdown}
		default:
			return
		}
	}
}

// flush executes a gathered batch through SearchInto on this batch's
// pooled buffers, each query at its own k and under its own context,
// and fans the results back out. Requests whose deadline lapsed while
// queued are answered with their context error without being searched
// — work for a caller who stopped waiting is pure waste. Lone queries
// (the idle-daemon common case) run inline; ann.ParallelFor spreads
// larger batches across GOMAXPROCS workers.
func (b *batcher) flush(batch []nnRequest) {
	start := time.Now()
	b.deg.sample(len(b.in))
	degraded := b.deg.degradedNow()

	live := 0
	for _, req := range batch {
		queueWaitHist.Observe(int64(start.Sub(req.enqueued)))
		if err := req.ctx.Err(); err != nil {
			expiredInQueue.Inc()
			req.out <- nnResponse{err: err}
			continue
		}
		batch[live] = req
		live++
	}
	batch = batch[:live]
	if live == 0 {
		return
	}
	acceptedTotal.Add(uint64(live))
	batchSizeHist.Observe(int64(live))

	rb := b.bufPool.Get().(*resultBuf)
	for len(rb.bufs) < len(batch) {
		rb.bufs = append(rb.bufs, nil)
	}
	rb.refs.Store(int32(len(batch)))

	for len(b.errs) < len(batch) {
		b.errs = append(b.errs, nil)
	}
	errs := b.errs[:len(batch)]
	ann.ParallelFor(len(batch), func(i int) {
		out, err := b.index.SearchInto(batch[i].ctx, rb.bufs[i][:0], batch[i].vec, batch[i].k)
		if err == nil {
			rb.bufs[i] = out // keep the (possibly grown) buffer for reuse
		}
		errs[i] = err
	})
	flushDur := time.Since(start)
	batchFlushHist.Observe(int64(flushDur))
	// EWMA (α = ¼) of flush cost feeds predictedWait: smooth enough to
	// ignore one outlier, fresh enough to track a load shift.
	if old := b.flushNs.Load(); old == 0 {
		b.flushNs.Store(int64(flushDur))
	} else {
		b.flushNs.Store(old + (int64(flushDur)-old)/4)
	}

	for i, req := range batch {
		if errs[i] != nil {
			rb.release() // this request carries no buffer reference
			req.out <- nnResponse{err: errs[i]}
			continue
		}
		req.out <- nnResponse{results: rb.bufs[i], buf: rb, degraded: degraded}
	}
}
