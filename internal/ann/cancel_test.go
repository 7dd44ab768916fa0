package ann

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// flipCtx is a context whose entry check passes (Err returns nil the
// first time) but whose Done channel is already closed, so the only
// way a search can observe the cancellation is through the mid-scan
// cooperative polls. That makes "the search stopped at beam/scan
// granularity, not just at the front door" deterministic to assert.
type flipCtx struct {
	done     chan struct{}
	errCalls atomic.Int32
}

func newFlipCtx() *flipCtx {
	c := &flipCtx{done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }
func (c *flipCtx) Err() error {
	if c.errCalls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}
func (c *flipCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *flipCtx) Value(any) any               { return nil }

// TestSearchIntoCancelMidSearch runs every index type against a store
// large enough that a full scan is unmistakable, with a context that
// is only observable as canceled through the cooperative polls. A
// search that ignored cancellation would return k results and no
// error; the required behavior is context.Canceled and no results.
func TestSearchIntoCancelMidSearch(t *testing.T) {
	store := buildStore(t, 5000, 16)
	hnsw, err := BuildHNSW(store, DefaultHNSWConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, 16)
	for i := range q {
		q[i] = float64(i) - 8
	}
	for name, idx := range map[string]Index{
		"exact": NewExact(store, Cosine),
		"hnsw":  hnsw,
	} {
		dst := make([]Result, 0, 10)
		got, err := idx.SearchInto(newFlipCtx(), dst, q, 10)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if len(got) != 0 {
			t.Errorf("%s: returned %d results from a canceled search", name, len(got))
		}
	}
}

// TestSearchIntoExpiredAtEntry checks the front door: a context that
// is already expired returns its error before any scanning happens.
func TestSearchIntoExpiredAtEntry(t *testing.T) {
	store := buildStore(t, 100, 8)
	idx := NewExact(store, Cosine)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q := make([]float64, 8)
	if _, err := idx.SearchInto(ctx, nil, q, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSearchIntoCancelConcurrent cancels a live context while queries
// are in flight and checks every query either completes with valid
// results or reports the cancellation — never a torn in-between.
func TestSearchIntoCancelConcurrent(t *testing.T) {
	store := buildStore(t, 3000, 16)
	idx := NewExact(store, Cosine)
	q := make([]float64, 16)
	for i := range q {
		q[i] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			dst := make([]Result, 0, 10)
			for i := 0; i < 200; i++ {
				got, err := idx.SearchInto(ctx, dst, q, 10)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						done <- err
						return
					}
					done <- nil
					return
				}
				if len(got) != 10 {
					done <- errors.New("short result set without error")
					return
				}
			}
			done <- nil
		}()
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSearchBatchCanceled checks the batch path propagates ctx errors.
func TestSearchBatchCanceled(t *testing.T) {
	store := buildStore(t, 2000, 16)
	idx := NewExact(store, Cosine)
	qs := make([][]float64, 16)
	for i := range qs {
		qs[i] = make([]float64, 16)
	}
	if _, err := idx.SearchBatch(newFlipCtx(), qs, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
