package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"ehna/internal/graph"
	"ehna/internal/wal"
)

// stubLeader serves /v1/repl/stream from an in-memory record list
// using the real wire codec, so the client is tested against exactly
// the frames a daemon would ship.
type stubLeader struct {
	mu        sync.Mutex
	recs      []wal.Record // recs[i].Seq == truncated+i+1
	truncated uint64       // seqs ≤ truncated are gone (snapshot watermark)
	srv       *httptest.Server
}

func newStubLeader() *stubLeader {
	s := &stubLeader{}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/stream", s.stream)
	s.srv = httptest.NewServer(mux)
	return s
}

func (s *stubLeader) append(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		seq := s.truncated + uint64(len(s.recs)) + 1
		s.recs = append(s.recs, wal.Record{
			Seq: seq, Op: wal.OpUpsert, ID: graph.NodeID(seq % 32),
			Vec: []float64{float64(seq), float64(seq) / 2},
		})
	}
}

func (s *stubLeader) stream(w http.ResponseWriter, r *http.Request) {
	after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	s.mu.Lock()
	recs, truncated := s.recs, s.truncated
	s.mu.Unlock()
	last := truncated + uint64(len(recs))
	w.Header().Set(LastSeqHeader, fmt.Sprint(last))
	if after < truncated {
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(map[string]uint64{"watermark": truncated})
		return
	}
	enc := wal.NewEncoder(w)
	for _, rec := range recs {
		if rec.Seq > after {
			if err := enc.Encode(rec); err != nil {
				return
			}
		}
	}
}

// TestReplClientCatchUpAndTail streams an existing history longer than
// replBatchMax, then new appends, and checks the follower applies every
// record exactly once in order with leader seqs preserved, in Apply
// calls of at most replBatchMax records.
func TestReplClientCatchUpAndTail(t *testing.T) {
	leader := newStubLeader()
	defer leader.srv.Close()
	const history = 2*replBatchMax + 100
	leader.append(history)

	var mu sync.Mutex
	var applied []wal.Record
	var calls []int // records per Apply call
	watermark := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		if len(applied) == 0 {
			return 0
		}
		return applied[len(applied)-1].Seq
	}
	rc := &ReplClient{
		Leader: leader.srv.URL,
		Apply: func(recs []wal.Record) error {
			mu.Lock()
			applied = append(applied, recs...)
			calls = append(calls, len(recs))
			mu.Unlock()
			return nil
		},
		Applied: watermark,
		Logf:    t.Logf,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { rc.Run(ctx); close(done) }()

	waitFor := func(want uint64) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for watermark() != want {
			select {
			case <-deadline:
				t.Fatalf("applied watermark %d, want %d", watermark(), want)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	waitFor(history)
	leader.append(37)
	waitFor(history + 37)
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(applied) != history+37 {
		t.Fatalf("applied %d records, want %d (duplicates or drops)", len(applied), history+37)
	}
	if len(calls) < 2 {
		t.Fatalf("%d Apply calls for %d records, want at least 2", len(calls), len(applied))
	}
	for i, n := range calls {
		if n > replBatchMax {
			t.Fatalf("Apply call %d got %d records, more than replBatchMax %d", i, n, replBatchMax)
		}
	}
	for i, r := range applied {
		if r.Seq != uint64(i+1) {
			t.Fatalf("applied[%d].Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
	if rc.LeaderSeq() != history+37 {
		t.Fatalf("LeaderSeq = %d, want %d", rc.LeaderSeq(), history+37)
	}
}

// TestReplClientGapSignalsBootstrap starts a follower behind a
// truncated leader and checks OnGap fires with the leader watermark
// instead of silently skipping records.
func TestReplClientGapSignalsBootstrap(t *testing.T) {
	leader := newStubLeader()
	defer leader.srv.Close()
	leader.mu.Lock()
	leader.truncated = 50
	leader.mu.Unlock()
	leader.append(10) // seqs 51..60

	gapCh := make(chan uint64, 1)
	rc := &ReplClient{
		Leader:  leader.srv.URL,
		Apply:   func([]wal.Record) error { return nil },
		Applied: func() uint64 { return 3 }, // far behind the truncation
		OnGap: func(wm uint64) error {
			select {
			case gapCh <- wm:
			default:
			}
			return nil
		},
		Logf: t.Logf,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rc.Run(ctx)
	select {
	case wm := <-gapCh:
		if wm != 50 {
			t.Fatalf("OnGap watermark = %d, want 50", wm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnGap never fired")
	}
}

// TestReplClientRejectsDiscontinuity feeds a stream that skips a seq
// and checks the batch before the gap applies while nothing after the
// discontinuity does.
func TestReplClientRejectsDiscontinuity(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/stream", func(w http.ResponseWriter, r *http.Request) {
		enc := wal.NewEncoder(w)
		enc.Encode(wal.Record{Seq: 1, Op: wal.OpDelete, ID: 1})
		enc.Encode(wal.Record{Seq: 2, Op: wal.OpDelete, ID: 2})
		enc.Encode(wal.Record{Seq: 4, Op: wal.OpDelete, ID: 4}) // gap: 3 missing
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var mu sync.Mutex
	var seqs []uint64
	rc := &ReplClient{
		Leader: srv.URL,
		Apply: func(recs []wal.Record) error {
			mu.Lock()
			for _, r := range recs {
				seqs = append(seqs, r.Seq)
			}
			mu.Unlock()
			return nil
		},
		Applied: func() uint64 {
			mu.Lock()
			defer mu.Unlock()
			if len(seqs) == 0 {
				return 0
			}
			return seqs[len(seqs)-1]
		},
		Logf: t.Logf,
	}
	n, err := rc.round(context.Background(), &http.Client{})
	if err == nil {
		t.Fatal("round accepted a seq discontinuity")
	}
	mu.Lock()
	defer mu.Unlock()
	if n != 2 || len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("applied %v (n=%d), want the contiguous prefix [1 2]", seqs, n)
	}
}
