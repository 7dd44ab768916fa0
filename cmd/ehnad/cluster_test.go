package main

// Multi-process cluster failover e2e, in the crash-harness style: real
// daemon processes (re-exec'd via TestCrashDaemonHelper), a real
// SIGKILL of a shard leader mid-stream, and an in-process router with
// auto-failover. The invariant under test is the cluster's durability
// contract: every write acked with seq ≤ the promotion watermark
// survives failover byte-for-byte; acked writes past the watermark are
// the client's to re-drive (the router surfaces per-shard seqs exactly
// so clients can).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/graph"
)

// clusterAck is the router's per-shard write acknowledgment: the seq
// is the shard leader's WAL position for the op — the token the
// acked-prefix invariant is stated in.
type clusterAck struct {
	Shards map[string]struct {
		Count int    `json:"count"`
		Seq   uint64 `json:"seq"`
		Error string `json:"error"`
	} `json:"shards"`
}

// postRouterOp drives one mutation through the router and returns the
// per-shard acks. Non-200 is an error (nothing was acked to keep).
func postRouterOp(client *http.Client, base string, op crashOp) (clusterAck, error) {
	path, body := "/v1/upsert", map[string]any{"id": op.id, "vector": op.vec}
	if op.del {
		path, body = "/v1/delete", map[string]any{"id": op.id}
	}
	b, _ := json.Marshal(body)
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return clusterAck{}, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return clusterAck{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var ack clusterAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return clusterAck{}, err
	}
	return ack, nil
}

func TestClusterFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns three daemon processes and fsyncs every write; skipped under -short")
	}
	client := &http.Client{Timeout: 15 * time.Second}

	// Topology: shard a = leader + follower, shard b = lone leader.
	cmdA, urlA := startCrashHelper(t, t.TempDir())
	cmdB, urlB := startCrashHelper(t, t.TempDir())
	_, urlF := startCrashHelper(t, t.TempDir(), "EHNAD_FOLLOW="+urlA)

	m, err := cluster.NewShardMap(1, []cluster.ShardSpec{
		{Name: "a", Endpoints: []string{urlA, urlF}},
		{Name: "b", Endpoints: []string{urlB}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Map:             m,
		DefaultDeadline: 10 * time.Second,
		HealthInterval:  50 * time.Millisecond,
		FailAfter:       2,
		AutoFailover:    true,
		Logf:            log.Printf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.Run(ctx)
	tsR := httptest.NewServer(rt.Handler())
	defer tsR.Close()

	// Per-shard references mirror acked ops only, in ack order — the
	// state the durability contract promises to preserve.
	refs := map[string]*embstore.Store{}
	for _, name := range []string{"a", "b"} {
		ref, err := embstore.New(crashDim, embstore.F32)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = ref
	}
	shardName := func(op crashOp) string { return m.Shards[m.Owner(op.id)].Name }

	type ackedOp struct {
		op  crashOp
		seq uint64
	}
	var ackedA []ackedOp

	drive := func(op crashOp, patient bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			ack, err := postRouterOp(client, tsR.URL, op)
			if err == nil {
				name := shardName(op)
				op.applyTo(t, refs[name])
				if name == "a" {
					ackedA = append(ackedA, ackedOp{op, ack.Shards["a"].Seq})
				}
				return
			}
			if !patient || time.Now().After(deadline) {
				t.Fatalf("router write never acked: %v", err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// ---- Phase 1: write stream through the router, both shards live.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := 0; i < 120; i++ {
		drive(randomCrashOp(rng), false)
	}
	if len(ackedA) == 0 || len(ackedA) == 120 {
		t.Fatalf("degenerate placement: %d/120 ops on shard a", len(ackedA))
	}

	// ---- Phase 2: SIGKILL shard a's leader mid-stream; the router's
	// health loop promotes the follower.
	if err := cmdA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmdA.Wait()

	var promoteSeq uint64
	waitUntil := time.Now().Add(20 * time.Second)
	for {
		st, err := cluster.FetchReplStatus(context.Background(), client, urlF)
		if err == nil && st.Role == "leader" {
			promoteSeq = st.Applied
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatalf("follower never promoted (last status: %+v, err %v)", st, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Acked-prefix equality: the promoted node's state must be exactly
	// the acked shard-a ops with seq ≤ the promotion watermark.
	prefixRef, err := embstore.New(crashDim, embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	var lost []crashOp
	for _, a := range ackedA {
		if a.seq <= promoteSeq {
			a.op.applyTo(t, prefixRef)
		} else {
			lost = append(lost, a.op)
		}
	}
	if got, _ := exportStore(t, client, urlF); !got.Equal(prefixRef) {
		t.Fatalf("promoted follower diverges from the acked prefix (watermark %d, %d acked ops, %d past watermark)",
			promoteSeq, len(ackedA), len(lost))
	}
	t.Logf("promoted at seq %d; %d/%d shard-a acks past the watermark to re-drive", promoteSeq, len(lost), len(ackedA))

	// Re-drive the acked-but-unreplicated suffix in original order —
	// what a seq-tracking client does after a failover notification.
	for _, op := range lost {
		drive(op, true)
	}

	// ---- Phase 3: the promoted follower owns shard-a writes now.
	for i := 0; i < 30; i++ {
		drive(randomCrashOp(rng), true)
	}

	// Per-shard durable images match the references end to end.
	if got, _ := exportStore(t, client, urlF); !got.Equal(refs["a"]) {
		t.Fatal("shard a (promoted follower) diverges from acked reference")
	}
	if got, _ := exportStore(t, client, urlB); !got.Equal(refs["b"]) {
		t.Fatal("shard b diverges from acked reference")
	}

	// ---- Phase 4: scatter-gather quality. Recall@10 of router answers
	// vs an exact scan over the union reference.
	union, err := embstore.New(crashDim, embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		for _, id := range ref.IDs() {
			vec, ok := ref.Get(id)
			if !ok {
				t.Fatalf("id %d vanished from a shard reference", id)
			}
			if err := union.Upsert(id, vec); err != nil {
				t.Fatal(err)
			}
		}
	}
	exact := ann.NewExact(union, ann.Cosine)
	ids := union.IDs()
	if len(ids) < 12 {
		t.Fatalf("too few survivors for a recall check: %d", len(ids))
	}
	const k = 10
	var recallSum float64
	queries := 0
	for _, qid := range ids {
		if queries == 20 {
			break
		}
		vec, ok := union.Get(qid)
		if !ok {
			t.Fatalf("id %d vanished from the union reference", qid)
		}
		exactRes, err := exact.Search(vec, k+1)
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.NodeID
		for _, rres := range exactRes {
			if rres.ID != qid && len(want) < k {
				want = append(want, rres.ID)
			}
		}
		var nresp struct {
			Results []ann.Result `json:"results"`
		}
		status, body := postJSON(t, tsR.URL+"/v1/neighbors", map[string]any{"id": int(qid), "k": k}, &nresp)
		if status != http.StatusOK {
			t.Fatalf("router search got %d (%s)", status, body)
		}
		got := make([]graph.NodeID, 0, len(nresp.Results))
		for _, rres := range nresp.Results {
			got = append(got, rres.ID)
		}
		rec, err := eval.RecallAtK(got, want)
		if err != nil {
			t.Fatal(err)
		}
		recallSum += rec
		queries++
	}
	if mean := recallSum / float64(queries); mean < 0.95 {
		t.Fatalf("recall@10 through the router = %.3f over %d queries, want >= 0.95", mean, queries)
	}

	// ---- Phase 5: partial-result degradation. Shard b has no replica,
	// so killing it must turn searches partial (degraded:true), never
	// dark: vector queries keep answering from shard a alone.
	if err := cmdB.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmdB.Wait()
	probe := make([]float64, crashDim)
	probe[0] = 1
	waitUntil = time.Now().Add(20 * time.Second)
	for {
		var dresp struct {
			Results        []ann.Result `json:"results"`
			Degraded       bool         `json:"degraded"`
			ShardsAnswered int          `json:"shards_answered"`
			ShardsTotal    int          `json:"shards_total"`
		}
		status, body := postJSON(t, tsR.URL+"/v1/neighbors", map[string]any{"vector": probe, "k": 3}, &dresp)
		if status != http.StatusOK {
			t.Fatalf("search with a dark shard got %d (%s), want a degraded 200", status, body)
		}
		if dresp.Degraded {
			if dresp.ShardsAnswered != 1 || dresp.ShardsTotal != 2 {
				t.Fatalf("degraded response counts = %d/%d, want 1/2", dresp.ShardsAnswered, dresp.ShardsTotal)
			}
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatal("searches never reported degraded after shard b died")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
