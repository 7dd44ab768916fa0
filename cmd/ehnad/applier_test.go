package main

// Tests for the single applier: whichever way a mutation reaches the
// daemon — HTTP with or without a log, boot replay, the replication
// stream — it goes through durable.apply and leaves the same state.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"ehna/internal/ann"
	"ehna/internal/embstore"
	"ehna/internal/faultfs"
	"ehna/internal/graph"
	"ehna/internal/wal"
)

// applierStep is one request of the shared op sequence and the ack it
// must draw from every daemon that takes writes.
type applierStep struct {
	name   string
	path   string
	body   map[string]any
	status int
	count  string  // the ack's count key
	want   float64 // and its value
}

func TestOneApplierEveryPath(t *testing.T) {
	const dim = crashDim
	rng := rand.New(rand.NewSource(11))
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	var batch []map[string]any
	for id := 10; id < 30; id++ {
		batch = append(batch, map[string]any{"id": id, "vector": vec()})
	}
	batch = append(batch, map[string]any{"id": 2, "vector": vec()}) // an overwrite inside a batch
	steps := []applierStep{
		{"insert", "/v1/upsert", map[string]any{"id": 1, "vector": vec()}, 200, "upserted", 1},
		{"insert", "/v1/upsert", map[string]any{"id": 2, "vector": vec()}, 200, "upserted", 1},
		{"overwrite", "/v1/upsert", map[string]any{"id": 1, "vector": vec()}, 200, "upserted", 1},
		{"multi-update batch", "/v1/upsert", map[string]any{"updates": batch}, 200, "upserted", float64(len(batch))},
		{"delete", "/v1/delete", map[string]any{"id": 12}, 200, "deleted", 1},
		{"delete-missing", "/v1/delete", map[string]any{"ids": []int{12, 999, 13}}, 200, "deleted", 1},
		{"wrong-dim", "/v1/upsert", map[string]any{"updates": []map[string]any{
			{"id": 40, "vector": vec()}, {"id": 41, "vector": []float64{1, 2}},
		}}, 400, "", 0},
	}

	boot := func(cfg serverConfig) (*server, string) {
		t.Helper()
		srv, err := buildServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.handler())
		t.Cleanup(func() { ts.Close(); srv.close() })
		return srv, ts.URL
	}
	plainCfg := crashTestConfig("")
	walCfg := crashTestConfig(t.TempDir())
	plain, plainURL := boot(plainCfg)
	logged, loggedURL := boot(walCfg)
	followCfg := crashTestConfig(t.TempDir())
	followCfg.follow = loggedURL
	follower, _ := boot(followCfg)

	var lastSeq float64
	for _, st := range steps {
		for _, d := range []struct {
			url    string
			hasLog bool
		}{{plainURL, false}, {loggedURL, true}} {
			status, raw := postJSON(t, d.url+st.path, st.body, nil)
			if status != st.status {
				t.Fatalf("%s (log %v): status %d, want %d: %s", st.name, d.hasLog, status, st.status, raw)
			}
			if status != http.StatusOK {
				continue
			}
			var ack map[string]any
			if err := json.Unmarshal([]byte(raw), &ack); err != nil {
				t.Fatal(err)
			}
			seq, hasSeq := ack["seq"].(float64)
			_, hasNodes := ack["nodes"]
			wantKeys := 2
			if d.hasLog {
				wantKeys = 3
			}
			if ack[st.count] != st.want || !hasNodes || hasSeq != d.hasLog || len(ack) != wantKeys {
				t.Fatalf("%s (log %v): ack %s, want {%s: %v, nodes, seq only with a log}", st.name, d.hasLog, raw, st.count, st.want)
			}
			if d.hasLog {
				if seq <= lastSeq {
					t.Fatalf("%s: ack seq %v does not advance past %v", st.name, seq, lastSeq)
				}
				lastSeq = seq
			}
		}
	}
	if got := logged.dur.applied(); float64(got) != lastSeq {
		t.Fatalf("log holds %d records, last ack was seq %v", got, lastSeq)
	}
	waitConverged(t, follower, logged, logged.dur.applied())
	follower.repl.stop() // its leader is about to go away

	// The fourth path: the same log, replayed by a fresh boot.
	logged.close()
	replayed, _ := boot(walCfg)
	if replayed.dur.replayed != int(lastSeq) {
		t.Fatalf("reboot replayed %d records, want %v", replayed.dur.replayed, lastSeq)
	}

	paths := map[string]*server{"wal": logged, "replay": replayed, "follower": follower}
	probes := [][]float64{vec(), vec(), vec(), mustGet(t, plain.store, 2)}
	for name, srv := range paths {
		if srv.store.Len() != plain.store.Len() || !srv.store.Equal(plain.store) {
			t.Errorf("%s store differs from the no-WAL daemon's (%d vs %d nodes)", name, srv.store.Len(), plain.store.Len())
		}
		for i, q := range probes {
			want, err := plain.index.SearchInto(context.Background(), nil, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := srv.index.SearchInto(context.Background(), nil, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s probe %d: %d results, want %d", name, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("%s probe %d rank %d: %+v, want %+v", name, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestReplicateDivergedLeavesLogWritable: a replicated batch that does
// not continue the log is refused before anything is written or
// applied — a protocol disagreement, which must not cost the daemon its
// write path the way a persistence failure does.
func TestReplicateDivergedLeavesLogWritable(t *testing.T) {
	srv, err := buildServer(crashTestConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	id, v := graph.NodeID(1), make([]float64, crashDim)
	v[0] = 1
	gap := []wal.Record{{Seq: srv.dur.applied() + 5, Op: wal.OpUpsert, ID: id, Vec: v}}
	if err := srv.dur.replicate(gap); !errors.Is(err, wal.ErrDiverged) {
		t.Fatalf("replicate across a gap: err = %v, want wal.ErrDiverged", err)
	}
	if !srv.dur.node.load().writable() || srv.store.Len() != 0 {
		t.Fatalf("diverged batch: read-only %v, %d nodes applied; want a writable, untouched daemon",
			!srv.dur.node.load().writable(), srv.store.Len())
	}
	next := []wal.Record{{Seq: srv.dur.applied() + 1, Op: wal.OpUpsert, ID: id, Vec: v}}
	if err := srv.dur.replicate(next); err != nil || srv.dur.applied() != 1 || srv.store.Len() != 1 {
		t.Fatalf("contiguous batch after the refusal: err %v, applied %d, %d nodes", err, srv.dur.applied(), srv.store.Len())
	}
}

// TestExportWithoutWALHoldsWholeBatches: /v1/export takes its image
// under the applier lock whether or not there is a log, so an export
// racing multi-update upserts sees each batch whole or not at all.
func TestExportWithoutWALHoldsWholeBatches(t *testing.T) {
	const dim, width, rounds = 4, 64, 200
	store, err := embstore.New(dim, embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serverConfig{index: testIndexOptions("exact")}, store, ann.NewExact(store, ann.Cosine))
	ts := httptest.NewServer(srv.handler())
	defer func() { ts.Close(); srv.close() }()

	// Every batch overwrites the same ids with its own round number.
	var wg sync.WaitGroup
	defer wg.Wait() // before the server goes away
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 1; r <= rounds; r++ {
			updates := make([]map[string]any, width)
			for i := range updates {
				updates[i] = map[string]any{"id": i, "vector": []float64{float64(r), 1, 0, 0}}
			}
			body, _ := json.Marshal(map[string]any{"updates": updates})
			resp, err := http.Post(ts.URL+"/v1/upsert", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("round %d: %v", r, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("round %d: status %d", r, resp.StatusCode)
				return
			}
		}
	}()
	for done := false; !done && !t.Failed(); {
		done = store.Len() == width && mustGet(t, store, 0)[0] == rounds
		img, wm := exportStore(t, http.DefaultClient, ts.URL)
		if wm != 0 {
			t.Fatalf("export without a log stamped watermark %d", wm)
		}
		if img.Len() != 0 && img.Len() != width {
			t.Fatalf("export holds %d of a %d-update batch", img.Len(), width)
		}
		for i := 1; i < img.Len(); i++ {
			if a, b := mustGet(t, img, 0)[0], mustGet(t, img, graph.NodeID(i))[0]; a != b {
				t.Fatalf("export mixes batches: id 0 from round %v, id %d from round %v", a, i, b)
			}
		}
	}
}

// TestSnapshotKeepsGraphParameters: a snapshot rotation writes the live
// graph's parameters. A graph loaded from a snapshot keeps the M and
// ef-construction it was built with whatever the flags say, and the
// graph file a rotation writes must too — along with the ef-search in
// force when it ran — and no tombstone.
func TestSnapshotKeepsGraphParameters(t *testing.T) {
	const dim, n = 8, 200
	dir := t.TempDir()
	store, err := embstore.New(dim, embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	v := make([]float64, dim)
	for id := 0; id < n; id++ {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if err := store.Upsert(graph.NodeID(id), v); err != nil {
			t.Fatal(err)
		}
	}
	hcfg := ann.DefaultHNSWConfig()
	hcfg.M, hcfg.EfConstruction = 8, 100
	built, err := ann.BuildHNSW(store, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := walConfigAt(dir, embstore.F32, dim)
	cfg.index.graphPath = dir + "/graph.gob"
	if err := faultfs.WriteFileAtomic(faultfs.OS(), cfg.index.graphPath, func(f faultfs.File) error { return built.SaveGraph(f) }); err != nil {
		t.Fatal(err)
	}
	if err := writeStoreSnapshotV3(faultfs.OS(), walSnapshotV3Path(dir), store, 0); err != nil {
		t.Fatal(err)
	}

	srv, err := buildServer(cfg) // cfg.index.m and efConstruction are the flag defaults, 16 and 200
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	loaded := srv.index.(*ann.HNSW)
	if got := loaded.Config(); got.M != 8 || got.EfConstruction != 100 {
		t.Fatalf("loaded graph has M=%d ef-construction=%d, want the snapshot's 8/100", got.M, got.EfConstruction)
	}
	loaded.SetEfSearch(17) // what the degrader does under pressure
	if _, _, err := srv.dur.delete([]graph.NodeID{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if status, raw := postJSON(t, ts.URL+"/v1/admin/snapshot", map[string]any{}, nil); status != http.StatusOK {
		t.Fatalf("snapshot rotation: status %d: %s", status, raw)
	}
	b, err := os.ReadFile(cfg.index.graphPath)
	if err != nil {
		t.Fatal(err)
	}
	// The pair as a reboot reads it.
	rotated, _, err := embstore.LoadSnapshotV3(walSnapshotV3Path(dir), embstore.DefaultShards)
	if err != nil {
		t.Fatal(err)
	}
	written, err := ann.LoadHNSWGraph(bytes.NewReader(b), rotated)
	if err != nil {
		t.Fatal(err)
	}
	if got := written.Config(); got.M != 8 || got.EfConstruction != 100 || got.EfSearch != 17 {
		t.Fatalf("rotated graph file has M=%d ef-construction=%d ef-search=%d, want 8/100/17",
			got.M, got.EfConstruction, got.EfSearch)
	}
	// The header's slot count (bytes 28–32) counts tombstones too.
	if alive, _, _ := written.Stats(); alive != n-3 || binary.LittleEndian.Uint32(b[28:]) != uint32(n-3) {
		t.Fatalf("rotated graph file has %d nodes in %d slots; want %d, no tombstone", alive, binary.LittleEndian.Uint32(b[28:]), n-3)
	}
}
