// Serving walkthrough: the full train → serialize → embstore → ann →
// ehnad pipeline. It trains EHNA on a synthetic temporal network,
// exports the flat v3 store snapshot the daemon boots from (beside a
// model checkpoint for resumed training), builds the store and
// both ANN indexes in-process (exact scan, HNSW), audits HNSW's recall
// against exact search, saves the HNSW graph snapshot the daemon can
// boot from without rebuilding, and prints the exact commands to serve
// the artifacts with cmd/ehnad.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ehna/internal/ann"
	"ehna/internal/datagen"
	"ehna/internal/ehna"
	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/faultfs"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
	"ehna/internal/walk"
)

func main() {
	// 1. Train embeddings on a temporal graph (the Digg analogue).
	g, err := datagen.Generate(datagen.Digg, 0.25, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d temporal edges\n", g.NumNodes(), g.NumEdges())

	cfg := ehna.DefaultConfig()
	cfg.Dim = 16
	cfg.Walk = walk.TemporalConfig{P: 1, Q: 1, NumWalks: 3, WalkLen: 4}
	cfg.Workers = 4
	model, err := ehna.NewModel(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for epoch, loss := range model.Train() {
		fmt.Printf("epoch %d: loss %.4f\n", epoch+1, loss)
	}

	// 2. Serialize. The model checkpoint carries the raw embedding table
	//    and parameters, for resumed training; the embstore snapshot is
	//    what the daemon serves: the attention-aggregated InferAll
	//    embeddings — the vectors the paper's evaluation actually uses —
	//    in the flat v3 format -store=ram copies onto the heap and
	//    -store=mmap serves in place (`ehna train -snapshot` writes the
	//    same file).
	outDir := "serving-out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	modelPath := filepath.Join(outDir, "model.gob")
	if err := faultfs.WriteFileAtomic(faultfs.OS(), modelPath, func(f faultfs.File) error { return model.Save(f) }); err != nil {
		log.Fatal(err)
	}

	emb := model.InferAll()
	store, err := embstore.FromMatrix(emb, embstore.F32)
	if err != nil {
		log.Fatal(err)
	}
	snapPath := filepath.Join(outDir, "store.snap")
	if err := faultfs.WriteFileAtomic(faultfs.OS(), snapPath, func(f faultfs.File) error { return store.SaveSnapshotV3(f, 0) }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifacts: %s (training checkpoint), %s (store, %d×%d)\n",
		modelPath, snapPath, store.Len(), store.Dim())

	// 3. Build both indexes and answer the same query. The HNSW
	//    graph is also snapshotted so the daemon can boot without paying
	//    the build again (-hnsw-graph). Distance kernels run on the
	//    backend cpuid picked at startup ("avx2", "neon" or "scalar") —
	//    the same value /healthz and /metrics report once serving.
	fmt.Printf("vecmath kernel backend: %s\n", vecmath.Backend())
	exact := ann.NewExact(store, ann.Cosine)
	hnsw, err := ann.BuildHNSW(store, ann.DefaultHNSWConfig())
	if err != nil {
		log.Fatal(err)
	}
	graphPath := filepath.Join(outDir, "hnsw.graph")
	if err := faultfs.WriteFileAtomic(faultfs.OS(), graphPath, func(f faultfs.File) error { return hnsw.SaveGraph(f) }); err != nil {
		log.Fatal(err)
	}
	const target, k = 0, 10
	q, _ := store.Get(target)
	exactTop, err := exact.Search(q, k+1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact top-%d of node %d (cosine):\n", k, target)
	for _, r := range exactTop {
		if r.ID == target {
			continue
		}
		fmt.Printf("  node %4d  score %.4f\n", r.ID, r.Score)
	}

	// 4. Audit HNSW recall@k against exact over a query sample — the
	//    number to watch when tuning -m/-ef-search for your store size.
	nq := 50
	if nq > store.Len() {
		nq = store.Len()
	}
	var approx, truth [][]graph.NodeID
	for qi := 0; qi < nq; qi++ {
		qv, ok := store.Get(graph.NodeID(qi))
		if !ok {
			continue
		}
		er, err := exact.Search(qv, k)
		if err != nil {
			log.Fatal(err)
		}
		ar, err := hnsw.Search(qv, k)
		if err != nil {
			log.Fatal(err)
		}
		truth = append(truth, resultIDs(er))
		approx = append(approx, resultIDs(ar))
	}
	recall, err := eval.MeanRecallAtK(approx, truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HNSW recall@%d vs exact over %d queries: %.3f\n", k, nq, recall)

	// 5. Serve it. The store snapshot boots the daemon; the default
	//    hnsw index reuses the saved graph snapshot, and -wal makes the
	//    write path durable.
	walDir := filepath.Join(outDir, "wal")
	fmt.Printf(`
serve the aggregated embeddings (recommended; builds the HNSW graph at
boot):
  go run ./cmd/ehnad -snapshot %s

booting from the saved graph instead of rebuilding it:
  go run ./cmd/ehnad -snapshot %s -hnsw-graph %s

durably — writes WAL-logged before apply, snapshots rotated (the
-snapshot seed is only read on the first boot; afterwards %s
recovers everything):
  go run ./cmd/ehnad -snapshot %s -index hnsw -wal %s

beyond RAM — mmap the snapshot instead of copying it onto the
heap: boot is O(1) in dataset size and the OS pages vectors in on
demand, so the set may exceed memory (/healthz reports the mapping
and overlay sizes; see "Beyond-RAM serving" in the README):
  go run ./cmd/ehnad -snapshot %s -store=mmap -index hnsw -hnsw-graph %s

then query:
  curl -s localhost:8080/healthz
  curl -s -X POST localhost:8080/v1/neighbors -d '{"id":%d,"k":%d}'
  curl -s -X POST localhost:8080/v1/score -d '{"u":0,"v":1,"op":"hadamard"}'
  curl -s -X POST localhost:8080/v1/upsert -d '{"id":900000,"vector":[...]}'
  curl -s -X POST localhost:8080/v1/delete -d '{"id":900000}'
  curl -s localhost:8080/v1/export > backup.snap

watch it (Prometheus text format):
  curl -s localhost:8080/metrics

scale out: two shards behind the scatter-gather router, shard a
replicated by a WAL-shipping follower that auto-promotes on leader
death (see "Distributed serving" in the README; clients only ever
talk to the router):
  go run ./cmd/ehnad -addr :8081 -wal %s-a  -dim %d -index hnsw
  go run ./cmd/ehnad -addr :8082 -wal %s-b  -dim %d -index hnsw
  go run ./cmd/ehnad -addr :8083 -wal %s-af -dim %d -index hnsw \
      -follow http://localhost:8081
  go run ./cmd/ehnad-router -listen :8090 -failover \
      -shard a=http://localhost:8081,http://localhost:8083 \
      -shard b=http://localhost:8082
  curl -s -X POST localhost:8090/v1/neighbors -d '{"id":%d,"k":%d}'
`, snapPath, snapPath, graphPath, walDir, snapPath, walDir, snapPath, graphPath, target, k,
		walDir, cfg.Dim, walDir, cfg.Dim, walDir, cfg.Dim, target, k)
}

func resultIDs(rs []ann.Result) []graph.NodeID {
	out := make([]graph.NodeID, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}
