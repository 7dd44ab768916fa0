// Command ehnad-mkstore builds serving artifacts for the beyond-RAM
// path without going through a daemon: a flat v3 store snapshot
// (embstore.SaveSnapshotV3 — the file ehnad -store=mmap serves straight
// out of), optionally the matching HNSW graph snapshot (so the daemon
// boots without a rebuild), and a ground-truth file of exact top-k
// answers for a held-out query sample.
//
// Generate:
//
//	ehnad-mkstore -out DIR -n 1000000 -dim 64 -precision sq8 -hnsw
//
// writes DIR/store.snap, DIR/graph.gob (with -hnsw: ann.SaveGraph's
// flat, CRC32C-checked graph file; the .gob name is kept from the format
// it replaced because the benchmark harness reads that path) and
// DIR/truth.json. Rerun it with -hnsw to replace a gob graph.gob written
// by an older version, which ehnad refuses to load.
// Vectors are seeded-random; the exact top-k truth is computed in the
// same streaming pass at full precision, so no second full-precision
// store is ever materialized — memory stays at the target-precision
// store (plus the graph when -hnsw).
//
// Check: point it at a live daemon serving those artifacts and gate its
// recall against the truth file:
//
//	ehnad-mkstore -check DIR -target http://127.0.0.1:8080 -min-recall 0.95
//
// posts every truth query to /v1/neighbors and exits non-zero when mean
// recall@k falls below the threshold — the CI gate that quantized,
// mmap-served search still answers correctly.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/embstore"
	"ehna/internal/faultfs"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
)

// truthFile is the ground-truth artifact: the query sample and each
// query's exact full-precision cosine top-k over the generated set.
type truthFile struct {
	Dim     int          `json:"dim"`
	N       int          `json:"n"`
	K       int          `json:"k"`
	Seed    int64        `json:"seed"`
	Queries []truthEntry `json:"queries"`
}

type truthEntry struct {
	Vector []float64      `json:"vector"`
	IDs    []graph.NodeID `json:"ids"`
}

func main() {
	var (
		out       = flag.String("out", "", "output directory for store.snap / graph.gob / truth.json")
		n         = flag.Int("n", 100_000, "vectors to generate")
		dim       = flag.Int("dim", 64, "vector dimensionality")
		precision = flag.String("precision", "sq8", "slab precision of the snapshot: f32 or sq8")
		seed      = flag.Int64("seed", 1, "dataset RNG seed")
		queries   = flag.Int("queries", 100, "held-out queries to compute exact truth for (0 disables truth.json)")
		k         = flag.Int("k", 10, "truth depth per query")
		hnsw      = flag.Bool("hnsw", false, "also build and save the HNSW graph file DIR/graph.gob (ehnad -hnsw-graph: boot without rebuild)")
		m         = flag.Int("m", 0, "hnsw: graph degree (0 = library default)")
		efCons    = flag.Int("ef-construction", 0, "hnsw: build-time beam width (0 = library default)")
		check     = flag.String("check", "", "check mode: directory holding truth.json; queries a live daemon instead of generating")
		target    = flag.String("target", "http://127.0.0.1:8080", "check mode: daemon base URL")
		minRecall = flag.Float64("min-recall", 0.95, "check mode: fail below this mean recall@k")
	)
	flag.Parse()

	if *check != "" {
		if err := runCheck(*check, *target, *minRecall); err != nil {
			log.Fatalf("ehnad-mkstore: %v", err)
		}
		return
	}
	if *out == "" {
		log.Fatal("ehnad-mkstore: pass -out DIR (generate) or -check DIR (verify)")
	}
	if *queries > 0 && *k < 1 {
		log.Fatalf("ehnad-mkstore: -k %d: the truth depth must be at least 1", *k)
	}
	prec, err := embstore.ParsePrecision(*precision)
	if err != nil {
		log.Fatalf("ehnad-mkstore: %v", err)
	}
	hcfg := ann.DefaultHNSWConfig()
	if *m > 0 {
		hcfg.M = *m
	}
	if *efCons > 0 {
		hcfg.EfConstruction = *efCons
	}
	if err := generate(*out, *n, *dim, prec, *seed, *queries, *k, *hnsw, hcfg); err != nil {
		log.Fatalf("ehnad-mkstore: %v", err)
	}
}

// generate streams n seeded vectors into a store at the target
// precision, scoring each against the query sample as it goes (exact
// full-precision cosine truth in the same pass), then writes the
// artifacts.
func generate(out string, n, dim int, prec embstore.Precision, seed int64, nq, k int, buildGraph bool, hcfg ann.HNSWConfig) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	store, err := embstore.New(dim, prec)
	if err != nil {
		return err
	}

	// The query sample comes from its own RNG stream so it is held out
	// of the dataset but reproducible from the same seed.
	qrng := rand.New(rand.NewSource(seed + 1))
	truth := truthFile{Dim: dim, N: n, K: k, Seed: seed, Queries: make([]truthEntry, nq)}
	qnorm := make([]float64, nq)
	type cand struct {
		id    graph.NodeID
		score float64
	}
	top := make([][]cand, nq)
	for qi := range truth.Queries {
		v := make([]float64, dim)
		for j := range v {
			v[j] = qrng.NormFloat64()
		}
		truth.Queries[qi].Vector = v
		qnorm[qi] = vecmath.Norm(v)
		top[qi] = make([]cand, 0, k)
	}

	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	vec := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range vec {
			vec[j] = rng.NormFloat64()
		}
		id := graph.NodeID(i)
		if err := store.Upsert(id, vec); err != nil {
			return err
		}
		if nq == 0 {
			continue
		}
		norm := vecmath.Norm(vec)
		for qi := range truth.Queries {
			score := vecmath.Dot(truth.Queries[qi].Vector, vec) / (qnorm[qi]*norm + 1e-12)
			t := top[qi]
			if len(t) == k && score <= t[k-1].score {
				continue
			}
			if len(t) < k {
				t = append(t, cand{})
			}
			// Insert after every kept score ≥ this one, so an equal score
			// keeps ranking below the earlier id.
			i := len(t) - 1
			for ; i > 0 && t[i-1].score < score; i-- {
				t[i] = t[i-1]
			}
			t[i] = cand{id, score}
			top[qi] = t
		}
	}
	for qi := range truth.Queries {
		ids := make([]graph.NodeID, len(top[qi]))
		for i, c := range top[qi] {
			ids[i] = c.id
		}
		truth.Queries[qi].IDs = ids
	}
	log.Printf("generated %d × dim-%d at %s in %v", n, dim, prec, time.Since(start).Round(time.Millisecond))

	snapPath := filepath.Join(out, "store.snap")
	if err := faultfs.WriteFileAtomic(faultfs.OS(), snapPath, func(f faultfs.File) error {
		return store.SaveSnapshotV3(f, 0)
	}); err != nil {
		return fmt.Errorf("store snapshot: %w", err)
	}
	st, _ := os.Stat(snapPath)
	log.Printf("wrote %s (%d bytes)", snapPath, st.Size())

	if buildGraph {
		gstart := time.Now()
		h, err := ann.BuildHNSW(store, hcfg)
		if err != nil {
			return fmt.Errorf("hnsw build: %w", err)
		}
		graphPath := filepath.Join(out, "graph.gob")
		if err := faultfs.WriteFileAtomic(faultfs.OS(), graphPath, func(f faultfs.File) error { return h.SaveGraph(f) }); err != nil {
			return fmt.Errorf("graph snapshot: %w", err)
		}
		log.Printf("wrote %s (built in %v)", graphPath, time.Since(gstart).Round(time.Millisecond))
	}

	if nq > 0 {
		truthPath := filepath.Join(out, "truth.json")
		if err := faultfs.WriteFileAtomic(faultfs.OS(), truthPath, func(f faultfs.File) error {
			return json.NewEncoder(f).Encode(&truth)
		}); err != nil {
			return fmt.Errorf("truth file: %w", err)
		}
		log.Printf("wrote %s (%d queries × top-%d exact)", truthPath, nq, k)
	}
	return nil
}

// runCheck replays the truth queries against a live daemon and gates
// mean recall@k.
func runCheck(dir, target string, minRecall float64) error {
	b, err := os.ReadFile(filepath.Join(dir, "truth.json"))
	if err != nil {
		return err
	}
	var truth truthFile
	if err := json.Unmarshal(b, &truth); err != nil {
		return fmt.Errorf("truth.json: %w", err)
	}
	if len(truth.Queries) == 0 {
		return fmt.Errorf("truth.json holds no queries")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var sum float64
	for qi, q := range truth.Queries {
		body, err := json.Marshal(cluster.NeighborQuery{Vector: q.Vector, K: truth.K})
		if err != nil {
			return err
		}
		resp, err := client.Post(target+"/v1/neighbors", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
		var out cluster.NeighborsAck
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("query %d: decode: %w", qi, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("query %d: status %d", qi, resp.StatusCode)
		}
		want := make(map[graph.NodeID]bool, len(q.IDs))
		for _, id := range q.IDs {
			want[id] = true
		}
		hits := 0
		for _, r := range out.Results {
			if want[r.ID] {
				hits++
			}
		}
		sum += float64(hits) / float64(len(q.IDs))
	}
	recall := sum / float64(len(truth.Queries))
	fmt.Printf("recall@%d = %.4f over %d queries (gate %.2f)\n", truth.K, recall, len(truth.Queries), minRecall)
	if recall < minRecall {
		return fmt.Errorf("recall@%d %.4f below gate %.2f", truth.K, recall, minRecall)
	}
	return nil
}
