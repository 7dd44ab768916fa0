package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/tensor"
)

func TestWriteReadEmbeddingsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "emb.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	emb := tensor.FromRows([][]float64{{0.5, -1.25}, {3, 4}})
	if err := writeEmbeddings(f, emb); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readEmbeddings(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, emb, 0) {
		t.Fatalf("roundtrip mismatch: %v vs %v", got.Data, emb.Data)
	}
}

func TestReadEmbeddingsErrors(t *testing.T) {
	if _, err := readEmbeddings("/nonexistent/path.tsv"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.tsv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readEmbeddings(empty); err == nil {
		t.Fatal("empty file accepted")
	}
	bad := filepath.Join(dir, "bad.tsv")
	if err := os.WriteFile(bad, []byte("0\tnot-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readEmbeddings(bad); err == nil {
		t.Fatal("malformed value accepted")
	}
}

func TestLoadGraphErrors(t *testing.T) {
	if _, err := loadGraph("/nonexistent/graph.tsv"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.tsv")
	if err := os.WriteFile(bad, []byte("x y z\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadGraph(bad); err == nil {
		t.Fatal("malformed graph accepted")
	}
}

func TestLoadGraphNormalizesTimes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(path, []byte("0 1 2005\n1 2 2015\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := g.TimeSpan()
	if lo != 0 || hi != 1 {
		t.Fatalf("times not normalized: %g..%g", lo, hi)
	}
}

func TestSampleNodesFor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(path, []byte("0 1 1\n1 2 2\n3 4 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	nodes := sampleNodesFor(g, 100, 1)
	if len(nodes) != 5 {
		t.Fatalf("%d nodes (want all 5 non-isolated)", len(nodes))
	}
	nodes = sampleNodesFor(g, 2, 1)
	if len(nodes) != 2 {
		t.Fatalf("%d nodes want 2", len(nodes))
	}
}

// TestTrainWritesServingSnapshot: `ehna train -snapshot` writes the
// InferAll embeddings as the f32 v3 store snapshot ehnad -snapshot
// loads — node i under id i, each lane of the -out TSV within float32
// error — and with -snapshot the only output, nothing goes to stdout.
func TestTrainWritesServingSnapshot(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(graphPath, []byte("0 1 1\n1 2 2\n2 3 3\n3 0 4\n0 2 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, tsv := filepath.Join(dir, "store.snap"), filepath.Join(dir, "emb.tsv")
	args := []string{"-graph", graphPath, "-dim", "8", "-walks", "2", "-walklen", "3", "-snapshot", snap}
	if err := cmdTrain(append(args, "-out", tsv)); err != nil {
		t.Fatal(err)
	}
	emb, err := readEmbeddings(tsv)
	if err != nil {
		t.Fatal(err)
	}
	store, watermark, err := embstore.LoadSnapshotV3(snap, embstore.DefaultShards)
	if err != nil {
		t.Fatal(err)
	}
	if store.Precision() != embstore.F32 || store.Len() != emb.Rows || store.Dim() != 8 || watermark != 0 {
		t.Fatalf("snapshot holds %d×%d at %v, watermark %d; want %d×8 at f32, watermark 0",
			store.Len(), store.Dim(), store.Precision(), watermark, emb.Rows)
	}
	for i := 0; i < emb.Rows; i++ {
		got, ok := store.Get(graph.NodeID(i))
		if !ok {
			t.Fatalf("node %d missing from the snapshot", i)
		}
		for j, x := range emb.Row(i) {
			if d := math.Abs(got[j] - x); d > 1e-6*math.Abs(x) {
				t.Fatalf("node %d lane %d: %g in the snapshot, %g in the TSV", i, j, got[j], x)
			}
		}
	}

	stdout := os.Stdout
	sink, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = sink
	err = cmdTrain(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := sink.Stat(); err != nil || fi.Size() != 0 {
		t.Fatalf("train -snapshot without -out wrote %d bytes to stdout (err %v)", fi.Size(), err)
	}
	sink.Close()
}
