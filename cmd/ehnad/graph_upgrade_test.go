package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ehna/internal/ann"
	"ehna/internal/graph"
)

// TestGobGraphUpgrade pins the upgrade from a version that wrote the
// HNSW graph as gob, on the pair such a version left behind
// (testdata/gobgraph: store.snap, 200 × dim-8 sq8 in one run, and its
// graph.gob, written by `ehnad-mkstore -hnsw` at the last gob commit).
// With -wal the gob graph is rebuilt from the store and the file
// rewritten in the flat format, which the next boot loads as is;
// without -wal nothing may rewrite it, so boot fails naming the problem.
func TestGobGraphUpgrade(t *testing.T) {
	testdata := filepath.Join("testdata", "gobgraph")
	gobGraph, err := os.ReadFile(filepath.Join(testdata, "graph.gob"))
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 200
	serves := func(t *testing.T, srv *server) {
		t.Helper()
		h, ok := srv.index.(*ann.HNSW)
		if !ok || h.Len() != nodes {
			t.Fatalf("serving %T over %d nodes, want an HNSW graph over %d", srv.index, srv.store.Len(), nodes)
		}
		for id := graph.NodeID(0); id < nodes; id += 40 {
			res, err := h.Search(mustGet(t, srv.store, id), 3)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(res, func(r ann.Result) bool { return r.ID == id }) {
				t.Fatalf("self-query of %d: %v", id, res)
			}
		}
	}

	t.Run("mmap wal rebuilds once", func(t *testing.T) {
		dir := t.TempDir()
		store, err := os.ReadFile(filepath.Join(testdata, "store.snap"))
		if err != nil {
			t.Fatal(err)
		}
		graphPath := filepath.Join(dir, "graph.gob")
		if err := os.WriteFile(walSnapshotV3Path(dir), store, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(graphPath, gobGraph, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := buildServer(mmapConfigAt(dir, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !srv.store.Cold() {
			t.Fatal("store not mapped")
		}
		serves(t, srv)
		srv.close()
		rebuilt, err := os.ReadFile(graphPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(rebuilt, []byte("EHNAHNSW")) {
			t.Fatalf("graph file not rewritten in the flat format: starts %q", rebuilt[:16])
		}
		before, err := os.Stat(graphPath)
		if err != nil {
			t.Fatal(err)
		}

		// A rebuild would publish a fresh file (tmp+rename); a load leaves
		// the one there untouched.
		srv, err = buildServer(mmapConfigAt(dir, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.close()
		serves(t, srv)
		after, err := os.Stat(graphPath)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(before, after) {
			t.Fatal("second boot rebuilt the graph instead of loading it")
		}
	})

	t.Run("without wal", func(t *testing.T) {
		cfg := serverConfig{snapshot: filepath.Join(testdata, "store.snap"), storeMode: "mmap", index: testIndexOptions("hnsw")}
		cfg.index.graphPath = filepath.Join(t.TempDir(), "graph.gob")
		if err := os.WriteFile(cfg.index.graphPath, gobGraph, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := buildServer(cfg)
		if err == nil {
			srv.close()
		}
		if !errors.Is(err, ann.ErrGobGraph) || !strings.Contains(err.Error(), ann.ErrGobGraph.Error()) {
			t.Fatalf("err = %v, want one carrying ErrGobGraph", err)
		}
		got, rerr := os.ReadFile(cfg.index.graphPath)
		if rerr != nil || !bytes.Equal(got, gobGraph) {
			t.Fatalf("graph file changed by a boot that failed (%v)", rerr)
		}
	})
}
