package ann

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/graph"
)

// TestRemapUnderBeams: a rotation fold over a cold f32 store (which
// the graph beams at any size) renumbers every store row, and the graph
// re-slots with it while searches run. Before the fold the store is
// churned through the graph: new ids in overlay rows, deletes of some
// of them, new ids reusing those freed rows, overwrites that mask base
// rows, and deletes of base rows. During the fold every answer holds
// live ids only; after it the graph keeps its invariants (each live
// slot its id's row), its recall against Exact meets the floor, and a
// reload of the written pair answers bit for bit like it.
func TestRemapUnderBeams(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("no mmap store on " + runtime.GOOS)
	}
	n, fresh := 3000, 400
	if raceEnabled || testing.Short() {
		n, fresh = 800, 120
	}
	const dim, k = 16, 10
	cold := coldStoreOf(t, buildStoreAt(t, n, dim, embstore.F32))
	h := mustHNSW(t, cold, DefaultHNSWConfig())
	rng := rand.New(rand.NewSource(131))
	live := make(map[graph.NodeID]bool, n+fresh)
	for id := 0; id < n; id++ {
		live[graph.NodeID(id)] = true
	}
	add := func(id graph.NodeID) {
		t.Helper()
		if err := h.Add(id, randVec(rng, make([]float64, dim))); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	remove := func(id graph.NodeID) {
		t.Helper()
		if !h.Remove(id) {
			t.Fatalf("Remove(%d) = false", id)
		}
		delete(live, id)
	}
	for i := 0; i < fresh; i++ { // new ids: overlay rows
		add(graph.NodeID(n + i))
	}
	for i := 0; i < fresh/2; i++ { // delete half of them: freed overlay rows
		remove(graph.NodeID(n + 2*i))
	}
	rows := cold.Rows().Len()
	for i := 0; i < fresh/2; i++ { // new ids take the freed rows
		id := graph.NodeID(n + fresh + i)
		add(id)
		if row, _ := cold.Row(id); row >= rows {
			t.Fatalf("new id %d took row %d past the %d rows, with freed rows waiting", id, row, rows)
		}
	}
	for _, id := range rng.Perm(n)[:n/8] { // overwrites: masked base rows
		add(graph.NodeID(id))
	}
	for _, id := range rng.Perm(n)[:n/8] { // deletes of base and overwritten rows
		if live[graph.NodeID(id)] {
			remove(graph.NodeID(id))
		}
	}
	checkGraphInvariants(t, h)
	if _, tombs, _ := h.Stats(); tombs == 0 {
		t.Fatal("the churn left no dead row for the fold to renumber away")
	}

	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = randVec(rng, make([]float64, dim))
	}
	path := filepath.Join(t.TempDir(), "folded.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.SaveSnapshotV3(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var searchers sync.WaitGroup
	for w := 0; w < 2; w++ {
		searchers.Add(1)
		go func(w int) {
			defer searchers.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, err := h.Search(queries[i%len(queries)], k)
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range got {
					if !live[r.ID] { // live is not written while searchers run
						t.Errorf("search during the fold answered id %d, which is not live", r.ID)
						return
					}
				}
			}
		}(w)
	}
	err = h.Remap(path)
	close(stop)
	searchers.Wait()
	if err != nil {
		t.Fatal(err)
	}

	checkGraphInvariants(t, h)
	if alive, tombs, _ := h.Stats(); alive != len(live) || tombs != 0 || cold.Len() != len(live) {
		t.Fatalf("after the fold: %d alive, %d tombstones, store %d; want %d, 0, %d", alive, tombs, cold.Len(), len(live), len(live))
	}
	exact := NewExact(cold, h.Metric())
	var approx, truth [][]graph.NodeID
	for _, q := range queries {
		got, err := h.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exact.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		approx, truth = append(approx, ids(got)), append(truth, ids(want))
	}
	recall, err := eval.MeanRecallAtK(approx, truth)
	if err != nil {
		t.Fatal(err)
	}
	if recall < 0.95 {
		t.Fatalf("recall@%d after the fold = %.3f < 0.95", k, recall)
	}

	var graphFile bytes.Buffer
	if err := h.SaveGraph(&graphFile); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := embstore.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	loaded, err := LoadHNSWGraph(bytes.NewReader(graphFile.Bytes()), reopened)
	if err != nil {
		t.Fatal(err)
	}
	sameStructure(t, h, loaded)
	for qi, q := range queries {
		want, err := h.searchBeam(context.Background(), nil, q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.searchBeam(context.Background(), nil, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: the reloaded pair answers %v, the folded graph %v", qi, got, want)
		}
	}
}
