//go:build linux || darwin

package embstore

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ehna/internal/graph"
	"ehna/internal/wal"
)

// openCold writes s as a v3 snapshot and reopens it mmap-backed.
func openCold(t testing.TB, s *Store, watermark uint64) (*Store, string) {
	t.Helper()
	path := writeV3(t, s, watermark)
	cold, wm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if wm != watermark {
		t.Fatalf("watermark = %d, want %d", wm, watermark)
	}
	t.Cleanup(func() { cold.Close() })
	return cold, path
}

func TestColdStoreEqualsRAM(t *testing.T) {
	// A legacy float64 image has no store layout to be served from in
	// place: the mmap loader names it instead of mapping it.
	t.Run("f64", func(t *testing.T) {
		path, _ := legacyF64Fixture(t)
		if _, _, err := OpenMmap(path); !errors.Is(err, ErrF64Snapshot) {
			t.Fatalf("OpenMmap(f64 fixture): err = %v, want ErrF64Snapshot", err)
		}
	})
	for _, prec := range allPrecisions {
		t.Run(prec.String(), func(t *testing.T) {
			ram, err := New(8, prec)
			if err != nil {
				t.Fatal(err)
			}
			fillRandom(t, ram, 400, 10)
			cold, _ := openCold(t, ram, 5)

			if !cold.Cold() {
				t.Fatal("Cold() = false for an mmap store")
			}
			if cold.MappedBytes() <= 0 || cold.MappedPayloadBytes() <= 0 {
				t.Fatalf("mapped bytes %d / payload %d", cold.MappedBytes(), cold.MappedPayloadBytes())
			}
			if !cold.Equal(ram) {
				t.Fatal("cold store differs from its RAM source")
			}
			if !ram.Equal(cold) {
				t.Fatal("Equal is not symmetric across backends")
			}
			// Get dequantizes identically through the base.
			for _, id := range ram.IDs()[:20] {
				want, _ := ram.Get(id)
				got, ok := cold.Get(id)
				if !ok || !slicesEq(want, got) {
					t.Fatalf("Get(%d) = %v, %v; want %v", id, got, ok, want)
				}
			}
		})
	}
}

func slicesEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestColdOverlay exercises the mutation surface over a mapped base:
// upserts land in the overlay and shadow the base, deletes mask base
// rows, and Len/IDs/scans stay consistent throughout.
func TestColdOverlay(t *testing.T) {
	ram, err := New(4, SQ8)
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, ram, 100, 11)
	cold, _ := openCold(t, ram, 0)
	n := cold.Len()

	// Overwrite a base-resident id: Len unchanged, new value wins.
	target := ram.IDs()[7]
	if err := cold.Upsert(target, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if cold.Len() != n {
		t.Fatalf("Len = %d after overwrite, want %d", cold.Len(), n)
	}
	got, _ := cold.Get(target)
	ref, _ := New(4, SQ8)
	ref.Upsert(target, []float64{1, 2, 3, 4})
	want, _ := ref.Get(target)
	if !slicesEq(got, want) {
		t.Fatalf("overwritten vector = %v, want %v", got, want)
	}

	// Insert a brand-new id.
	if err := cold.Upsert(gid(9_999_999), []float64{4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if cold.Len() != n+1 {
		t.Fatalf("Len = %d after insert, want %d", cold.Len(), n+1)
	}

	// Delete a base row, an overlay row, and a missing id.
	victim := ram.IDs()[3]
	if !cold.Delete(victim) {
		t.Fatal("Delete of base row = false")
	}
	if cold.Delete(victim) {
		t.Fatal("second Delete of same id = true")
	}
	if _, ok := cold.Get(victim); ok {
		t.Fatal("deleted base row still visible")
	}
	if !cold.Delete(gid(9_999_999)) {
		t.Fatal("Delete of overlay row = false")
	}
	if cold.Delete(gid(123_456_789)) {
		t.Fatal("Delete of missing id = true")
	}
	if cold.Len() != n-1 {
		t.Fatalf("Len = %d after deletes, want %d", cold.Len(), n-1)
	}

	vecs, bytes, masked := cold.OverlayStats()
	if vecs != 1 || masked != 2 || bytes <= 0 {
		t.Fatalf("OverlayStats = %d vectors, %d bytes, %d masked; want 1, >0, 2", vecs, bytes, masked)
	}

	// IDs: sorted, no duplicates, no deleted entries.
	ids := cold.IDs()
	if len(ids) != cold.Len() {
		t.Fatalf("IDs returned %d, Len = %d", len(ids), cold.Len())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs not strictly ascending at %d", i)
		}
	}
	for _, id := range ids {
		if id == victim {
			t.Fatal("deleted id present in IDs")
		}
	}

	// Range visits every live row exactly once.
	seen := map[graph.NodeID]int{}
	cold.Range(func(id graph.NodeID, v *VecView) bool {
		seen[id]++
		return true
	})
	if len(seen) != cold.Len() {
		t.Fatalf("Range visited %d ids, Len = %d", len(seen), cold.Len())
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("Range visited %d %d times", id, c)
		}
	}

	// Rows.View resolves overlay and base rows alike by store row.
	some := map[graph.NodeID]bool{target: true}
	for _, id := range ids[:10] {
		some[id] = true
	}
	hits := 0
	cold.Scan(func(rs Rows) {
		var a, b VecView
		for ri := 0; ri < rs.Runs(); ri++ {
			r := rs.Run(ri)
			for i, id := range r.IDs {
				if r.Masked(i) || !some[id] {
					continue
				}
				r.View(i, &a)
				rs.View(r.First+i, &b)
				if viewEqual(&a, &b) {
					hits++
				}
			}
		}
	})
	if hits != len(some) {
		t.Fatalf("Rows.View matched %d of %d", hits, len(some))
	}
}

// TestLegacyShardedSnapshot: a snapshot written in four runs, when the
// store was striped over four lock shards, still loads into RAM bit for
// bit, is served in place by the mmap loader — each id found in the run
// its old shard put it in, through With and through the scan — and
// folds into one run at the first Remap.
func TestLegacyShardedSnapshot(t *testing.T) {
	path, want := legacyShardedFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := parseV3(data); err != nil || l.runs != 4 || l.count != uint64(want.Len()) {
		t.Fatalf("fixture: %v, layout %+v", err, l)
	}

	ram, wm, err := LoadSnapshotV3(path, DefaultShards)
	if err != nil || wm != 11 {
		t.Fatalf("RAM load: watermark %d, %v", wm, err)
	}
	if !ram.Equal(want) || !want.Equal(ram) {
		t.Fatal("RAM load differs from the fixture's rows")
	}

	cold, wm, err := OpenMmap(path)
	if err != nil || wm != 11 {
		t.Fatalf("mmap open: watermark %d, %v", wm, err)
	}
	defer cold.Close()
	if !ram.Equal(cold) { // every id through cold.With
		t.Fatal("mmap store's With differs from the RAM store")
	}
	if !cold.Equal(ram) { // every row through cold's scan
		t.Fatal("mmap store's scan differs from the RAM store")
	}
	runs := 0
	cold.Scan(func(rs Rows) {
		runs = rs.Runs()
		var a, b VecView
		for ri := 0; ri < rs.Runs(); ri++ {
			r := rs.Run(ri)
			for i := range r.IDs {
				r.View(i, &a)
				rs.View(r.First+i, &b)
				if !viewEqual(&a, &b) {
					t.Errorf("run %d row %d: Rows.View(%d) is another row", ri, i, r.First+i)
				}
			}
		}
	})
	if runs != 5 {
		t.Fatalf("mmap store has %d runs, want 4 base runs and the slab", runs)
	}

	// Churn the overlay, then fold it: the fresh snapshot is one run.
	ids := ram.IDs()
	for _, s := range []*Store{ram, cold} {
		s.Delete(ids[0])
		s.Upsert(ids[1], []float64{1, 2, 3, 4, 5, 6, 7, 8})
		s.Upsert(gid(1_000_000), []float64{8, 7, 6, 5, 4, 3, 2, 1})
	}
	next := snapshotOf(t, cold, 12)
	if data, err = os.ReadFile(next); err != nil {
		t.Fatal(err)
	}
	if l, err := parseV3(data); err != nil || l.runs != 1 {
		t.Fatalf("fold target: %v, layout %+v", err, l)
	}
	if err := cold.Remap(next); err != nil {
		t.Fatal(err)
	}
	if v, _, masked := cold.OverlayStats(); v != 0 || masked != 0 {
		t.Fatalf("after Remap: %d overlay vectors, %d masked", v, masked)
	}
	cold.Scan(func(rs Rows) { runs = rs.Runs() })
	if runs != 2 || !cold.Equal(ram) || !ram.Equal(cold) {
		t.Fatalf("after Remap: %d runs, or contents differ from the RAM store", runs)
	}
}

// TestColdFold takes a cold store through the rotation fold: mutate,
// write a fresh v3 base, Remap, and check the overlay is empty while
// the contents are unchanged.
func TestColdFold(t *testing.T) {
	ram, err := New(6, F32)
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, ram, 200, 12)
	cold, _ := openCold(t, ram, 1)

	rng := rand.New(rand.NewSource(99))
	vec := make([]float64, 6)
	for i := 0; i < 50; i++ {
		for j := range vec {
			vec[j] = rng.NormFloat64()
		}
		if err := cold.Upsert(gid(uint32(5000+i)), vec); err != nil {
			t.Fatal(err)
		}
	}
	cold.Delete(ram.IDs()[0])
	cold.Delete(ram.IDs()[1])

	// Reference copy of the pre-fold state.
	ref, _, err := LoadSnapshotV3(snapshotOf(t, cold, 2), 4)
	if err != nil {
		t.Fatal(err)
	}

	next := snapshotOf(t, cold, 2)
	if err := cold.Remap(next); err != nil {
		t.Fatal(err)
	}
	if vecs, _, masked := cold.OverlayStats(); vecs != 0 || masked != 0 {
		t.Fatalf("post-fold overlay: %d vectors, %d masked", vecs, masked)
	}
	if !cold.Equal(ref) {
		t.Fatal("fold changed contents")
	}
	if cold.MappedPath() != next {
		t.Fatalf("MappedPath = %q, want %q", cold.MappedPath(), next)
	}

	// The store keeps serving and mutating after the fold.
	if err := cold.Upsert(gid(1), vec); err != nil {
		t.Fatal(err)
	}
	if _, ok := cold.Get(gid(1)); !ok {
		t.Fatal("post-fold upsert not visible")
	}
}

// snapshotOf writes a v3 snapshot of s into a fresh temp file.
func snapshotOf(t testing.TB, s *Store, wm uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "next.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshotV3(f, wm); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

// TestColdRemapMismatch: a fold target with different geometry is
// refused and the store keeps its old base.
func TestColdRemapMismatch(t *testing.T) {
	ram, _ := New(4, F32)
	fillRandom(t, ram, 50, 13)
	cold, _ := openCold(t, ram, 0)

	other, _ := New(5, F32)
	fillRandom(t, other, 10, 14)
	if err := cold.Remap(writeV3(t, other, 0)); err == nil {
		t.Fatal("Remap accepted a mismatched snapshot")
	}
	if !cold.Equal(ram) {
		t.Fatal("failed Remap corrupted the store")
	}

	ramStore, _ := New(4, F32)
	if err := ramStore.Remap("/nonexistent"); err == nil {
		t.Fatal("Remap of a RAM store succeeded")
	}
}

// TestColdSaveV3: the snapshot writer (the /v1/export format) works
// over a cold store with a live overlay — follower bootstrap doesn't
// care about the leader's store backend.
func TestColdSaveV3(t *testing.T) {
	ram, _ := New(5, SQ8)
	fillRandom(t, ram, 120, 15)
	cold, _ := openCold(t, ram, 0)
	cold.Upsert(gid(777_777), []float64{1, 1, 1, 1, 1})

	got, wm, err := LoadSnapshotV3(writeV3(t, cold, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 8 {
		t.Fatalf("watermark = %d", wm)
	}
	if !got.Equal(cold) {
		t.Fatal("snapshot round trip of cold store differs")
	}
}

// TestColdApplyWAL: WAL replay into the overlay, the boot path for
// records past the snapshot watermark.
func TestColdApplyWAL(t *testing.T) {
	ram, _ := New(3, F32)
	fillRandom(t, ram, 40, 16)
	cold, _ := openCold(t, ram, 0)

	if err := cold.ApplyWAL(wal.Record{Op: wal.OpUpsert, ID: gid(42), Vec: []float64{9, 9, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := cold.ApplyWAL(wal.Record{Op: wal.OpDelete, ID: ram.IDs()[2]}); err != nil {
		t.Fatal(err)
	}
	if got, _ := cold.Get(gid(42)); !slicesEq(got, []float64{9, 9, 9}) {
		t.Fatalf("replayed upsert = %v", got)
	}
	if _, ok := cold.Get(ram.IDs()[2]); ok {
		t.Fatal("replayed delete still visible")
	}
}

// TestColdZeroAllocReads pins the zero-alloc guarantee of the scan and
// row-lookup paths over a mapped base — the property the re-rank
// stage depends on.
func TestColdZeroAllocReads(t *testing.T) {
	ram, _ := New(8, SQ8)
	fillRandom(t, ram, 100, 17)
	cold, _ := openCold(t, ram, 0)
	ids := cold.IDs()[:8]

	if n := testing.AllocsPerRun(100, func() {
		cold.Scan(func(rs Rows) {
			var v VecView
			for row := 0; row < 8; row++ {
				rs.View(row, &v)
			}
		})
	}); n != 0 {
		t.Fatalf("Scan's row lookups over cold store allocate %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		cold.Range(func(id graph.NodeID, v *VecView) bool { return true })
	}); n != 0 {
		t.Fatalf("Range over cold store allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		cold.With(ids[0], func(v *VecView) {})
	}); n != 0 {
		t.Fatalf("With over cold store allocates %.1f/op", n)
	}
}

// TestColdConcurrentChurn races readers against overlay writers and a
// mid-flight fold; run under -race this is the memory-safety check for
// the base swap.
func TestColdConcurrentChurn(t *testing.T) {
	ram, _ := New(4, F32)
	fillRandom(t, ram, 200, 18)
	cold, _ := openCold(t, ram, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			vec := make([]float64, 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := range vec {
					vec[j] = rng.NormFloat64()
				}
				id := gid(uint32(rng.Intn(400)))
				if rng.Intn(4) == 0 {
					cold.Delete(id)
				} else {
					cold.Upsert(id, vec)
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cold.Range(func(id graph.NodeID, v *VecView) bool {
				_ = v.Norm
				return true
			})
			cold.Len()
		}
	}()
	// Two folds while the churn runs. Remap's contract wants quiesced
	// writers for *content* guarantees; memory safety must hold
	// regardless, which is what this exercises.
	for i := 0; i < 2; i++ {
		if err := cold.Remap(snapshotOf(t, cold, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestColdResidency(t *testing.T) {
	ram, _ := New(16, F32)
	fillRandom(t, ram, 500, 19)
	cold, _ := openCold(t, ram, 0)
	pg := int64(os.Getpagesize())
	mappedPages := (cold.MappedBytes() + pg - 1) / pg * pg
	if r := cold.MappedResidentBytes(); r < 0 || r > mappedPages {
		t.Fatalf("MappedResidentBytes = %d, mapped %d pages-rounded", r, mappedPages)
	}
	ramOnly, _ := New(4, F32)
	if r := ramOnly.MappedResidentBytes(); r != 0 {
		t.Fatalf("RAM store MappedResidentBytes = %d", r)
	}
}
