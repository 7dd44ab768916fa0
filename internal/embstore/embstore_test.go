package embstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/wal"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, F32); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := New(3, legacyF64); err == nil {
		t.Fatal("float64 layout accepted")
	}
	if _, err := New(3, F32); err != nil {
		t.Fatal(err)
	}
}

func TestUpsertGetDelete(t *testing.T) {
	s, err := New(3, F32)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Upsert(7, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Upsert(7, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after double upsert", s.Len())
	}
	v, ok := s.Get(7)
	if !ok || v[0] != 4 || v[2] != 6 {
		t.Fatalf("Get(7) = %v, %v", v, ok)
	}
	// Get must return a copy.
	v[0] = 99
	v2, _ := s.Get(7)
	if v2[0] != 4 {
		t.Fatal("Get returned a view, not a copy")
	}
	if err := s.Upsert(8, []float64{1, 2}); err == nil {
		t.Fatal("wrong-dim upsert accepted")
	}
	if !s.Delete(7) {
		t.Fatal("Delete(7) = false for present id")
	}
	if s.Delete(7) {
		t.Fatal("Delete(7) = true for absent id")
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("Get(7) after delete")
	}
}

func TestBulkLoadCoversAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	emb := tensor.Randn(257, 5, 1, rng)
	s, err := FromMatrix(emb, F32)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 257 {
		t.Fatalf("Len = %d, want 257", s.Len())
	}
	for i := 0; i < emb.Rows; i++ {
		v, ok := s.Get(graph.NodeID(i))
		if !ok {
			t.Fatalf("node %d missing", i)
		}
		for j, x := range v {
			if want := float64(float32(emb.At(i, j))); x != want {
				t.Fatalf("node %d dim %d: %g != %g", i, j, x, want)
			}
		}
	}
	n := 0
	s.Range(func(graph.NodeID, *VecView) bool { n++; return true })
	if n != 257 {
		t.Fatalf("Range visited %d rows after bulk load of 257 ids", n)
	}
}

func TestWithReportsMaintainedNorm(t *testing.T) {
	s, _ := New(3, F32)
	_ = s.Upsert(4, []float64{3, 4, 0})
	var norm float64
	if !s.With(4, func(v *VecView) { norm = v.Norm }) {
		t.Fatal("With(4) = false")
	}
	if norm != 5 {
		t.Fatalf("norm = %g, want 5", norm)
	}
	_ = s.Upsert(4, []float64{0, 0, 2})
	s.With(4, func(v *VecView) { norm = v.Norm })
	if norm != 2 {
		t.Fatalf("norm after re-upsert = %g, want 2", norm)
	}
}

func TestIDsSorted(t *testing.T) {
	s, _ := New(1, F32)
	for _, id := range []graph.NodeID{42, 7, 19, 3} {
		_ = s.Upsert(id, []float64{1})
	}
	ids := s.IDs()
	want := []graph.NodeID{3, 7, 19, 42}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	emb := tensor.Randn(50, 4, 1, rng)
	s, err := FromMatrix(emb, F32)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Delete(13)
	_ = s.Upsert(1000, []float64{1, 2, 3, 4})

	path := writeV3(t, s, 0)
	loaded, _, err := LoadSnapshotV3(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() || loaded.Dim() != s.Dim() {
		t.Fatalf("loaded %d×%d, want %d×%d", loaded.Len(), loaded.Dim(), s.Len(), s.Dim())
	}
	for _, id := range s.IDs() {
		a, _ := s.Get(id)
		b, ok := loaded.Get(id)
		if !ok {
			t.Fatalf("node %d missing after load", id)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("node %d differs after round trip", id)
			}
		}
	}
	// Identical contents must serialize to identical bytes.
	same, _, err := LoadSnapshotV3(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(writeV3(t, same, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("snapshot bytes differ across save/load/save")
	}
}

// TestLoadRejectsGarbage: a file in any other format (here a few text
// bytes; in the field a pre-v3 gob image) is refused with the named
// error, never decoded into a store.
func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.snap")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshotV3(path, 4); !errors.Is(err, ErrNotV3Snapshot) {
		t.Fatalf("err = %v, want ErrNotV3Snapshot", err)
	}
}

func TestConcurrentMixedAccess(t *testing.T) {
	s, _ := New(8, F32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			vec := make([]float64, 8)
			for i := 0; i < 500; i++ {
				id := graph.NodeID(rng.Intn(256))
				switch rng.Intn(4) {
				case 0:
					vec[0] = float64(i)
					_ = s.Upsert(id, vec)
				case 1:
					_, _ = s.Get(id)
				case 2:
					_ = s.Delete(id)
				default:
					s.Range(func(graph.NodeID, *VecView) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScanViewByRow: inside one Scan hold, Rows.View of a run's First+i
// is that run's row i — the row-addressed read the scan re-rank makes
// instead of an id lookup — and every row keeps its number across
// deletes: a delete marks its row dead (Masked) and frees it, and the
// next new ids take the freed rows, the last freed first, before the
// slab grows, so it never holds more rows than its peak live count.
func TestScanViewByRow(t *testing.T) {
	s, err := New(4, F32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		row, err := s.UpsertRow(graph.NodeID(i), []float64{float64(i), 0, 0, 0})
		if err != nil || row != i {
			t.Fatalf("upsert of id %d: row %d, %v", i, row, err)
		}
	}
	var freed []int
	for i := 0; i < 100; i += 7 {
		s.Delete(graph.NodeID(i))
		freed = append(freed, i)
	}
	check := func() {
		t.Helper()
		seen := 0
		s.Scan(func(rs Rows) {
			var v VecView
			for ri := 0; ri < rs.Runs(); ri++ {
				r := rs.Run(ri)
				for i, id := range r.IDs {
					if r.Masked(i) {
						if row, ok := s.lookupLocked(id); ok && row == r.First+i {
							t.Errorf("row %d is dead but its last id %d is still live there", row, id)
						}
						continue
					}
					rs.View(r.First+i, &v)
					if v.F32[0] != float32(id) || v.Norm != float64(id) {
						t.Errorf("row %d (id %d): vec[0] %g, norm %g", r.First+i, id, v.F32[0], v.Norm)
					}
					if row, ok := s.lookupLocked(id); !ok || row != r.First+i {
						t.Errorf("id %d: Row %d, %v; scanned at row %d", id, row, ok, r.First+i)
					}
					seen++
				}
			}
			if rs.Len() != 100 {
				t.Errorf("%d rows, want the peak live count 100", rs.Len())
			}
		})
		if seen != s.Len() || seen != len(s.IDs()) {
			t.Fatalf("Scan visited %d live rows, Len = %d, %d IDs", seen, s.Len(), len(s.IDs()))
		}
	}
	check()
	for i := 1; i < 100; i += 7 { // survivors keep their rows
		if row, ok := s.Row(graph.NodeID(i)); !ok || row != i {
			t.Fatalf("id %d moved to row %d (%v) after unrelated deletes", i, row, ok)
		}
	}
	for id := 1000; len(freed) > 0; id++ {
		want := freed[len(freed)-1]
		freed = freed[:len(freed)-1]
		row, err := s.UpsertRow(graph.NodeID(id), []float64{float64(id), 0, 0, 0})
		if err != nil || row != want {
			t.Fatalf("new id %d: row %d, %v; want the last freed row %d", id, row, err, want)
		}
		check()
	}
}

// TestSnapshotWatermarkRoundTrip: SaveSnapshotV3 stamps a watermark and
// every loader hands it back, at the native or a converted precision.
func TestSnapshotWatermarkRoundTrip(t *testing.T) {
	s, err := New(2, F32)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Upsert(1, []float64{1, 2})
	_ = s.Upsert(9, []float64{3, 4})

	path := writeV3(t, s, 12345)
	loaded, wm, err := LoadSnapshotV3(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 12345 {
		t.Fatalf("watermark %d, want 12345", wm)
	}
	if !loaded.Equal(s) {
		t.Fatal("contents changed across watermarked round trip")
	}
	if _, wm, err = LoadSnapshotV3At(path, SQ8); err != nil || wm != 12345 {
		t.Fatalf("converted load: watermark %d (err %v), want 12345", wm, err)
	}
}

// TestApplyWAL drives the store through WAL records and checks the
// result matches direct mutation, including replay idempotence over a
// store that already contains a suffix of the log.
func TestApplyWAL(t *testing.T) {
	recs := []wal.Record{
		{Seq: 1, Op: wal.OpUpsert, ID: 1, Vec: []float64{1, 1}},
		{Seq: 2, Op: wal.OpUpsert, ID: 2, Vec: []float64{2, 2}},
		{Seq: 3, Op: wal.OpDelete, ID: 1},
		{Seq: 4, Op: wal.OpUpsert, ID: 2, Vec: []float64{5, 5}},
		{Seq: 5, Op: wal.OpDelete, ID: 99}, // delete of absent id is a no-op
	}
	apply := func(s *Store, from int) {
		t.Helper()
		for _, r := range recs[from:] {
			if err := s.ApplyWAL(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, _ := New(2, F32)
	_ = want.Upsert(2, []float64{5, 5})

	once, _ := New(2, F32)
	apply(once, 0)
	if !once.Equal(want) {
		t.Fatal("ApplyWAL diverged from direct mutation")
	}
	// A store already holding records 1-2 reconverges when the full log
	// replays over it (snapshot bleed-in case).
	bled, _ := New(2, F32)
	apply(bled, 0)
	apply(bled, 0)
	if !bled.Equal(want) {
		t.Fatal("double replay diverged")
	}
	if err := once.ApplyWAL(wal.Record{Seq: 6, Op: 77, ID: 1}); err == nil {
		t.Fatal("unknown op applied cleanly")
	}
}

// TestStoreEqual covers the comparison helper the crash-recovery
// harness relies on.
func TestStoreEqual(t *testing.T) {
	a, _ := New(2, F32)
	b, _ := New(2, F32)
	for i := graph.NodeID(0); i < 20; i++ {
		v := []float64{float64(i), -float64(i)}
		_ = a.Upsert(i, v)
		_ = b.Upsert(i, v)
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("identical stores compare unequal")
	}
	_ = b.Upsert(3, []float64{0.5, 0.5})
	if a.Equal(b) {
		t.Fatal("differing vector undetected")
	}
	_ = b.Upsert(3, []float64{3, -3})
	if !a.Equal(b) {
		t.Fatal("repaired store compares unequal")
	}
	_ = b.Delete(19)
	if a.Equal(b) {
		t.Fatal("missing id undetected")
	}
	c, _ := New(3, F32)
	if a.Equal(c) {
		t.Fatal("dimension mismatch undetected")
	}
}
