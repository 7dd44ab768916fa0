package embstore

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ehna/internal/graph"
)

// gid abbreviates the NodeID conversions the v3 tests make constantly.
func gid(id uint32) graph.NodeID { return graph.NodeID(id) }

// fillRandom populates s with n random vectors under ids 0..n-1 (plus
// a few sparse high ids so the ids are not dense) and returns the
// rng-seeded source for reproducibility.
func fillRandom(t testing.TB, s *Store, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vec := make([]float64, s.Dim())
	for i := 0; i < n; i++ {
		for j := range vec {
			vec[j] = rng.NormFloat64()
		}
		id := uint32(i)
		if i%17 == 0 {
			id = uint32(1_000_000 + i) // sparse high ids
		}
		if err := s.Upsert(gid(id), vec); err != nil {
			t.Fatal(err)
		}
	}
}

func writeV3(t testing.TB, s *Store, watermark uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshotV3(f, watermark); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// legacyShardedFixture returns testdata/sq8shards.snap — a dim-8 sq8
// v3 snapshot in four runs, written by SaveSnapshotV3 while the store
// was striped over four lock shards, stamped with watermark 11 — and a
// store built fresh from the rows upserted into it
// (testdata/sq8shards.json, in upsert order, one of them the zero
// vector). sq8 encoding is deterministic, so the two agree bit for bit.
func legacyShardedFixture(t testing.TB) (string, *Store) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "sq8shards.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []sourceRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	want, err := New(8, SQ8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := want.Upsert(r.ID, r.Vector); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join("testdata", "sq8shards.snap"), want
}

func TestV3RoundTrip(t *testing.T) {
	// A legacy float64 image round-trips through its one way in: converted
	// on load, it saves as an ordinary f32 snapshot, watermark kept.
	t.Run("f64", func(t *testing.T) {
		path, rows := legacyF64Fixture(t)
		s, wm, err := LoadSnapshotV3At(path, F32)
		if err != nil {
			t.Fatal(err)
		}
		got, wm2, err := LoadSnapshotV3(writeV3(t, s, wm), 9)
		if err != nil {
			t.Fatal(err)
		}
		if wm != legacyF64Watermark || wm2 != wm {
			t.Fatalf("watermarks %d, %d; want %d", wm, wm2, legacyF64Watermark)
		}
		if got.Precision() != F32 || got.Len() != len(rows) || !got.Equal(s) {
			t.Fatalf("re-saved fixture: %s, %d rows, equal=%v", got.Precision(), got.Len(), got.Equal(s))
		}
	})
	for _, prec := range allPrecisions {
		t.Run(prec.String(), func(t *testing.T) {
			s, err := New(7, prec)
			if err != nil {
				t.Fatal(err)
			}
			fillRandom(t, s, 300, 1)
			s.Delete(gid(5))
			s.Delete(gid(250))
			path := writeV3(t, s, 42)

			// Reload: contents must match bit for bit.
			got, wm, err := LoadSnapshotV3(path, 9)
			if err != nil {
				t.Fatal(err)
			}
			if wm != 42 {
				t.Fatalf("watermark = %d, want 42", wm)
			}
			if !got.Equal(s) {
				t.Fatal("round-tripped store differs")
			}
		})
	}
}

func TestV3EmptyStore(t *testing.T) {
	s, err := New(4, SQ8)
	if err != nil {
		t.Fatal(err)
	}
	path := writeV3(t, s, 7)
	got, wm, err := LoadSnapshotV3(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 7 || got.Len() != 0 {
		t.Fatalf("empty store round trip: wm=%d len=%d", wm, got.Len())
	}
}

func TestV3CrossPrecisionLoad(t *testing.T) {
	// The full-precision source is the legacy float64 fixture: its rows
	// are the original vectors, bit for bit.
	path, rows := legacyF64Fixture(t)
	for _, target := range allPrecisions {
		got, _, err := LoadSnapshotV3At(path, target)
		if err != nil {
			t.Fatal(err)
		}
		if got.Precision() != target || got.Len() != len(rows) {
			t.Fatalf("%s: prec=%s len=%d", target, got.Precision(), got.Len())
		}
		// The converted store must equal a direct conversion through
		// the upsert path.
		want, _ := New(len(rows[0].Vector), target)
		for _, row := range rows {
			if _, err := want.upsertNorm(row.ID, row.Vector, row.norm); err != nil {
				t.Fatal(err)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("%s: cross-precision load differs from upsert conversion", target)
		}
	}
}

// corruptV3 flips one byte at off in a copy of the file and returns
// the copy's path.
func corruptV3(t *testing.T, path string, off int64) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(data))
	}
	data[off] ^= 0x40
	out := filepath.Join(t.TempDir(), "corrupt.snap")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestV3CorruptionRejected walks the corruption matrix the issue
// demands: a bit flip in the header, the section table, and every
// section body must be rejected at open — by both loaders.
func TestV3CorruptionRejected(t *testing.T) {
	s, err := New(4, SQ8)
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, s, 64, 4)
	path := writeV3(t, s, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := parseV3(data)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]int64{
		"header-magic":     0,
		"header-dim":       12,
		"header-count":     24,
		"header-crc":       60,
		"table-entry":      int64(l.tableOff) + 8,
		"table-crc":        -1,
		"truncated-header": 0, // handled below
	}
	for i := range l.sections {
		sec := l.sections[i]
		if sec.length == 0 {
			continue
		}
		name := map[v3Kind]string{v3KindIDs: "ids", v3KindPayload: "payload", v3KindNorms: "norms", v3KindMeta: "meta"}[sec.kind]
		cases[name+"-sec"] = int64(sec.off)
		cases[name+"-sec-end"] = int64(sec.off + sec.length - 1)
	}

	for name, off := range cases {
		t.Run(name, func(t *testing.T) {
			var bad string
			if name == "truncated-header" {
				bad = filepath.Join(t.TempDir(), "trunc.snap")
				if err := os.WriteFile(bad, data[:40], 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				bad = corruptV3(t, path, off)
			}
			if _, _, err := LoadSnapshotV3(bad, 2); err == nil {
				t.Fatal("copy loader accepted corrupt snapshot")
			}
			if st, _, err := OpenMmap(bad); err == nil {
				st.Close()
				t.Fatal("mmap loader accepted corrupt snapshot")
			}
		})
	}

	// Truncated mid-file: the table offset points past EOF.
	trunc := filepath.Join(t.TempDir(), "trunc2.snap")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshotV3(trunc, 2); err == nil {
		t.Fatal("copy loader accepted truncated snapshot")
	}
	if st, _, err := OpenMmap(trunc); err == nil {
		st.Close()
		t.Fatal("mmap loader accepted truncated snapshot")
	}
}

// FuzzV3Parse hammers the header/section-table decoder: arbitrary
// bytes must never panic, and anything parseV3 accepts must survive
// verifySections without faulting. The seeds are a fresh one-run file,
// its truncations, and the checked-in four-run legacy file.
func FuzzV3Parse(f *testing.F) {
	s, err := New(3, SQ8)
	if err != nil {
		f.Fatal(err)
	}
	fillRandom(f, s, 20, 5)
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.snap")
	file, err := os.Create(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.SaveSnapshotV3(file, 3); err != nil {
		f.Fatal(err)
	}
	file.Close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:v3HeaderSize])
	f.Add([]byte(v3Magic))
	legacy, err := os.ReadFile(filepath.Join("testdata", "sq8shards.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy) // a multi-run table: the writer emits one run
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := parseV3(data)
		if err != nil {
			return
		}
		_ = l.verifySections(data)
	})
}

func BenchmarkV3Save(b *testing.B) {
	s, err := New(64, SQ8)
	if err != nil {
		b.Fatal(err)
	}
	fillRandom(b, s, 10_000, 6)
	path := filepath.Join(b.TempDir(), "bench.snap")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.SaveSnapshotV3(f, 0); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// TestV3SaveDeterministic: two saves of one store are byte-identical,
// even when the padding after each in-memory sq8 sidecar record holds
// stray bytes.
func TestV3SaveDeterministic(t *testing.T) {
	s, err := New(7, SQ8)
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, s, 300, 3)
	a, err := os.ReadFile(writeV3(t, s, 9))
	if err != nil {
		t.Fatal(err)
	}
	raw := sliceBytes(s.meta)
	for o := 28; o < len(raw); o += 32 {
		copy(raw[o:o+4], []byte{0xde, 0xad, 0xbe, 0xef})
	}
	b, err := os.ReadFile(writeV3(t, s, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of one store differ")
	}
}
