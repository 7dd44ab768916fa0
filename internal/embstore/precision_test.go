package embstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// Dim returns the vector's dimensionality.
func (v *VecView) Dim() int {
	if v.F32 != nil {
		return len(v.F32)
	}
	return len(v.Code)
}

var allPrecisions = []Precision{F32, SQ8}

// maxLaneErr is the acceptable |stored − original| per lane for a
// precision, given the vector it encodes.
func maxLaneErr(p Precision, v *VecView, orig []float64) float64 {
	if p == F32 {
		m := 0.0
		for _, x := range orig {
			m = math.Max(m, math.Abs(x))
		}
		return m * 1e-6
	}
	return v.Scale/2 + 1e-9*(math.Abs(v.Offset)+256*v.Scale+1)
}

// TestPrecisionRoundTrip: upsert → Get reconstructs within the
// precision's lane bound, norms carry the original value, and deletes
// leave the other rows intact, for every layout.
func TestPrecisionRoundTrip(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		if _, err := New(9, legacyF64); err == nil {
			t.Fatal("New built a float64 store")
		}
	})
	for _, p := range allPrecisions {
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			const dim, n = 9, 137
			s, err := New(dim, p)
			if err != nil {
				t.Fatal(err)
			}
			if s.Precision() != p {
				t.Fatalf("Precision() = %v", s.Precision())
			}
			orig := make(map[graph.NodeID][]float64)
			for i := 0; i < n; i++ {
				vec := make([]float64, dim)
				for j := range vec {
					vec[j] = rng.NormFloat64() * 3
				}
				id := graph.NodeID(i)
				orig[id] = vec
				if err := s.Upsert(id, vec); err != nil {
					t.Fatal(err)
				}
			}
			for id, vec := range orig {
				got, ok := s.Get(id)
				if !ok {
					t.Fatalf("id %d missing", id)
				}
				var bound float64
				s.With(id, func(v *VecView) {
					bound = maxLaneErr(p, v, vec)
					if want := vecmath.Norm(vec); v.Norm != want {
						t.Fatalf("id %d: norm %g want %g", id, v.Norm, want)
					}
					if v.Dim() != dim {
						t.Fatalf("id %d: view dim %d", id, v.Dim())
					}
				})
				for j := range vec {
					if d := math.Abs(got[j] - vec[j]); d > bound {
						t.Fatalf("%s id %d lane %d: |%g − %g| = %g > %g", p, id, j, got[j], vec[j], d, bound)
					}
				}
			}
			// Delete half; the rest must survive intact.
			for i := 0; i < n; i += 2 {
				if !s.Delete(graph.NodeID(i)) {
					t.Fatalf("delete %d = false", i)
				}
			}
			if s.Len() != n/2 {
				t.Fatalf("len %d after deletes", s.Len())
			}
			for i := 1; i < n; i += 2 {
				got, ok := s.Get(graph.NodeID(i))
				if !ok {
					t.Fatalf("id %d gone after unrelated deletes", i)
				}
				vec := orig[graph.NodeID(i)]
				var bound float64
				s.With(graph.NodeID(i), func(v *VecView) { bound = maxLaneErr(p, v, vec) })
				for j := range vec {
					if d := math.Abs(got[j] - vec[j]); d > bound {
						t.Fatalf("%s id %d lane %d after deletes: err %g > %g", p, i, j, d, bound)
					}
				}
			}
		})
	}
}

// TestPrecisionSnapshotRoundTrip: save → load at the same precision is
// lossless (Equal: bit-identical slab representations), for every
// layout — and survives a second cycle without drift.
func TestPrecisionSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	emb := tensor.Randn(100, 8, 1, rng)
	// A legacy float64 snapshot has no native store to load into.
	t.Run("f64", func(t *testing.T) {
		path, _ := legacyF64Fixture(t)
		if _, _, err := LoadSnapshotV3(path, 7); !errors.Is(err, ErrF64Snapshot) {
			t.Fatalf("LoadSnapshotV3(f64 fixture): err = %v, want ErrF64Snapshot", err)
		}
	})
	for _, p := range allPrecisions {
		t.Run(p.String(), func(t *testing.T) {
			s, err := FromMatrix(emb, p)
			if err != nil {
				t.Fatal(err)
			}
			loaded, _, err := LoadSnapshotV3(writeV3(t, s, 0), 7)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Precision() != p {
				t.Fatalf("native load precision %v, want %v", loaded.Precision(), p)
			}
			if !s.Equal(loaded) {
				t.Fatal("loaded store differs from saved store")
			}
			// Second cycle: quantized representations must not drift.
			again, _, err := LoadSnapshotV3(writeV3(t, loaded, 0), 3)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Equal(again) {
				t.Fatal("second save/load cycle drifted")
			}
		})
	}
}

// legacyF64Watermark is the WAL watermark the f64 fixture is stamped with.
const legacyF64Watermark = 17

// sourceRow is one vector of a snapshot under test: what was upserted,
// and the norm the snapshot carries for it.
type sourceRow struct {
	ID     graph.NodeID `json:"id"`
	Vector []float64    `json:"vector"`
	norm   float64
}

// legacyF64Fixture returns testdata/f64.snap — a one-run float64 v3
// snapshot written by SaveSnapshotV3 at the last commit whose stores
// could be f64 — and the rows upserted into it (testdata/f64.json, in
// the file's ascending-id order), one of them the zero vector.
func legacyF64Fixture(t testing.TB) (string, []sourceRow) {
	t.Helper()
	path := filepath.Join("testdata", "f64.snap")
	raw, err := os.ReadFile(filepath.Join("testdata", "f64.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []sourceRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := parseV3(data)
	if err != nil {
		t.Fatal(err)
	}
	if l.prec != legacyF64 || l.runs != 1 || l.count != uint64(len(rows)) || l.watermark != legacyF64Watermark {
		t.Fatalf("fixture header: precision tag %d, %d runs, %d rows, watermark %d", int(l.prec), l.runs, l.count, l.watermark)
	}
	idsSec, _, normSec := l.runSections(0)
	ids := castSlice[graph.NodeID](data[idsSec.off : idsSec.off+idsSec.length])
	norms := castSlice[float64](data[normSec.off : normSec.off+normSec.length])
	for i := range rows {
		if ids[i] != rows[i].ID {
			t.Fatalf("fixture row %d: id %d in the snapshot, %d in the list", i, ids[i], rows[i].ID)
		}
		rows[i].norm = norms[i]
	}
	return path, rows
}

// TestCrossPrecisionLoad: a snapshot written at any precision — the
// legacy float64 layout included — loads into a store of either
// serving precision with no id lost, reconstructing within the two
// precisions' lane bounds and preserving original norms; a float64
// store is not something it can load into any more.
func TestCrossPrecisionLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	emb := tensor.Randn(60, 6, 1, rng)
	type source struct {
		name      string
		path      string
		watermark uint64
		rows      []sourceRow
		laneErr   func(id graph.NodeID, orig []float64) float64 // what the source encoding already lost
	}
	fixture, fixtureRows := legacyF64Fixture(t)
	sources := []source{{"f64", fixture, legacyF64Watermark, fixtureRows,
		func(graph.NodeID, []float64) float64 { return 0 }}}
	for _, from := range allPrecisions {
		src, err := FromMatrix(emb, from)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]sourceRow, emb.Rows)
		for i := range rows {
			rows[i] = sourceRow{ID: graph.NodeID(i), Vector: emb.Row(i)}
			src.With(rows[i].ID, func(v *VecView) { rows[i].norm = v.Norm })
		}
		sources = append(sources, source{from.String(), writeV3(t, src, 99), 99, rows,
			func(id graph.NodeID, orig []float64) (bound float64) {
				src.With(id, func(v *VecView) { bound = maxLaneErr(from, v, orig) })
				return bound
			}})
	}
	for _, src := range sources {
		t.Run(src.name+"->f64", func(t *testing.T) {
			if _, _, err := LoadSnapshotV3At(src.path, legacyF64); err == nil {
				t.Fatal("loaded into a float64 store")
			}
		})
		for _, to := range allPrecisions {
			t.Run(src.name+"->"+to.String(), func(t *testing.T) {
				dst, wm, err := LoadSnapshotV3At(src.path, to)
				if err != nil {
					t.Fatal(err)
				}
				if wm != src.watermark {
					t.Fatalf("watermark %d", wm)
				}
				if dst.Precision() != to {
					t.Fatalf("precision %v want %v", dst.Precision(), to)
				}
				if dst.Len() != len(src.rows) {
					t.Fatalf("len %d want %d", dst.Len(), len(src.rows))
				}
				// Each vector must reconstruct within the sum of both
				// precisions' lane bounds, and norms must survive the trip
				// bit-exact (they ride the sidecar, not the codes).
				for _, row := range src.rows {
					got, ok := dst.Get(row.ID)
					if !ok {
						t.Fatalf("id %d missing", row.ID)
					}
					bound := src.laneErr(row.ID, row.Vector)
					dst.With(row.ID, func(v *VecView) {
						bound += maxLaneErr(to, v, row.Vector)
						if v.Norm != row.norm {
							t.Fatalf("id %d: norm %g want %g", row.ID, v.Norm, row.norm)
						}
					})
					for j, x := range row.Vector {
						if d := math.Abs(got[j] - x); d > bound {
							t.Fatalf("id %d lane %d: err %g > %g", row.ID, j, d, bound)
						}
					}
				}
			})
		}
	}
}

// TestCorruptSnapshotRejected: structurally inconsistent images — a
// sidecar or payload whose length disagrees with its run's id count,
// an unknown version or precision, a zero dim — must fail loudly even
// when every CRC has been recomputed to match (so the structural
// checks, not the checksums, are what refuses them), as must a
// truncated byte stream. TestV3CorruptionRejected covers bit flips.
func TestCorruptSnapshotRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	emb := tensor.Randn(20, 4, 1, rng)
	src, err := FromMatrix(emb, SQ8)
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(writeV3(t, src, 0))
	if err != nil {
		t.Fatal(err)
	}
	layout, err := parseV3(good)
	if err != nil {
		t.Fatal(err)
	}
	// entry returns the offset of the table entry of run 0's section of
	// the given kind.
	entry := func(kind v3Kind) int {
		for i, sec := range layout.sections {
			if sec.kind == kind && sec.run == 0 {
				return int(layout.tableOff) + i*v3EntrySize
			}
		}
		t.Fatalf("no section of kind %d", kind)
		return 0
	}
	corrupt := func(name string, mut func(data []byte), wantSub string) {
		t.Helper()
		data := bytes.Clone(good)
		mut(data)
		putLE32(data, 60, crc32.Checksum(data[:60], v3CRC))
		table := data[layout.tableOff : int(layout.tableOff)+len(layout.sections)*v3EntrySize+4]
		putLE32(table, len(table)-4, crc32.Checksum(table[:len(table)-4], v3CRC))
		path := filepath.Join(t.TempDir(), "corrupt.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadSnapshotV3(path, 2)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: err = %v, want substring %q", name, err, wantSub)
		}
	}
	corrupt("truncated sq8 sidecar", func(d []byte) {
		e := entry(v3KindMeta)
		putLE64(d, e+8, le64(d, e+8)-1)    // rows
		putLE64(d, e+24, le64(d, e+24)-32) // length
	}, "ids section has")
	corrupt("truncated codes", func(d []byte) {
		e := entry(v3KindPayload)
		putLE64(d, e+24, le64(d, e+24)-3)
	}, "bytes for")
	corrupt("future version", func(d []byte) { putLE32(d, 8, 99) }, "version")
	corrupt("unknown precision", func(d []byte) { putLE32(d, 16, 7) }, "precision")
	corrupt("bad dim", func(d []byte) { putLE32(d, 12, 0) }, "dim")

	trunc := filepath.Join(t.TempDir(), "trunc.snap")
	if err := os.WriteFile(trunc, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshotV3(trunc, 2); err == nil {
		t.Fatal("truncated stream loaded cleanly")
	}
}

// TestBytesPerVector documents the footprint the compressed plane is
// buying at the README's reference dimension.
func TestBytesPerVector(t *testing.T) {
	if got := F32.BytesPerVector(128); got != 520 {
		t.Fatalf("f32: %d", got)
	}
	if got := SQ8.BytesPerVector(128); got != 160 {
		t.Fatalf("sq8: %d", got)
	}
}

// TestParsePrecision covers the flag spellings.
func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]Precision{"f32": F32, "sq8": SQ8, "float32": F32, "int8": SQ8, "": 0} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision(f16) succeeded")
	}
	// f64 stopped being a serving precision; the message is the one
	// ehnad -precision f64 fails boot with.
	if _, err := ParsePrecision("f64"); err == nil || !strings.Contains(err.Error(), `unknown precision "f64" (want f32 or sq8)`) {
		t.Fatalf("ParsePrecision(f64): %v", err)
	}
}

// TestEqualAcrossPrecisions: stores of different precisions are never
// Equal, even with identical contents.
func TestEqualAcrossPrecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	emb := tensor.Randn(10, 4, 1, rng)
	a, _ := FromMatrix(emb, F32)
	b, _ := FromMatrix(emb, SQ8)
	if a.Equal(b) {
		t.Fatal("f32 store Equal sq8 store")
	}
}
