package ann

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/graph"
)

// sameStructure fails unless got holds want's graph slot for slot: ids,
// liveness, alive bits, every layer's links, entry and max level.
func sameStructure(t *testing.T, want, got *HNSW) {
	t.Helper()
	want.mu.RLock()
	defer want.mu.RUnlock()
	got.mu.RLock()
	defer got.mu.RUnlock()
	if len(got.nodes) != len(want.nodes) || got.alive != want.alive ||
		got.entry != want.entry || got.maxLevel != want.maxLevel {
		t.Fatalf("loaded %d slots (%d live), entry %d at level %d; saved %d (%d live), entry %d at level %d",
			len(got.nodes), got.alive, got.entry, got.maxLevel, len(want.nodes), want.alive, want.entry, want.maxLevel)
	}
	for s := range want.nodes {
		w, g := &want.nodes[s], &got.nodes[s]
		if g.id != w.id || g.alive != w.alive || got.aliveBit(uint32(s)) != w.alive || len(g.links) != len(w.links) {
			t.Fatalf("slot %d: loaded id %d alive %v (bit %v) with %d layers, saved id %d alive %v with %d layers",
				s, g.id, g.alive, got.aliveBit(uint32(s)), len(g.links), w.id, w.alive, len(w.links))
		}
		for l := range w.links {
			if !slices.Equal(g.links[l], w.links[l]) {
				t.Fatalf("slot %d layer %d: loaded links %v, saved %v", s, l, g.links[l], w.links[l])
			}
		}
	}
}

// slabMirrorsStore fails unless every live slot's slab row is its id's
// stored row bit for bit and every tombstoned row is zero.
func slabMirrorsStore(t *testing.T, h *HNSW) {
	t.Helper()
	h.mu.RLock()
	defer h.mu.RUnlock()
	for s := range h.nodes {
		var row embstore.VecView
		h.slabView(uint32(s), &row)
		want := embstore.VecView{F32: make([]float32, len(row.F32)), Code: make([]int8, len(row.Code))}
		if h.nodes[s].alive && !h.store.With(h.nodes[s].id, func(v *embstore.VecView) {
			want = *v
			want.F32, want.Code = slices.Clone(v.F32), slices.Clone(v.Code)
		}) {
			t.Fatalf("slot %d: live id %d not in the store", s, h.nodes[s].id)
		}
		// The sq8 sidecar is narrowed to float32 in the slab (sq8Side).
		narrow := func(x float64) float64 { return float64(float32(x)) }
		same := slices.Equal(row.F32, want.F32) && slices.Equal(row.Code, want.Code)
		if h.prec == embstore.F32 {
			same = same && row.Norm == want.Norm
		} else {
			same = same && row.CodeSum == want.CodeSum && row.Norm == narrow(want.Norm) &&
				row.Scale == narrow(want.Scale) && row.Offset == narrow(want.Offset)
		}
		if !same {
			t.Fatalf("slot %d (alive %v): slab row %+v, store row %+v", s, h.nodes[s].alive, row, want)
		}
	}
}

// graphFile is a saved graph with its section offsets, for tests that
// corrupt one field.
type graphFile struct {
	b                    []byte
	slots, layers, links int
}

func saveGraphFile(t testing.TB, h *HNSW) graphFile {
	t.Helper()
	var buf bytes.Buffer
	if err := h.SaveGraph(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := parseGraphHeader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return graphFile{b: buf.Bytes(), slots: g.slots, layers: g.layers, links: g.links}
}

func (f graphFile) ids() int     { return graphHeaderSize }
func (f graphFile) levels() int  { return f.ids() + 4*f.slots }
func (f graphFile) degrees() int { return f.levels() + f.slots }
func (f graphFile) linksAt() int { return f.degrees() + 2*f.layers }
func (f graphFile) trailer() int { return f.linksAt() + 4*f.links }

func (f graphFile) u32(off int) uint32       { return binary.LittleEndian.Uint32(f.b[off:]) }
func (f graphFile) putU32(off int, v uint32) { binary.LittleEndian.PutUint32(f.b[off:], v) }

// reseal recomputes both checksums of a mutated graph file in place, so
// the loader's structural checks — not the CRCs — have to catch the
// mutation.
func reseal(b []byte) []byte {
	if len(b) >= graphHeaderSize {
		binary.LittleEndian.PutUint32(b[68:], crc32.Checksum(b[:68], graphCRC))
	}
	if len(b) >= graphHeaderSize+4 {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[graphHeaderSize:len(b)-4], graphCRC))
	}
	return b
}

// gobGraph is a graph snapshot in the gob format of versions before the
// flat file: what the loader recognizes is the wire type's name.
func gobGraph(t *testing.T) []byte {
	type hnswWire struct {
		Version, M int
		IDs        []graph.NodeID
		Links      []uint32
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(hnswWire{Version: 1, M: 16, IDs: []graph.NodeID{1}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// unsized hides a reader's length, so the loader streams without
// knowing where the input ends.
type unsized struct{ io.Reader }

// TestHNSWLoadRejectsCorrupt locks in the loader's validation over raw
// bytes: every mutation below must be refused with its own error, at
// load, instead of crashing (or silently misanswering) the first query.
func TestHNSWLoadRejectsCorrupt(t *testing.T) {
	s := randomStore(t, 50, 8, 20)
	h := mustHNSW(t, s, DefaultHNSWConfig())
	base := saveGraphFile(t, h)
	if _, err := LoadHNSWGraph(bytes.NewReader(base.b), s); err != nil {
		t.Fatalf("clean file rejected: %v", err)
	}
	// The cases below edit slot 0 (its layer-0 list starts the links
	// section) and slot 1, both live in a fresh build.
	h.mu.RLock()
	entry := h.entry
	if !h.nodes[1].alive || len(h.nodes[0].links) == 0 || len(h.nodes[0].links[0]) < 2 {
		t.Fatal("test graph too sparse")
	}
	h.mu.RUnlock()
	entryLayers := int(base.b[base.levels()+entry] &^ graphLive)

	cases := []struct {
		name   string
		mutate func(f graphFile) []byte // returns the bytes to load
		want   string
	}{
		{"bad magic", func(f graphFile) []byte { f.b[0] = 'X'; return f.b }, "magic"},
		{"gob file", func(graphFile) []byte { return gobGraph(t) }, ErrGobGraph.Error()},
		{"version", func(f graphFile) []byte { f.putU32(8, 99); return reseal(f.b) }, "version 99"},
		{"header CRC", func(f graphFile) []byte { f.b[17] ^= 1; return f.b }, "header CRC"},
		{"section CRC", func(f graphFile) []byte { f.b[f.trailer()] ^= 1; return f.b }, "section CRC"},
		{"flipped link bit", func(f graphFile) []byte { f.b[f.linksAt()] ^= 1; return f.b }, "section CRC"},
		{"unknown metric", func(f graphFile) []byte { f.putU32(12, 7); return reseal(f.b) }, "unknown metric"},
		{"entry out of range", func(f graphFile) []byte { f.putU32(36, uint32(f.slots)); return reseal(f.b) }, "entry slot"},
		{"no entry over live slots", func(f graphFile) []byte {
			f.putU32(36, ^uint32(0))
			f.putU32(40, ^uint32(0))
			return reseal(f.b)
		}, "entry slot -1"},
		{"entry below max level", func(f graphFile) []byte { f.putU32(40, uint32(entryLayers)); return reseal(f.b) }, "max level"},
		{"link out of range", func(f graphFile) []byte { f.putU32(f.linksAt(), uint32(f.slots)); return reseal(f.b) }, "link to slot"},
		{"self-link", func(f graphFile) []byte { f.putU32(f.linksAt(), 0); return reseal(f.b) }, "self-link"},
		{"duplicate link", func(f graphFile) []byte {
			f.putU32(f.linksAt()+4, f.u32(f.linksAt()))
			return reseal(f.b)
		}, "duplicate link"},
		{"degree over cap", func(f graphFile) []byte {
			binary.LittleEndian.PutUint16(f.b[f.degrees():], uint16(2*h.cfg.M+1))
			return reseal(f.b)
		}, "degree"},
		{"live slot with no layers", func(f graphFile) []byte { f.b[f.levels()] = graphLive; return reseal(f.b) }, "live slot 0 has no layers"},
		{"layer count over the cap", func(f graphFile) []byte { f.b[f.levels()] = graphLive | 40; return reseal(f.b) }, "layers overrun"},
		{"duplicate live id", func(f graphFile) []byte {
			// Slot 1 takes slot 0's id: that id is live twice and slot 1's
			// is missing, with the live count still the store's.
			f.putU32(f.ids()+4, f.u32(f.ids()))
			return reseal(f.b)
		}, "is live in two slots"},
		{"trailing byte", func(f graphFile) []byte { return append(f.b, 0) }, "trailing data"},
	}
	for _, c := range cases {
		f := base
		f.b = slices.Clone(base.b)
		_, err := LoadHNSWGraph(bytes.NewReader(c.mutate(f)), s)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, err := LoadHNSWGraph(bytes.NewReader(gobGraph(t)), s); !errors.Is(err, ErrGobGraph) {
		t.Errorf("gob file: err = %v, want ErrGobGraph", err)
	}

	// Truncation inside every part of the file, from a reader that
	// knows its length (checked against the header up front) and from
	// one that does not (the section read comes up short).
	for _, cut := range []struct {
		name       string
		at         int
		streamWant string
	}{
		{"header", 40, "truncated header"},
		{"ids", base.levels() - 2, "in the ids section"},
		{"levels", base.degrees() - 1, "in the levels section"},
		{"degrees", base.linksAt() - 1, "in the degrees section"},
		{"links", base.trailer() - 3, "in the links section"},
		{"trailer", len(base.b) - 2, "in the trailer"},
	} {
		b := base.b[:cut.at]
		if _, err := LoadHNSWGraph(bytes.NewReader(b), s); err == nil {
			t.Errorf("cut in the %s: accepted from a sized reader", cut.name)
		}
		if _, err := LoadHNSWGraph(unsized{bytes.NewReader(b)}, s); err == nil || !strings.Contains(err.Error(), cut.streamWant) {
			t.Errorf("cut in the %s: streamed err = %v, want one naming %q", cut.name, err, cut.streamWant)
		}
	}

	// The graph must cover exactly the store's ids.
	smaller := randomStore(t, 49, 8, 20)
	if _, err := LoadHNSWGraph(bytes.NewReader(base.b), smaller); err == nil || !strings.Contains(err.Error(), "store holds 49") {
		t.Errorf("graph over a smaller store: err = %v", err)
	}
	other, err := embstore.New(8, 8, embstore.F32)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 50; id++ {
		vec := make([]float64, 8)
		vec[id%8] = 1
		if err := other.Upsert(graph.NodeID(1000+id), vec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadHNSWGraph(bytes.NewReader(base.b), other); err == nil || !strings.Contains(err.Error(), "does not index") {
		t.Errorf("graph over a store of other ids: err = %v", err)
	}
}

// FuzzLoadHNSWGraph: mutated graph files — as mutated, and with both
// checksums recomputed so the mutation reaches the structural checks —
// must never panic the loader or read past the input, and any file it
// accepts must be a sound graph over the store: the mutation-test
// invariant walk, a slab that mirrors the store, and a working search.
func FuzzLoadHNSWGraph(f *testing.F) {
	s := randomStore(f, 40, 4, 21)
	h := mustHNSW(f, s, DefaultHNSWConfig())
	h.Remove(3) // a tombstone; the store drops the id too
	valid := saveGraphFile(f, h).b
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:graphHeaderSize])
	q := []float64{1, 0.5, -0.25, 0}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range [][]byte{data, reseal(slices.Clone(data))} {
			g, err := LoadHNSWGraph(bytes.NewReader(b), s)
			if err != nil {
				continue
			}
			checkGraphInvariants(t, g)
			slabMirrorsStore(t, g)
			if _, err := g.Search(q, 5); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestLoadHNSWGraphAllocs pins the loader's allocation count: a fixed
// set of arrays per load (plus the id map's tables), not one per node.
func TestLoadHNSWGraphAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	store := buildStoreAt(t, 2000, 16, embstore.SQ8)
	b := saveGraphFile(t, mustHNSW(t, store, DefaultHNSWConfig())).b
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := LoadHNSWGraph(bytes.NewReader(b), store); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("LoadHNSWGraph of 2000 nodes: %v allocations, want ≤ 64", allocs)
	}
}
