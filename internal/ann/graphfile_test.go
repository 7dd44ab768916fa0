package ann

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/graph"
)

// sameStructure fails unless got holds want's live graph as SaveGraph
// writes it: want's live slots in slot order, renumbered from 0, each
// with its id and layer count, its links to live slots through the same
// renumbering, and the entry and max level; got holds
// no tombstone. Over a graph without tombstones that is want slot for
// slot.
func sameStructure(t *testing.T, want, got *HNSW) {
	t.Helper()
	want.mu.RLock()
	defer want.mu.RUnlock()
	got.mu.RLock()
	defer got.mu.RUnlock()
	newSlot := make([]uint32, len(want.nodes))
	var live []uint32
	for s := range want.nodes {
		if want.nodes[s].alive {
			newSlot[s] = uint32(len(live))
			live = append(live, uint32(s))
		}
	}
	entry := want.entry
	if entry >= 0 {
		entry = int(newSlot[entry])
	}
	if len(got.nodes) != len(live) || got.alive != want.alive || got.entry != entry || got.maxLevel != want.maxLevel {
		t.Fatalf("loaded %d slots (%d live), entry %d at level %d; saved %d live slots, entry %d (renumbered) at level %d",
			len(got.nodes), got.alive, got.entry, got.maxLevel, len(live), entry, want.maxLevel)
	}
	for i, s := range live {
		w, g := &want.nodes[s], &got.nodes[i]
		if g.id != w.id || !g.alive || !got.aliveBit(uint32(i)) || len(g.links) != len(w.links) {
			t.Fatalf("slot %d (saved slot %d): loaded id %d alive %v (bit %v) with %d layers, saved id %d with %d layers",
				i, s, g.id, g.alive, got.aliveBit(uint32(i)), len(g.links), w.id, len(w.links))
		}
		for l, links := range w.links {
			var mapped []uint32
			for _, nb := range links {
				if want.aliveBit(nb) {
					mapped = append(mapped, newSlot[nb])
				}
			}
			if !slices.Equal(g.links[l], mapped) {
				t.Fatalf("slot %d (saved slot %d) layer %d: loaded links %v, saved %v renumbered", i, s, l, g.links[l], mapped)
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

// TestSaveGraphDropsTombstones: a graph churned by deletes, overwrites
// and new ids saves as a tombstone-free file. The reloaded graph holds
// the same live ids and no tombstone, each id keeps its neighbor ids
// minus the tombstones, and it answers a fixed query set
// exactly as the graph it was saved from.
func TestSaveGraphDropsTombstones(t *testing.T) {
	const n, dim = 1000, 16
	store, err := embstore.New(dim, embstore.DefaultShards, embstore.SQ8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHNSW(store, DefaultHNSWConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Inserted one by one, every slab row is its vector's encoding, as
	// the store's is, so the reloaded slab scores bit for bit alike.
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < n; i++ {
		if err := h.Add(graph.NodeID(i), randVec(rng, make([]float64, dim))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 900; i++ {
		id := graph.NodeID(rng.Intn(n + i/3)) // overwrites, re-adds and new ids
		if i%3 == 0 {
			h.Remove(id)
		} else if err := h.Add(id, randVec(rng, make([]float64, dim))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		h.Remove(graph.NodeID(rng.Intn(n)))
	}

	// neighbors maps each live id to its neighbor ids per layer, counting
	// the links that lead nowhere and are left out.
	neighbors := func(h *HNSW) (map[graph.NodeID][][]graph.NodeID, int) {
		h.mu.RLock()
		defer h.mu.RUnlock()
		out, dropped := make(map[graph.NodeID][][]graph.NodeID, h.alive), 0
		for s := range h.nodes {
			node := &h.nodes[s]
			if !node.alive {
				continue
			}
			layers := make([][]graph.NodeID, len(node.links))
			for l, links := range node.links {
				for _, nb := range links {
					if h.aliveBit(nb) {
						layers[l] = append(layers[l], h.nodes[nb].id)
					} else {
						dropped++
					}
				}
			}
			out[node.id] = layers
		}
		return out, dropped
	}
	want, dropped := neighbors(h)
	alive, tombs, _ := h.Stats()
	if tombs == 0 || dropped == 0 {
		t.Fatalf("%d tombstones and %d links to drop after the churn: the test exercised nothing", tombs, dropped)
	}

	var buf bytes.Buffer
	if err := h.SaveGraph(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHNSWGraph(bytes.NewReader(buf.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	if gotAlive, gotTombs, _ := loaded.Stats(); gotAlive != alive || gotTombs != 0 {
		t.Fatalf("reloaded %d live nodes and %d tombstones; saved %d live nodes beside %d tombstones", gotAlive, gotTombs, alive, tombs)
	}
	got, gotDropped := neighbors(loaded)
	if gotDropped != 0 {
		t.Fatalf("the reloaded graph holds %d links that lead nowhere", gotDropped)
	}
	for id, layers := range want {
		if !slices.EqualFunc(got[id], layers, slices.Equal) {
			t.Fatalf("node %d: reloaded neighbors %v, saved %v less the dead", id, got[id], layers)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("reloaded %d live ids, saved %d", len(got), len(want))
	}
	sameStructure(t, h, loaded)
	checkGraphInvariants(t, loaded)
	slabMirrorsStore(t, loaded)
	for qi := 0; qi < 50; qi++ {
		q := randVec(rng, make([]float64, dim))
		a, err := h.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(b, a) {
			t.Fatalf("query %d: reloaded graph answers %v, saved graph %v", qi, b, a)
		}
	}
}

// graphFileWithTombstones writes h as versions before slot reuse did:
// every slot in place, tombstones included (with no layers, as a
// detach leaves them), and every link as it stands.
func graphFileWithTombstones(h *HNSW) []byte {
	h.mu.RLock()
	defer h.mu.RUnlock()
	le := binary.LittleEndian
	var ids, levels, degrees, links []byte
	layers, nlinks := 0, 0
	for s := range h.nodes {
		node := &h.nodes[s]
		ids = le.AppendUint32(ids, uint32(node.id))
		lv := byte(len(node.links))
		if node.alive {
			lv |= graphLive
		}
		levels = append(levels, lv)
		for _, l := range node.links {
			degrees = le.AppendUint16(degrees, uint16(len(l)))
			layers++
			for _, nb := range l {
				links = le.AppendUint32(links, nb)
				nlinks++
			}
		}
	}
	hdr := make([]byte, graphHeaderSize)
	copy(hdr, graphMagic)
	le.PutUint32(hdr[8:], graphVersion)
	le.PutUint32(hdr[12:], uint32(h.cfg.Metric))
	le.PutUint32(hdr[16:], uint32(h.cfg.M))
	le.PutUint32(hdr[20:], uint32(h.cfg.EfConstruction))
	le.PutUint32(hdr[24:], uint32(h.cfg.EfSearch))
	le.PutUint32(hdr[28:], uint32(len(h.nodes)))
	le.PutUint32(hdr[32:], uint32(h.alive))
	le.PutUint32(hdr[36:], uint32(int32(h.entry)))
	le.PutUint32(hdr[40:], uint32(int32(h.maxLevel)))
	le.PutUint64(hdr[44:], uint64(h.cfg.Seed))
	le.PutUint64(hdr[52:], uint64(layers))
	le.PutUint64(hdr[60:], uint64(nlinks))
	le.PutUint32(hdr[68:], crc32.Checksum(hdr[:68], graphCRC))
	body := append(append(append(ids, levels...), degrees...), links...)
	return le.AppendUint32(append(hdr, body...), crc32.Checksum(body, graphCRC))
}

// TestLoadGraphWithTombstones: a graph file that holds tombstoned slots,
// as versions before slot reuse wrote them, still loads slot for slot.
// Its dead slots wait on the free list, the links to them above layer 0
// that those versions left are dropped, and the next inserts reuse the
// slots.
func TestLoadGraphWithTombstones(t *testing.T) {
	s := randomStore(t, 300, 8, 23)
	h := mustHNSW(t, s, DefaultHNSWConfig())
	for id := 0; id < 300; id += 7 {
		h.Remove(graph.NodeID(id))
	}
	// A one-way link above layer 0 to a tombstone, as no repair rewrote
	// it.
	h.mu.Lock()
	up := h.upper[0]
	for _, u := range h.upper {
		if len(h.nodes[u].links[1]) < len(h.nodes[up].links[1]) {
			up = u
		}
	}
	if l := h.nodes[up].links[1]; len(l) < h.cfg.M {
		h.nodes[up].links[1] = append(l, h.free[0])
	} else {
		l[0] = h.free[0]
	}
	h.mu.Unlock()
	loaded, err := LoadHNSWGraph(bytes.NewReader(graphFileWithTombstones(h)), s)
	if err != nil {
		t.Fatal(err)
	}
	_, tombs, _ := h.Stats()
	if _, got, _ := loaded.Stats(); got != tombs || len(loaded.nodes) != len(h.nodes) {
		t.Fatalf("loaded %d slots with %d tombstones, saved %d with %d", len(loaded.nodes), got, len(h.nodes), tombs)
	}
	checkGraphInvariants(t, loaded) // the free list is exactly the dead slots
	if !bytes.Equal(saveGraphFile(t, loaded).b, saveGraphFile(t, h).b) {
		t.Fatal("the loaded graph's live part differs from the saved graph's")
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < tombs; i++ {
		if err := loaded.Add(graph.NodeID(1000+i), randVec(rng, make([]float64, 8))); err != nil {
			t.Fatal(err)
		}
	}
	if _, got, _ := loaded.Stats(); got != 0 || len(loaded.nodes) != len(h.nodes) {
		t.Fatalf("after %d inserts: %d slots, %d tombstones; want %d slots, none", tombs, len(loaded.nodes), got, len(h.nodes))
	}
	checkGraphInvariants(t, loaded)
}
