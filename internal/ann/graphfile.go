// The HNSW graph file: what SaveGraph writes and LoadHNSWGraph reads, so
// a daemon boots over a prebuilt graph instead of rebuilding it. It
// holds link structure only; the vectors live in the embstore snapshot
// beside it, and the loader mirrors them into the graph slab from the
// store.
//
// Layout (all integers little-endian; like the v3 store snapshot, the
// file is read straight into slice memory, so big-endian hosts are
// refused):
//
//	header (72 B)
//	  [0:8)   magic "EHNAHNSW"
//	  [8:12)  version u32 = 1
//	  [12:16) metric u32
//	  [16:20) M u32
//	  [20:24) efConstruction u32
//	  [24:28) efSearch u32
//	  [28:32) slots u32 (live + tombstoned; SaveGraph writes live only)
//	  [32:36) live slots u32
//	  [36:40) entry slot i32 (−1: no live slot)
//	  [40:44) max level i32 (−1: no live slot)
//	  [44:52) level-draw seed i64
//	  [52:60) layers u64 (Σ over slots of the slot's layer count)
//	  [60:68) links u64 (Σ over layers of the layer's degree)
//	  [68:72) CRC32C of bytes [0:68)
//	sections, back to back:
//	  ids      slots × u32    node id per slot
//	  levels   slots × u8     layer count (bits 0–6) | live (bit 7)
//	  degrees  layers × u16   link count per slot per layer, slot-major
//	  links    links × u32    neighbor slots, in degree order
//	trailer: CRC32C u32 of the sections
//
// The header fixes every section's length, so the loader checks it
// against the bytes the reader holds (files and in-memory readers can
// tell) before it allocates anything, then reads each section whole
// into its array: no whole-file buffer, no per-node allocation. Layer
// headers are cut from one shared [][]uint32 and link lists from one
// []uint32, each list capped at its own length so an append after boot
// copies out instead of overwriting the next list.
//
// SaveGraph writes the live slots only, renumbered in slot order, so a
// file it writes holds no tombstone; over a graph without tombstones
// the renumbering is the identity and the file is what the graph holds
// byte for byte. Files from versions that wrote tombstones still load:
// their dead slots go on the free list, for inserts to reuse, and links
// to them above layer 0 are dropped.
package ann

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"unsafe"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
)

const (
	graphMagic      = "EHNAHNSW"
	graphVersion    = 1
	graphHeaderSize = 72
	// graphLive marks a live slot in its levels byte; the low bits are
	// the layer count (≤ hnswMaxLevel+1).
	graphLive = 0x80
)

var graphCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrGobGraph is wrapped by LoadHNSWGraph for a graph snapshot in the
// gob format versions before the flat file wrote. Nothing converts it:
// the graph is rebuilt from the store.
var ErrGobGraph = errors.New("gob graph snapshot from an older version: rebuild it (ehnad-mkstore -hnsw), or delete the file so the daemon builds the graph")

// hostLittleEndian gates the loader and writer, which move sections in
// and out of slice memory unconverted.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sliceBytes reinterprets a slice's backing array as raw bytes
// (embstore keeps its own copy of this helper for the v3 format).
func sliceBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// graphHeader is the decoded, range-checked header.
type graphHeader struct {
	cfg             HNSWConfig
	slots, alive    int
	entry, maxLevel int
	layers, links   int
}

// bodyLen is the byte length of everything after the header.
func (g *graphHeader) bodyLen() int64 {
	return 5*int64(g.slots) + 2*int64(g.layers) + 4*int64(g.links) + 4
}

// parseGraphHeader decodes b, the (up to graphHeaderSize) first bytes
// of a graph file. Counts are bounded by one another before anything is
// sized from them: layers by 33 per slot, links by the degree cap per
// layer.
func parseGraphHeader(b []byte) (graphHeader, error) {
	var g graphHeader
	if len(b) < len(graphMagic) || string(b[:len(graphMagic)]) != graphMagic {
		// A gob snapshot opens with the definition of its wire type, so
		// the type's name sits in its first bytes.
		if bytes.Contains(b, []byte("hnswWire")) {
			return g, ErrGobGraph
		}
		return g, fmt.Errorf("not an HNSW graph file (no %q magic)", graphMagic)
	}
	if len(b) < graphHeaderSize {
		return g, fmt.Errorf("truncated header: %d of %d bytes", len(b), graphHeaderSize)
	}
	le := binary.LittleEndian
	if got, stored := crc32.Checksum(b[:68], graphCRC), le.Uint32(b[68:]); got != stored {
		return g, fmt.Errorf("header CRC mismatch (got %08x, stored %08x)", got, stored)
	}
	if v := le.Uint32(b[8:]); v != graphVersion {
		return g, fmt.Errorf("version %d, want %d", v, graphVersion)
	}
	g.cfg = HNSWConfig{
		Metric:         Metric(le.Uint32(b[12:])),
		M:              int(le.Uint32(b[16:])),
		EfConstruction: int(le.Uint32(b[20:])),
		EfSearch:       int(le.Uint32(b[24:])),
		Seed:           int64(le.Uint64(b[44:])),
	}
	if g.cfg.Metric != Cosine && g.cfg.Metric != DotProduct {
		return g, fmt.Errorf("unknown metric %d", g.cfg.Metric)
	}
	if err := g.cfg.fill(); err != nil {
		return g, err
	}
	g.slots, g.alive = int(le.Uint32(b[28:])), int(le.Uint32(b[32:]))
	g.entry, g.maxLevel = int(int32(le.Uint32(b[36:]))), int(int32(le.Uint32(b[40:])))
	layers, links := le.Uint64(b[52:]), le.Uint64(b[60:])
	switch {
	case g.alive > g.slots:
		return g, fmt.Errorf("%d live slots of %d", g.alive, g.slots)
	case g.entry < -1 || g.entry >= g.slots || g.maxLevel < -1 || g.maxLevel > hnswMaxLevel ||
		(g.entry < 0) != (g.maxLevel < 0) || (g.entry < 0) != (g.alive == 0):
		return g, fmt.Errorf("entry slot %d (max level %d) with %d live of %d slots", g.entry, g.maxLevel, g.alive, g.slots)
	case layers > uint64(g.slots)*(hnswMaxLevel+1):
		return g, fmt.Errorf("%d layers over %d slots", layers, g.slots)
	case links > layers*uint64(2*g.cfg.M):
		return g, fmt.Errorf("%d links over %d layers at M=%d", links, layers, g.cfg.M)
	}
	g.layers, g.links = int(layers), int(links)
	return g, nil
}

// unreadBytes reports how many bytes r has left, for the readers that
// can tell cheaply: regular files and in-memory readers.
func unreadBytes(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		return int64(r.Len()), true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - off, true
	}
	return 0, false
}

// SaveGraph writes the graph file (see the layout above): link
// structure, not vectors — those live in the embstore snapshot — so a
// daemon can reload the index without rebuilding. Only live slots are
// written, renumbered through an old→new slot map, and links to
// tombstones (one-way links no repair rewrote) are dropped on the way
// out. Quiesce writers for a point-in-time image.
func (h *HNSW) SaveGraph(w io.Writer) error {
	if !hostLittleEndian {
		return fmt.Errorf("ann: hnsw save: graph files require a little-endian host")
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	newSlot := make([]uint32, len(h.nodes))
	ids := make([]graph.NodeID, 0, h.alive)
	levels := make([]byte, 0, h.alive)
	var degrees []uint16
	links := 0
	for s := range h.nodes {
		n := &h.nodes[s]
		if !n.alive {
			continue
		}
		newSlot[s] = uint32(len(ids))
		ids, levels = append(ids, n.id), append(levels, byte(len(n.links))|graphLive)
		for _, l := range n.links {
			d := 0
			for _, nb := range l {
				if h.aliveBit(nb) {
					d++
				}
			}
			degrees = append(degrees, uint16(d))
			links += d
		}
	}
	entry := h.entry
	if entry >= 0 {
		entry = int(newSlot[entry])
	}
	hdr := make([]byte, graphHeaderSize)
	le := binary.LittleEndian
	copy(hdr, graphMagic)
	le.PutUint32(hdr[8:], graphVersion)
	le.PutUint32(hdr[12:], uint32(h.cfg.Metric))
	le.PutUint32(hdr[16:], uint32(h.cfg.M))
	le.PutUint32(hdr[20:], uint32(h.cfg.EfConstruction))
	le.PutUint32(hdr[24:], uint32(h.cfg.EfSearch))
	le.PutUint32(hdr[28:], uint32(len(ids)))
	le.PutUint32(hdr[32:], uint32(h.alive))
	le.PutUint32(hdr[36:], uint32(int32(entry)))
	le.PutUint32(hdr[40:], uint32(int32(h.maxLevel)))
	le.PutUint64(hdr[44:], uint64(h.cfg.Seed))
	le.PutUint64(hdr[52:], uint64(len(degrees)))
	le.PutUint64(hdr[60:], uint64(links))
	le.PutUint32(hdr[68:], crc32.Checksum(hdr[:68], graphCRC))

	// The header carries its own CRC; the trailer's covers the sections.
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("ann: hnsw save: %v", err)
	}
	sum := crc32.New(graphCRC)
	bw := bufio.NewWriterSize(io.MultiWriter(w, sum), 1<<16)
	bw.Write(sliceBytes(ids)) // bufio.Writer keeps the first error for Flush
	bw.Write(levels)
	bw.Write(sliceBytes(degrees))
	var list []uint32
	for s := range h.nodes {
		if !h.nodes[s].alive {
			continue
		}
		for _, l := range h.nodes[s].links {
			list = list[:0]
			for _, nb := range l {
				if h.aliveBit(nb) {
					list = append(list, newSlot[nb])
				}
			}
			bw.Write(sliceBytes(list))
		}
	}
	err := bw.Flush()
	if err == nil {
		_, err = w.Write(le.AppendUint32(nil, sum.Sum32()))
	}
	if err != nil {
		return fmt.Errorf("ann: hnsw save: %v", err)
	}
	return nil
}

// LoadHNSWGraph reconstructs a graph written by SaveGraph over store,
// which must hold exactly the vectors the graph indexes (the embstore
// snapshot saved alongside it): live slots and stored ids must be the
// same set, one slot per id. Corruption — a CRC mismatch, a truncated
// section, a link outside the slot table or to a layer its target does
// not occupy, a degree over the cap, an entry point off the top layer —
// is rejected here rather than crashing the first query; a gob snapshot
// from an older version is refused with ErrGobGraph.
func LoadHNSWGraph(r io.Reader, store *embstore.Store) (*HNSW, error) {
	h, err := loadGraph(r, store)
	if err != nil {
		return nil, fmt.Errorf("ann: hnsw load: %w", err)
	}
	return h, nil
}

func loadGraph(r io.Reader, store *embstore.Store) (*HNSW, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("graph files require a little-endian host")
	}
	hdr := make([]byte, graphHeaderSize)
	n, err := io.ReadFull(r, hdr)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	g, err := parseGraphHeader(hdr[:n])
	if err != nil {
		return nil, err
	}
	// A stale graph over a newer store would load cleanly and silently
	// leave the extra vectors out of every search.
	if stored := store.Len(); g.alive != stored {
		return nil, fmt.Errorf("graph indexes %d nodes but store holds %d (stale snapshot? rebuild)", g.alive, stored)
	}
	if left, ok := unreadBytes(r); ok && left != g.bodyLen() {
		return nil, fmt.Errorf("%d bytes follow the header, its sections take %d (truncated or trailing data)", left, g.bodyLen())
	}
	h, err := NewHNSW(store, g.cfg)
	if err != nil {
		return nil, err
	}

	ids := make([]graph.NodeID, g.slots)
	levels := make([]byte, g.slots)
	degrees := make([]uint16, g.layers)
	links := make([]uint32, g.links)
	sum := crc32.New(graphCRC)
	body := io.TeeReader(r, sum)
	for _, sec := range []struct {
		name string
		b    []byte
	}{{"ids", sliceBytes(ids)}, {"levels", levels}, {"degrees", sliceBytes(degrees)}, {"links", sliceBytes(links)}} {
		if _, err := io.ReadFull(body, sec.b); err != nil {
			return nil, fmt.Errorf("truncated in the %s section: %v", sec.name, err)
		}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("truncated in the trailer: %v", err)
	}
	if got, stored := sum.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != stored {
		return nil, fmt.Errorf("section CRC mismatch (got %08x, stored %08x)", got, stored)
	}

	// Headroom like append's, so the first inserts after boot do not
	// re-copy the node table and the slab.
	capSlots := g.slots + g.slots/4
	h.nodes = make([]hnswNode, g.slots, capSlots)
	h.aliveBits = make([]uint64, (g.slots+63)/64, (capSlots+63)/64)
	h.gen = make([]uint32, g.slots, capSlots)
	h.upper = make([]uint32, 0, max(g.layers-g.alive, 0)) // a bound on the live slots above layer 0
	headers := make([][]uint32, g.layers)
	// lastList[nb] is 1 + the index (into degrees) of the last list
	// that linked to nb: the duplicate-link check without a set per list.
	lastList := make([]int, g.slots)
	di, li := 0, 0
	for s := range h.nodes {
		nl, live := int(levels[s]&^graphLive), levels[s]&graphLive != 0
		if nl > hnswMaxLevel+1 || nl > g.layers-di {
			return nil, fmt.Errorf("slot %d: %d layers overrun the %d in the degrees section", s, nl, g.layers)
		}
		if live && nl == 0 {
			return nil, fmt.Errorf("live slot %d has no layers", s)
		}
		n := &h.nodes[s]
		n.id, n.alive = ids[s], live
		if nl > 0 {
			n.links = headers[di : di+nl : di+nl]
		}
		for l := range n.links {
			d := int(degrees[di])
			di++
			if d > h.maxConn(l) || d > g.links-li {
				return nil, fmt.Errorf("slot %d layer %d: degree %d over the cap %d or the links section", s, l, d, h.maxConn(l))
			}
			list := links[li : li+d : li+d]
			li += d
			n.links[l] = list
			for _, nb := range list {
				switch {
				case int(nb) >= g.slots:
					return nil, fmt.Errorf("slot %d layer %d: link to slot %d of %d", s, l, nb, g.slots)
				case int(nb) == s:
					return nil, fmt.Errorf("slot %d layer %d: self-link", s, l)
				case lastList[nb] == di:
					return nil, fmt.Errorf("slot %d layer %d: duplicate link to slot %d", s, l, nb)
				case levels[nb]&graphLive != 0 && int(levels[nb]&^graphLive) <= l:
					// The beam would index past the target's link lists
					// (dead targets are skipped before expansion).
					return nil, fmt.Errorf("slot %d links to slot %d at layer %d beyond its %d layers", s, nb, l, levels[nb]&^graphLive)
				}
				lastList[nb] = di
			}
			if l > 0 {
				// A tombstone goes on the free list, and a link to it above
				// layer 0 would lead to its next occupant (cutUpperLocked).
				n.links[l] = slices.DeleteFunc(list, func(nb uint32) bool { return levels[nb]&graphLive == 0 })
			}
		}
		if live {
			if nl > 1 {
				h.upper = append(h.upper, uint32(s))
			}
			h.slotOf[n.id] = uint32(s)
			h.alive++
			if len(h.slotOf) != h.alive { // the id was live in an earlier slot
				return nil, fmt.Errorf("node %d is live in two slots (the second is %d)", n.id, s)
			}
			h.aliveBits[s>>6] |= 1 << (s & 63)
		} else {
			h.free = append(h.free, uint32(s))
		}
	}
	if di != g.layers || li != g.links {
		return nil, fmt.Errorf("slots use %d of %d layers and %d of %d links", di, g.layers, li, g.links)
	}
	if h.alive != g.alive {
		return nil, fmt.Errorf("%d live slots, header says %d", h.alive, g.alive)
	}
	// The search descent starts at maxLevel, so the entry point must be
	// live and occupy exactly that layer.
	if g.entry >= 0 && (!h.nodes[g.entry].alive || len(h.nodes[g.entry].links) != g.maxLevel+1) {
		return nil, fmt.Errorf("entry slot %d has %d layers, max level %d", g.entry, len(h.nodes[g.entry].links), g.maxLevel)
	}
	h.entry, h.maxLevel = g.entry, g.maxLevel
	if err := h.mirrorSlab(capSlots); err != nil {
		return nil, err
	}
	return h, nil
}

// mirrorSlab fills the graph slab from the store — one Range pass, each
// stored row copied bit for bit into the row of the slot that indexes
// its id — and so also checks that the stored ids are exactly the live
// slots' ids (the caller made the counts match and the live ids
// distinct). Tombstoned slots get zero rows. Rows get capRows of
// capacity.
func (h *HNSW) mirrorSlab(capRows int) error {
	rows, dim := len(h.nodes), h.dim
	switch h.prec {
	case embstore.F32:
		h.vecs32 = make([]float32, rows*dim, capRows*dim)
		h.norms = make([]float64, rows, capRows)
	case embstore.SQ8:
		h.codes = make([]int8, rows*dim, capRows*dim)
		h.side = make([]vecmath.SQ8Sidecar, rows, capRows)
	}
	var stray graph.NodeID
	strayFound, mirrored := false, 0
	h.store.Range(func(id graph.NodeID, v *embstore.VecView) bool {
		slot, ok := h.slotOf[id]
		if !ok {
			stray, strayFound = id, true
			return false
		}
		h.setSlabRow(slot, v)
		mirrored++
		return true
	})
	if strayFound {
		return fmt.Errorf("store holds node %d, which the graph does not index (snapshot mismatch)", stray)
	}
	if mirrored != h.alive {
		return fmt.Errorf("graph indexes %d nodes, store holds %d of them (snapshot mismatch)", h.alive, mirrored)
	}
	return nil
}
