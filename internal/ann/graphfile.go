// The HNSW graph file: what SaveGraph writes and LoadHNSWGraph reads, so
// a daemon boots over a prebuilt graph instead of rebuilding it. It
// holds link structure only; the vectors live in the embstore snapshot
// beside it, and the graph reads them from the store.
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
// byte for byte. The loader moves each live slot to its id's row in the
// store (a snapshot is written in id order, whatever order the rows
// had) and maps the links along (reslotLocked); links to the dead slots
// of files from versions that wrote tombstones are dropped.
package ann

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"ehna/internal/embstore"
	"ehna/internal/graph"
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
// same set, one slot per id, and each lands at its id's store row.
// Corruption — a CRC mismatch, a truncated section, a link outside the
// slot table or to a layer its target does not occupy, a degree over
// the cap, an entry point off the top layer — is rejected here rather
// than crashing the first query; a gob snapshot from an older version
// is refused with ErrGobGraph.
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

	// The file's nodes in its slot numbering, kept when it is the store's.
	nodes := make([]hnswNode, g.slots, g.slots+g.slots/4)
	headers := make([][]uint32, g.layers)
	// lastList[nb] is 1 + the index (into degrees) of the last list
	// that linked to nb: the duplicate-link check without a set per list.
	lastList := make([]int, g.slots)
	di, li := 0, 0
	for s := range nodes {
		nl, live := int(levels[s]&^graphLive), levels[s]&graphLive != 0
		if nl > hnswMaxLevel+1 || nl > g.layers-di {
			return nil, fmt.Errorf("slot %d: %d layers overrun the %d in the degrees section", s, nl, g.layers)
		}
		if live && nl == 0 {
			return nil, fmt.Errorf("live slot %d has no layers", s)
		}
		n := &nodes[s]
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
		}
	}
	if di != g.layers || li != g.links {
		return nil, fmt.Errorf("slots use %d of %d layers and %d of %d links", di, g.layers, li, g.links)
	}
	// The search descent starts at maxLevel, so the entry point must be
	// live and occupy exactly that layer.
	if g.entry >= 0 && (!nodes[g.entry].alive || len(nodes[g.entry].links) != g.maxLevel+1) {
		return nil, fmt.Errorf("entry slot %d has %d layers, max level %d", g.entry, len(nodes[g.entry].links), g.maxLevel)
	}
	h.maxLevel = g.maxLevel
	if err := h.reslotLocked(nodes, g.entry); err != nil {
		return nil, err
	}
	if h.alive != g.alive {
		return nil, fmt.Errorf("%d live slots, header says %d", h.alive, g.alive)
	}
	return h, nil
}

// reslotLocked makes slot s the node in store row s: it moves each live
// node of nodes (numbered some other way: a file's slots, or the
// graph's own before Remap) to its id's row, and maps every link and
// entry along, dropping links to dead slots. Each live id must be in the
// store, once; the caller made the counts match. Caller holds h.mu for
// writing, or owns a graph still being loaded.
func (h *HNSW) reslotLocked(nodes []hnswNode, entry int) error {
	rows := h.store.Rows().Len()
	capRows := rows + rows/4 // headroom for the first inserts after boot
	h.aliveBits = make([]uint64, (rows+63)/64, (capRows+63)/64)
	h.gen = make([]uint32, rows, capRows)
	h.pruned = nil
	h.upper = h.upper[:0]
	h.alive = 0
	const noRow = math.MaxUint32
	to := make([]uint32, len(nodes))
	moved := len(nodes) != rows // some slot or link changes its number
	for s := range nodes {
		n := &nodes[s]
		to[s] = noRow
		if !n.alive {
			moved = true
			continue
		}
		row, ok := h.store.Row(n.id)
		switch {
		case !ok:
			return fmt.Errorf("graph indexes node %d, which the store does not hold (snapshot mismatch)", n.id)
		case h.aliveBit(uint32(row)):
			return fmt.Errorf("node %d is live in two slots (the second is %d)", n.id, s)
		}
		to[s], moved = uint32(row), moved || row != s
		h.aliveBits[row>>6] |= 1 << (row & 63)
		h.alive++
		if len(n.links) > 1 {
			h.upper = append(h.upper, uint32(row))
		}
	}
	h.entry = entry
	if !moved { // every slot is live and already its node's row
		h.nodes = nodes
		return nil
	}
	h.nodes = make([]hnswNode, rows, capRows)
	for s, row := range to {
		if row != noRow {
			h.nodes[row] = nodes[s]
		}
	}
	for r := range h.nodes {
		for l, list := range h.nodes[r].links {
			kept := list[:0]
			for _, nb := range list {
				if to[nb] != noRow {
					kept = append(kept, to[nb])
				}
			}
			h.nodes[r].links[l] = kept
		}
	}
	if entry >= 0 {
		h.entry = int(to[entry])
	}
	return nil
}

// Remap is embstore.Store.Remap with the graph re-slotted onto the
// store's new rows, under the graph's write lock: searches wait for the
// fold. Writers must be held off, as for the store's Remap.
func (h *HNSW) Remap(path string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.store.Remap(path); err != nil {
		return err
	}
	return h.reslotLocked(h.nodes, h.entry)
}
