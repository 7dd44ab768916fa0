// Package embstore is a concurrency-safe in-memory embedding store: the
// online half of the train → serialize → serve pipeline. A trained
// embedding matrix (from ehna or any baseline — they all emit a
// NumNodes×d tensor.Matrix) is bulk-loaded once, then served under
// concurrent reads with incremental upserts and deletes, and snapshot
// save/load lets a daemon restart without retraining.
//
// The store is one dense structure-of-arrays slab under one RWMutex,
// plus an id→slot map. Scans walk the slab linearly — cache-friendly
// and allocation-free — instead of iterating a map of per-vector heap
// allocations, and a bulk load allocates one slab rather than one slice
// per vector. A cold store (OpenMmap) adds the mapped snapshot as its
// base, and the slab becomes the overlay on top of it.
//
// The slab layout is precision-parametric (the compressed vector
// plane): F32 keeps float32 lanes, and SQ8 scalar-quantizes each
// vector to one int8 code per lane plus a per-vector {scale, offset,
// norm} sidecar (see vecmath.EncodeSQ8) — a ~4× cut in bytes moved per
// distance computation. Writes always enter as full-precision
// []float64 (the WAL keeps full-precision records; narrowing happens
// at apply time), and reads hand out precision-tagged VecViews that
// the ann scoring kernels dispatch on.
package embstore

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
	"ehna/internal/wal"
)

// Precision selects the slab layout vectors are stored (and scanned)
// in. It is fixed at store construction; all write paths accept
// float64 and narrow on the way in. The values are the v3 header's
// precision tags. The zero value is not a layout: it is what a caller
// that has not chosen one holds (ParsePrecision("")), and on disk it
// is the float64 layout older versions wrote, which loads only by
// conversion (see ErrF64Snapshot).
type Precision int

const (
	// F32 stores float32 rows: ~1e-7 relative lane error, 4 bytes/lane.
	F32 Precision = 1
	// SQ8 stores per-vector scalar-quantized int8 codes with a
	// {scale, offset, norm} sidecar: lane error ≤ scale/2, 1 byte/lane.
	SQ8 Precision = 2
)

// String returns the precision's flag spelling.
func (p Precision) String() string {
	switch p {
	case F32:
		return "f32"
	case SQ8:
		return "sq8"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision converts a config string to a Precision; the empty
// string is "not chosen", the zero Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "":
		return 0, nil
	case "f32", "float32":
		return F32, nil
	case "sq8", "int8":
		return SQ8, nil
	default:
		return 0, fmt.Errorf("embstore: unknown precision %q (want f32 or sq8)", s)
	}
}

// BytesPerVector reports the slab bytes one dim-dimensional vector
// occupies at this precision — payload plus per-vector sidecars (norm,
// and for SQ8 the decode parameters), excluding the id→slot map entry
// shared by all layouts.
func (p Precision) BytesPerVector(dim int) int {
	if p == SQ8 {
		return dim + 32 // int8 codes + {scale, offset, norm float64; codeSum int32} sidecar
	}
	return 4*dim + 8 // float32 row + float64 norm
}

// VecView is a precision-tagged, read-only view of one stored vector:
// exactly one of F32 or Code is set (matching the store's
// precision). Views alias slab memory — valid only inside the
// With/Range/Scan callback that produced them, which receive a pointer
// to a stack-reused view (per-candidate struct copies would otherwise
// dwarf a compressed row's payload on the scan hot path).
type VecView struct {
	F32  []float32 // F32 stores
	Code []int8    // SQ8 stores: decode is Offset + Scale·Code[i]

	// Scale and Offset are the SQ8 per-vector decode parameters;
	// CodeSum is Σ Code[i], the precomputed operand of the symmetric
	// dot kernel (vecmath.DotSQ8Sym) that ann's two-stage sq8 search
	// scores candidates with on SIMD backends.
	Scale, Offset float64
	CodeSum       int32

	// Norm is the L2 norm of the original full-precision vector,
	// maintained on write for all layouts.
	Norm float64
}

// SQ8Query is a query vector quantized with the same per-vector scalar
// scheme the SQ8 slabs use, produced by Store.EncodeQuery: the
// query-side operand of the symmetric int8×int8 kernel
// (vecmath.DotSQ8Sym) that drives candidate generation on SIMD
// backends. The asymmetric kernels keep consuming the original
// float64 query for re-ranking, so the final ordering never carries
// the query's quantization error.
type SQ8Query struct {
	Code          []int8
	Scale, Offset float64
	CodeSum       int32
}

// EncodeQuery quantizes q into dst for symmetric scoring against this
// store's SQ8 codes, reusing dst.Code's capacity (pooled query
// contexts call this once per search with zero steady-state
// allocations). Meaningful only on SQ8 stores; q must have the store's
// dimensionality.
func (s *Store) EncodeQuery(q []float64, dst *SQ8Query) {
	if len(q) != s.dim {
		panic(fmt.Sprintf("embstore: encode of %d-dim query against %d-dim store", len(q), s.dim))
	}
	if cap(dst.Code) < len(q) {
		dst.Code = make([]int8, len(q))
	}
	dst.Code = dst.Code[:len(q)]
	dst.Scale, dst.Offset, dst.CodeSum = vecmath.EncodeSQ8(q, dst.Code)
}

// DequantizeInto reconstructs the vector into dst (len must equal
// Dim): a widening for F32, an SQ8 decode otherwise.
func (v *VecView) DequantizeInto(dst []float64) {
	if v.F32 != nil {
		vecmath.F32To64(dst, v.F32)
	} else {
		vecmath.DecodeSQ8(dst, v.Code, v.Scale, v.Offset)
	}
}

// sq8Meta is the per-vector SQ8 sidecar, kept as one struct array so a
// candidate's decode parameters and norm land on a single cache line
// next to each other instead of four separate slab misses. It is
// vecmath's record, so a scan hands a run of them to
// vecmath.SQ8RowFactors as they lie.
type sq8Meta = vecmath.SQ8Sidecar

// slab is one dense structure-of-arrays run of rows: row i is node
// ids[i]. Exactly one payload family is set, per store precision.
type slab struct {
	ids    []graph.NodeID
	norms  []float64 // F32: L2 norms, maintained on write
	vecs32 []float32 // F32: row i is vecs32[i*dim:(i+1)*dim]
	codes  []int8    // SQ8
	meta   []sq8Meta // SQ8
}

// view points v at row i. Only the fields of the slab's precision are
// written, so a view can be refilled per row without re-zeroing it.
func (sl *slab) view(v *VecView, dim, i int) {
	lo, hi := i*dim, (i+1)*dim
	if sl.vecs32 != nil {
		v.F32, v.Norm = sl.vecs32[lo:hi], sl.norms[i]
		return
	}
	m := &sl.meta[i]
	v.Code = sl.codes[lo:hi]
	v.Scale, v.Offset, v.CodeSum, v.Norm = m.Scale, m.Offset, m.CodeSum, m.Norm
}

// baseRun is one run of a cold store's mapped base: the rows of one
// section triple of the snapshot, ids ascending so membership is a
// binary search instead of a heap-resident id→slot map. Its slices
// alias the read-only mapping. first is the store row of its row 0.
type baseRun struct {
	slab
	first int
}

// coldBase is the immutable half of a cold store: the mapped snapshot's
// rows. Mutations never touch them — an upsert lands in the overlay
// slab and masks the base row (its dead bit), a delete just masks — so
// the mapping stays clean and the overlay folds into a fresh base at
// the next snapshot rotation. A snapshot this version writes has one
// run. One written by a version that striped the store over lock shards
// has one run per shard, and an id's run is the shard that version
// placed it in (legacyRun).
type coldBase struct {
	runs  []baseRun
	rows  int // rows across all runs, masked ones included
	deadN int // masked rows (deleted or overridden by the overlay)
}

// legacyRun is the placement hash of the versions that striped the
// store over n lock shards: the run of an n-run base that holds id. The
// multiply-xorshift mix (a splitmix-style finalizer) spread sequential
// ids evenly. A one-run base is run 0.
func legacyRun(id graph.NodeID, n int) int {
	x := uint32(id)
	x ^= x >> 16
	x *= 0x45d9f3b
	x ^= x >> 16
	return int(x % uint32(n))
}

// find returns the store row of id's base row, if any run holds id;
// masked rows are found too.
func (b *coldBase) find(id graph.NodeID) (int, bool) {
	r := &b.runs[legacyRun(id, len(b.runs))]
	i, found := slices.BinarySearch(r.ids, id)
	return r.first + i, found
}

// run returns the run holding store row row (< b.rows).
func (b *coldBase) run(row int) *baseRun {
	i := len(b.runs) - 1
	for b.runs[i].first > row {
		i--
	}
	return &b.runs[i]
}

// Store is an in-memory map from node ID to embedding vector. All
// vectors share one dimensionality and precision, fixed at
// construction. Methods are safe for concurrent use.
//
// Its rows are numbered: a cold store's base rows first, run by run,
// then the overlay slab's, so slot i of the slab is row base.rows+i. A
// row keeps its number while it lives. A delete marks it dead (a bit
// per row: a deleted id can come back in another row) and frees a slab
// row for the next new id; an overwrite rewrites a slab row in place
// and masks a base row. Only Remap renumbers rows.
//
// While an HNSW graph indexes the store, a row is written, freed,
// reused or renumbered only under the graph's write lock, so the graph
// reads rows through Rows without the store's lock.
type Store struct {
	dim  int
	prec Precision

	mu   sync.RWMutex
	slab                      // the store; a cold store's overlay
	slot map[graph.NodeID]int // id → slab slot, live rows only
	free []int                // freed slab slots, the next one to reuse last
	dead []uint64             // bit per store row: a masked base row or a freed slab row
	base *coldBase            // cold stores: the mapped snapshot

	// cold is non-nil for mmap-backed stores (see OpenMmap): it owns
	// the snapshot mapping the base aliases. Swapped atomically by
	// Remap so stats readers never race the rotation fold.
	cold atomic.Pointer[coldInfo]
}

// coldInfo describes the mapped snapshot backing a cold store.
type coldInfo struct {
	path         string
	data         []byte // whole-file mapping
	payloadBytes int64  // vector-slab bytes within it
}

// Cold reports whether the store serves its base tier from an mmap'd
// snapshot rather than heap slabs.
func (s *Store) Cold() bool { return s.cold.Load() != nil }

// MappedBytes returns the size of the snapshot mapping backing a cold
// store (0 for RAM stores).
func (s *Store) MappedBytes() int64 {
	if c := s.cold.Load(); c != nil {
		return int64(len(c.data))
	}
	return 0
}

// MappedPayloadBytes returns the vector-slab bytes within the mapping
// (0 for RAM stores): the denominator of the cold tier's residency
// ratio.
func (s *Store) MappedPayloadBytes() int64 {
	if c := s.cold.Load(); c != nil {
		return c.payloadBytes
	}
	return 0
}

// MappedPath returns the path of the snapshot backing a cold store.
func (s *Store) MappedPath() string {
	if c := s.cold.Load(); c != nil {
		return c.path
	}
	return ""
}

// OverlayStats reports the delta overlay of a cold store: vectors
// resident in the heap slab on top of the base, their approximate slab
// bytes, and base rows masked by deletes or overwrites. All zero for
// RAM stores (the slab is the store, not an overlay).
func (s *Store) OverlayStats() (vectors int, bytes int64, masked int) {
	if !s.Cold() {
		return 0, 0, 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	vectors = len(s.ids) - len(s.free)
	if s.base != nil {
		masked = s.base.deadN
	}
	return vectors, int64(vectors) * int64(s.prec.BytesPerVector(s.dim)), masked
}

// DefaultShards is what callers of LoadSnapshotV3 pass for its ignored
// second argument. The store was once striped over this many lock
// shards; it is one slab now.
const DefaultShards = 16

// viewPool recycles the VecViews the accessors hand to callbacks.
// Passing &view to an arbitrary callback defeats escape analysis, so a
// stack view would be re-heap-allocated per call; the pool keeps the
// zero-alloc guarantee of the scan paths (one Get/Put per accessor
// call, amortized over every row it visits).
var viewPool = sync.Pool{New: func() any { return new(VecView) }}

// getView checks a view out of the pool with its payload fields
// cleared: pooled views travel between stores of different precisions,
// and a slab's view only writes its own precision's fields.
func getView() *VecView {
	v := viewPool.Get().(*VecView)
	v.F32, v.Code = nil, nil
	return v
}

// New returns an empty store for dim-dimensional vectors at the given
// slab precision.
func New(dim int, prec Precision) (*Store, error) {
	if dim < 1 {
		return nil, fmt.Errorf("embstore: dimension %d < 1", dim)
	}
	if prec != F32 && prec != SQ8 {
		return nil, fmt.Errorf("embstore: unknown precision %d (want F32 or SQ8)", prec)
	}
	return &Store{dim: dim, prec: prec, slot: make(map[graph.NodeID]int)}, nil
}

// FromMatrix builds a store from an embedding matrix, assigning row i
// to node ID i — the layout produced by Model.InferAll and every
// baseline; rows are narrowed/quantized as they load. Its v3 snapshot
// is the training→serving hand-off.
func FromMatrix(emb *tensor.Matrix, prec Precision) (*Store, error) {
	s, err := New(emb.Cols, prec)
	if err != nil {
		return nil, err
	}
	s.BulkLoad(emb)
	return s, nil
}

// Dim returns the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// Precision returns the slab precision vectors are stored in.
func (s *Store) Precision() Precision { return s.prec }

// Len returns the number of stored vectors.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lenLocked()
}

func (s *Store) lenLocked() int {
	n := len(s.ids) - len(s.free)
	if b := s.base; b != nil {
		n += b.rows - b.deadN
	}
	return n
}

// overlayFirst is the store row of the slab's slot 0. Caller holds s.mu.
func (s *Store) overlayFirst() int {
	if s.base == nil {
		return 0
	}
	return s.base.rows
}

// Run is one contiguous run of the store's rows, as Rows hands it out:
// a run of a cold store's mapped base, or the dense slab. Row i is node
// IDs[i] and store row First+i, unless it is Masked; an sq8 run's codes
// are Codes (row i at [i·dim, (i+1)·dim)), and every row's sidecars are
// read through Sidecars or View. The slices alias slab or mapping
// memory: valid only under the lock hold the Run was handed out under,
// never to be retained or written.
type Run struct {
	IDs   []graph.NodeID
	Codes []int8 // SQ8 codes
	First int    // the store row of row 0

	sl   *slab
	dead []uint64 // the store's dead bits, by store row
	dim  int
}

// Sidecars returns the sq8 sidecars of rows [lo, hi): each row's
// decode scale and offset, the norm of the original vector and the sum
// of its codes. The slice aliases the run.
func (r *Run) Sidecars(lo, hi int) []vecmath.SQ8Sidecar {
	return r.sl.meta[lo:hi]
}

// Masked reports whether row i is dead: a base row that a delete or an
// overlay upsert has superseded, or a freed slab row (its IDs entry is
// the id it last held).
func (r *Run) Masked(i int) bool { return bitSet(r.dead, r.First+i) }

// bitSet reports bit i of b; bits past its end are clear.
func bitSet(b []uint64, i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

// setBit sets bit i of b to v, growing b to cover it.
func setBit(b []uint64, i int, v bool) []uint64 {
	for i>>6 >= len(b) {
		b = append(b, 0)
	}
	if v {
		b[i>>6] |= 1 << (i & 63)
	} else {
		b[i>>6] &^= 1 << (i & 63)
	}
	return b
}

// View points v at row i. Only the fields of the run's precision are
// written, so a view can be refilled per row without re-zeroing it; it
// aliases the run's memory (zero-copy from the mapping — cold mode's
// whole point), so the Run's lifetime rules apply.
func (r *Run) View(i int, v *VecView) { r.sl.view(v, r.dim, i) }

// Rows is the store as one hold of its read lock sees it: its runs,
// and any row by number. Scan hands it to its callback, valid only
// inside it; Store.Rows hands it to a caller that holds writers off
// itself.
type Rows struct{ s *Store }

// Rows returns the store's rows without taking its lock, for a caller
// that holds writers off itself (an HNSW graph, see Store).
func (s *Store) Rows() Rows { return Rows{s} }

// Len returns the number of store rows, dead ones included.
func (rs Rows) Len() int { return rs.s.overlayFirst() + len(rs.s.ids) }

// Runs returns the number of runs: a cold store's base runs, then the
// slab.
func (rs Rows) Runs() int {
	if b := rs.s.base; b != nil {
		return len(b.runs) + 1
	}
	return 1
}

// Run returns run i (< Runs()).
func (rs Rows) Run(i int) Run {
	s := rs.s
	if b := s.base; b != nil && i < len(b.runs) {
		r := &b.runs[i]
		return Run{IDs: r.ids, Codes: r.codes, First: r.first, sl: &r.slab, dead: s.dead, dim: s.dim}
	}
	return Run{IDs: s.ids, Codes: s.codes, First: s.overlayFirst(), sl: &s.slab, dead: s.dead, dim: s.dim}
}

// View points v at store row row, as Run.View does: the re-rank of a
// scan reads the rows its pools name without an id lookup.
func (rs Rows) View(row int, v *VecView) { rs.s.viewRow(row, v) }

// SQ8 returns an sq8 store's row row: its codes and its sidecar, both
// aliasing the store.
func (rs Rows) SQ8(row int) ([]int8, *vecmath.SQ8Sidecar) {
	sl, i := rs.s.locate(row)
	lo := i * rs.s.dim
	return sl.codes[lo : lo+rs.s.dim], &sl.meta[i]
}

// viewRow points v at store row row. Caller holds s.mu.
func (s *Store) viewRow(row int, v *VecView) {
	sl, i := s.locate(row)
	sl.view(v, s.dim, i)
}

// locate returns the slab that holds store row row, and the row's index
// in it. Caller holds s.mu.
func (s *Store) locate(row int) (*slab, int) {
	if b := s.base; b != nil {
		if row < b.rows {
			r := b.run(row)
			return &r.slab, row - r.first
		}
		row -= b.rows
	}
	return &s.slab, row
}

// lookupLocked finds id's store row: in the slab first (it wins by the
// mask invariant), then among the base's live rows. Caller holds s.mu.
func (s *Store) lookupLocked(id graph.NodeID) (row int, ok bool) {
	if slot, ok := s.slot[id]; ok {
		return s.overlayFirst() + slot, true
	}
	return s.baseRowLocked(id)
}

// baseRowLocked finds id's live base row. Caller holds s.mu.
func (s *Store) baseRowLocked(id graph.NodeID) (row int, ok bool) {
	if s.base == nil {
		return 0, false
	}
	row, found := s.base.find(id)
	return row, found && !bitSet(s.dead, row)
}

// Row returns id's store row, if the store holds id.
func (s *Store) Row(id graph.NodeID) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookupLocked(id)
}

// maskBaseLocked hides id's base row, reporting whether it had a live
// one. Caller holds s.mu for writing.
func (s *Store) maskBaseLocked(id graph.NodeID) bool {
	row, live := s.baseRowLocked(id)
	if live {
		s.dead = setBit(s.dead, row, true)
		s.base.deadN++
	}
	return live
}

// ensureSlot returns id's slab slot: for a new id the last freed slot,
// else a fresh row, which its caller writes whole. Caller holds s.mu
// for writing.
func (s *Store) ensureSlot(id graph.NodeID) int {
	slot, ok := s.slot[id]
	if ok {
		return slot
	}
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
		s.ids[slot] = id
		s.dead = setBit(s.dead, s.overlayFirst()+slot, false)
	} else {
		slot = len(s.ids)
		s.ids = append(s.ids, id)
		switch s.prec {
		case F32:
			s.vecs32 = append(s.vecs32, make([]float32, s.dim)...)
			s.norms = append(s.norms, 0)
		case SQ8:
			s.codes = append(s.codes, make([]int8, s.dim)...)
			s.meta = append(s.meta, sq8Meta{})
		}
	}
	s.slot[id] = slot
	return slot
}

// upsertLocked inserts or replaces id's vector, narrowing/quantizing
// per the store precision, and returns its store row. norm is the
// caller's L2 norm of vec (the original full-precision value the cosine
// path divides by). Caller holds s.mu for writing.
func (s *Store) upsertLocked(id graph.NodeID, vec []float64, norm float64) int {
	s.maskBaseLocked(id)
	slot := s.ensureSlot(id)
	dim := s.dim
	switch s.prec {
	case F32:
		vecmath.F64To32(s.vecs32[slot*dim:(slot+1)*dim], vec)
		s.norms[slot] = norm
	case SQ8:
		scale, offset, codeSum := vecmath.EncodeSQ8(vec, s.codes[slot*dim:(slot+1)*dim])
		s.meta[slot] = sq8Meta{Scale: scale, Offset: offset, Norm: norm, CodeSum: codeSum}
	}
	return s.overlayFirst() + slot
}

// BulkLoad upserts row i of emb as node ID i for every row. It panics on
// dimension mismatch (programmer error, matching tensor conventions).
// Rows are copied; the caller keeps ownership of emb. The slab is grown
// once, so the load performs O(1) allocations rather than one per
// vector.
func (s *Store) BulkLoad(emb *tensor.Matrix) {
	if emb.Cols != s.dim {
		panic(fmt.Sprintf("embstore: bulk load of %d-dim rows into %d-dim store", emb.Cols, s.dim))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserveLocked(emb.Rows)
	for i := 0; i < emb.Rows; i++ {
		row := emb.Row(i)
		s.upsertLocked(graph.NodeID(i), row, vecmath.Norm(row))
	}
}

// reserveLocked pre-grows the slab for extra more vectors. Caller holds
// s.mu.
func (s *Store) reserveLocked(extra int) {
	s.ids = slices.Grow(s.ids, extra)
	switch s.prec {
	case F32:
		s.vecs32 = slices.Grow(s.vecs32, extra*s.dim)
		s.norms = slices.Grow(s.norms, extra)
	case SQ8:
		s.codes = slices.Grow(s.codes, extra*s.dim)
		s.meta = slices.Grow(s.meta, extra)
	}
}

// Upsert inserts or replaces the vector for id. The vector is copied
// (and narrowed/quantized per the store precision).
func (s *Store) Upsert(id graph.NodeID, vec []float64) error {
	_, err := s.UpsertRow(id, vec)
	return err
}

// UpsertRow is Upsert reporting the store row id's vector now occupies.
func (s *Store) UpsertRow(id graph.NodeID, vec []float64) (int, error) {
	return s.upsertNorm(id, vec, vecmath.Norm(vec))
}

// upsertNorm is UpsertRow with a caller-supplied norm: the snapshot
// conversion path threads the original-vector norm through so a
// narrowed store still divides by the exact denominator.
func (s *Store) upsertNorm(id graph.NodeID, vec []float64, norm float64) (int, error) {
	if len(vec) != s.dim {
		return 0, fmt.Errorf("embstore: upsert of %d-dim vector into %d-dim store", len(vec), s.dim)
	}
	s.mu.Lock()
	row := s.upsertLocked(id, vec, norm)
	s.mu.Unlock()
	return row, nil
}

// Delete removes id, reporting whether it was present. A slab row is
// marked dead and freed for the next new id; a base row (the mapping is
// read-only) is masked.
func (s *Store) Delete(id graph.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.slot[id]
	if !ok {
		return s.maskBaseLocked(id)
	}
	delete(s.slot, id)
	s.free = append(s.free, slot)
	s.dead = setBit(s.dead, s.overlayFirst()+slot, true)
	return true
}

// Get returns a full-precision copy of the vector for id, dequantized
// from whatever the slab stores.
func (s *Store) Get(id graph.NodeID) ([]float64, bool) {
	var out []float64
	ok := s.With(id, func(v *VecView) {
		out = make([]float64, s.dim)
		v.DequantizeInto(out)
	})
	return out, ok
}

// With runs fn on the stored vector for id under the read lock,
// avoiding the copy Get makes. The view aliases slab memory: fn must
// not retain it (or the pointer) or call any Store method (the lock is
// held). Reports presence.
func (s *Store) With(id graph.NodeID, fn func(v *VecView)) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, ok := s.lookupLocked(id)
	if ok {
		v := getView()
		s.viewRow(row, v)
		fn(v)
		viewPool.Put(v)
	}
	return ok
}

// Scan runs fn under one hold of the store's read lock, handing it the
// store's rows as that hold sees them: contiguous runs (a cold store's
// mapped base, then the slab, dead rows still in place, see
// Run.Masked), and any row by number. A freed row goes to the next new
// id and Remap renumbers every row, so a row number taken under one
// hold names the same vector under the next only if no write came
// between. fn must not retain anything it was handed or call any Store
// method: the lock is held, and a read lock taken again while a writer
// waits deadlocks.
func (s *Store) Scan(fn func(rs Rows)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(Rows{s})
}

// Range iterates the store's live rows under one hold of its read lock,
// stopping when fn returns false. The view passed to fn aliases slab
// memory and is reused across iterations: fn must not retain it or call
// any Store method. Iteration is in row order (Scan's runs).
func (s *Store) Range(fn func(id graph.NodeID, v *VecView) bool) {
	v := getView()
	defer viewPool.Put(v)
	s.Scan(func(rs Rows) {
		for ri := 0; ri < rs.Runs(); ri++ {
			r := rs.Run(ri)
			for j, id := range r.IDs {
				if r.Masked(j) {
					continue
				}
				r.View(j, v)
				if !fn(id, v) {
					return
				}
			}
		}
	})
}

// IDs returns all stored node IDs in ascending order.
func (s *Store) IDs() []graph.NodeID {
	s.mu.RLock()
	out := make([]graph.NodeID, 0, s.lenLocked())
	s.eachLiveLocked(func(id graph.NodeID, _ int) { out = append(out, id) })
	s.mu.RUnlock()
	slices.Sort(out)
	return out
}

// eachLiveLocked calls fn with every live row's id and store row, in row
// order. Caller holds s.mu.
func (s *Store) eachLiveLocked(fn func(id graph.NodeID, row int)) {
	rs := Rows{s}
	for ri := 0; ri < rs.Runs(); ri++ {
		r := rs.Run(ri)
		for i, id := range r.IDs {
			if !r.Masked(i) {
				fn(id, r.First+i)
			}
		}
	}
}

// ApplyWAL applies one write-ahead-log record to the store: the replay
// hook crash recovery and reference-state tests drive. WAL records
// carry full-precision vectors; narrowing/quantization happens here,
// at apply time, so durability semantics are precision-independent.
// Replaying a log suffix in sequence order over any state at-or-before
// that suffix reconverges, because upsert/delete are last-writer-wins.
func (s *Store) ApplyWAL(r wal.Record) error {
	switch r.Op {
	case wal.OpUpsert:
		return s.Upsert(r.ID, r.Vec)
	case wal.OpDelete:
		s.Delete(r.ID)
		return nil
	default:
		return fmt.Errorf("embstore: apply of unknown wal op %d", r.Op)
	}
}

// viewEqual compares two same-precision views representation-for-
// representation (bit-identical lanes/codes and sidecars).
func viewEqual(a, b *VecView) bool {
	if a.F32 != nil {
		return a.Norm == b.Norm && slices.Equal(a.F32, b.F32)
	}
	return a.Norm == b.Norm && a.Scale == b.Scale && a.Offset == b.Offset &&
		slices.Equal(a.Code, b.Code)
}

// Equal reports whether two stores hold identical contents (same IDs,
// same precision, bit-identical slab representations), whatever their
// layout (RAM or cold, and how a cold base is cut into runs). It holds
// s's read lock while it reads o's; quiesce writers for a meaningful
// answer.
func (s *Store) Equal(o *Store) bool {
	if s == o {
		return true // one lock: Range's hold cannot nest o.With's
	}
	if s.dim != o.dim || s.prec != o.prec || s.Len() != o.Len() {
		return false
	}
	equal := true
	s.Range(func(id graph.NodeID, v *VecView) bool {
		same := false
		o.With(id, func(ov *VecView) { same = viewEqual(v, ov) })
		equal = same
		return same
	})
	return equal
}
