// Package embstore is a sharded, concurrency-safe in-memory embedding
// store: the online half of the train → serialize → serve pipeline. A
// trained embedding matrix (from ehna or any baseline — they all emit a
// NumNodes×d tensor.Matrix) is bulk-loaded once, then served under
// concurrent reads with incremental upserts and deletes. Node IDs are
// hashed across N independently-locked shards so readers on different
// shards never contend, and snapshot save/load lets a daemon restart
// without retraining.
//
// Each shard stores its vectors in one dense structure-of-arrays slab
// plus an id→slot map. Scans walk the slab linearly — cache-friendly
// and allocation-free — instead of iterating a map of per-vector heap
// allocations, and bulk loads allocate one slab per shard rather than
// one slice per vector.
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
	"sort"
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
// With/RangeShard/WithShard callback that produced them, which receive
// a pointer to a stack-reused view (per-candidate struct copies would
// otherwise dwarf a compressed row's payload on the scan hot path).
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

// Dim returns the vector's dimensionality.
func (v *VecView) Dim() int {
	if v.F32 != nil {
		return len(v.F32)
	}
	return len(v.Code)
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

// baseSection is the immutable half of a cold (mmap-backed) shard: its
// slices alias a read-only v3 snapshot mapping, ids ascending so
// membership is a binary search instead of a heap-resident id→slot
// map. Mutations never touch it — an upsert lands in the shard's
// overlay slab and masks the base row via dead, a delete just masks —
// so the mapping stays clean and the overlay folds into a fresh base
// at the next snapshot rotation. Exactly one payload family is set,
// per store precision.
type baseSection struct {
	ids    []graph.NodeID
	norms  []float64
	vecs32 []float32
	codes  []int8
	meta   []sq8Meta
	dead   map[graph.NodeID]struct{} // masked rows (deleted or overridden by the overlay)
	deadN  int
}

// maskedBase reports whether id's base row is masked. Callers hold the
// shard lock.
func (b *baseSection) maskedBase(id graph.NodeID) bool {
	_, masked := b.dead[id]
	return masked
}

// liveLen returns the number of unmasked base rows.
func (b *baseSection) liveLen() int { return len(b.ids) - b.deadN }

// shard is one lock domain of the store: a dense slab of vectors with
// an id→slot index. Deletes swap-remove so the slab stays dense.
// Exactly one of vecs32/codes is populated, per store precision.
// Cold stores additionally carry a base: the dense slab then acts as
// the delta overlay on top of the mapped image.
type shard struct {
	mu     sync.RWMutex
	slot   map[graph.NodeID]int
	ids    []graph.NodeID
	norms  []float64 // F32: L2 norms, maintained on write
	vecs32 []float32 // F32: row i is vecs32[i*dim:(i+1)*dim]
	codes  []int8    // SQ8
	meta   []sq8Meta // SQ8
	base   *baseSection
}

// lookupLocked finds id in the overlay first (it wins by the mask
// invariant), then among the base's live rows. Caller holds sh.mu.
func (sh *shard) lookupLocked(id graph.NodeID) (slot int, inBase, ok bool) {
	if slot, ok := sh.slot[id]; ok {
		return slot, false, true
	}
	b := sh.base
	if b == nil {
		return 0, false, false
	}
	i, found := slices.BinarySearch(b.ids, id)
	if !found || b.maskedBase(id) {
		return 0, false, false
	}
	return i, true, true
}

// maskBase hides id's base row, if any: every overlay insert and every
// delete of a base-resident id routes through here so the base never
// shadows newer state. Caller holds sh.mu for writing.
func (sh *shard) maskBase(id graph.NodeID) {
	b := sh.base
	if b == nil {
		return
	}
	if _, found := slices.BinarySearch(b.ids, id); !found {
		return
	}
	if b.maskedBase(id) {
		return
	}
	if b.dead == nil {
		b.dead = make(map[graph.NodeID]struct{})
	}
	b.dead[id] = struct{}{}
	b.deadN++
}

// Store is a sharded in-memory map from node ID to embedding vector.
// All vectors share one dimensionality and precision, fixed at
// construction. Methods are safe for concurrent use.
type Store struct {
	dim    int
	prec   Precision
	shards []shard

	// cold is non-nil for mmap-backed stores (see OpenMmap): it owns
	// the snapshot mapping the shard bases alias. Swapped atomically by
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
// resident in heap slabs on top of the base, their approximate slab
// bytes, and base rows masked by deletes or overwrites. All zero for
// RAM stores (the slab is the store, not an overlay).
func (s *Store) OverlayStats() (vectors int, bytes int64, masked int) {
	if !s.Cold() {
		return 0, 0, 0
	}
	per := int64(s.prec.BytesPerVector(s.dim))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		vectors += len(sh.ids)
		if sh.base != nil {
			masked += sh.base.deadN
		}
		sh.mu.RUnlock()
	}
	return vectors, int64(vectors) * per, masked
}

// DefaultShards is the shard count used when a non-positive count is
// requested. 16 keeps per-shard maps small without measurable overhead
// at single-digit shard occupancy.
const DefaultShards = 16

// viewPool recycles the VecViews the accessors hand to callbacks.
// Passing &view to an arbitrary callback defeats escape analysis, so a
// stack view would be re-heap-allocated per call; the pool keeps the
// zero-alloc guarantee of the scan paths (one Get/Put per accessor
// call, amortized over every row it visits).
var viewPool = sync.Pool{New: func() any { return new(VecView) }}

// getView checks a view out of the pool with its payload fields
// cleared: pooled views travel between stores of different precisions,
// and Run.View only writes its own precision's fields.
func getView() *VecView {
	v := viewPool.Get().(*VecView)
	v.F32, v.Code = nil, nil
	return v
}

// New returns an empty store for dim-dimensional vectors at the given
// slab precision and shard count (DefaultShards when shards <= 0).
func New(dim, shards int, prec Precision) (*Store, error) {
	if dim < 1 {
		return nil, fmt.Errorf("embstore: dimension %d < 1", dim)
	}
	if prec != F32 && prec != SQ8 {
		return nil, fmt.Errorf("embstore: unknown precision %d (want F32 or SQ8)", prec)
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	s := &Store{dim: dim, prec: prec, shards: make([]shard, shards)}
	for i := range s.shards {
		s.shards[i].slot = make(map[graph.NodeID]int)
	}
	return s, nil
}

// FromMatrix builds a store from an embedding matrix, assigning row i
// to node ID i — the layout produced by Model.InferAll and every
// baseline; rows are narrowed/quantized as they load. Its v3 snapshot
// is the training→serving hand-off.
func FromMatrix(emb *tensor.Matrix, shards int, prec Precision) (*Store, error) {
	s, err := New(emb.Cols, shards, prec)
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

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardOf returns the index of the shard holding id. Batch consumers
// (e.g. ann's sq8 re-rank) group IDs by shard so each shard's lock is
// taken once per batch instead of once per vector.
func (s *Store) ShardOf(id graph.NodeID) int { return s.shardIndex(id) }

// shardIndex hashes id onto a shard index. The multiply-xorshift mix
// (splitmix-style finalizer) decorrelates the low bits so sequential
// node IDs spread evenly.
func (s *Store) shardIndex(id graph.NodeID) int {
	x := uint32(id)
	x ^= x >> 16
	x *= 0x45d9f3b
	x ^= x >> 16
	// Reduce in uint32: int(x) is negative for half of all hashes on
	// 32-bit platforms, and Go's % would preserve the sign.
	return int(x % uint32(len(s.shards)))
}

func (s *Store) shardFor(id graph.NodeID) *shard {
	return &s.shards[s.shardIndex(id)]
}

// Len returns the number of stored vectors.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.ids)
		if sh.base != nil {
			n += sh.base.liveLen()
		}
		sh.mu.RUnlock()
	}
	return n
}

// Run is one contiguous run of a shard's rows, as ScanShard hands it
// out: the shard's dense overlay slab, or a cold store's mapped base.
// Row i is node IDs[i]; an sq8 run's codes are Codes (row i at
// [i·dim, (i+1)·dim)), and every row's sidecars are read through SQ8 or
// View. The slices alias slab or mapping memory: valid only under the
// lock the Run was handed out under, never to be retained or written.
type Run struct {
	IDs   []graph.NodeID
	Codes []int8 // SQ8 codes

	f32   []float32 // F32 rows
	norms []float64 // F32 norms of the original vectors
	meta  []sq8Meta
	dead  map[graph.NodeID]struct{} // base runs: rows masked by the overlay or a delete
	dim   int
}

// overlayRun is the shard's dense slab as a Run. Caller holds sh.mu.
func (sh *shard) overlayRun(dim int) Run {
	return Run{IDs: sh.ids, Codes: sh.codes, f32: sh.vecs32, norms: sh.norms, meta: sh.meta, dim: dim}
}

// run is the mapped base as a Run, masks included. Caller holds the
// shard lock.
func (b *baseSection) run(dim int) Run {
	return Run{IDs: b.ids, Codes: b.codes, f32: b.vecs32, norms: b.norms, meta: b.meta, dead: b.dead, dim: dim}
}

// Sidecars returns the sq8 sidecars of rows [lo, hi): each row's
// decode scale and offset, the norm of the original vector and the sum
// of its codes. The slice aliases the run.
func (r *Run) Sidecars(lo, hi int) []vecmath.SQ8Sidecar {
	return r.meta[lo:hi]
}

// Masked reports whether row i is hidden: a base row that a delete or
// an overlay upsert has superseded. Overlay rows never are. The probe
// is a map lookup, so scans ask it only of rows that would enter a
// result.
func (r *Run) Masked(i int) bool {
	if len(r.dead) == 0 {
		return false
	}
	_, masked := r.dead[r.IDs[i]]
	return masked
}

// View points v at row i. Only the fields of the run's precision are
// written, so a view can be refilled per row without re-zeroing it; it
// aliases the run's memory (zero-copy from the mapping — cold mode's
// whole point), so the Run's lifetime rules apply.
func (r *Run) View(i int, v *VecView) {
	viewRow(v, r.dim, i, r.Codes, r.f32, r.norms, r.meta)
}

// viewRow points v at row i of a slab's slices (f32 set for an F32
// slab, codes and meta for an SQ8 one).
func viewRow(v *VecView, dim, i int, codes []int8, f32 []float32, norms []float64, meta []sq8Meta) {
	lo, hi := i*dim, (i+1)*dim
	if f32 != nil {
		v.F32, v.Norm = f32[lo:hi], norms[i]
		return
	}
	m := &meta[i]
	v.Code = codes[lo:hi]
	v.Scale, v.Offset, v.CodeSum, v.Norm = m.Scale, m.Offset, m.CodeSum, m.Norm
}

// fillAt points v at the slot'th row of the overlay slab or the mapped
// base. Caller holds the shard lock.
func (s *Store) fillAt(sh *shard, slot int, inBase bool, v *VecView) {
	if b := sh.base; inBase {
		viewRow(v, s.dim, slot, b.codes, b.vecs32, b.norms, b.meta)
		return
	}
	viewRow(v, s.dim, slot, sh.codes, sh.vecs32, sh.norms, sh.meta)
}

// extend grows s by n zero elements. The reused-capacity path must
// clear explicitly: after a swap-remove shrink the spare capacity
// still holds the deleted row's bytes.
func extend[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		s = s[: len(s)+n : cap(s)]
		clear(s[len(s)-n:])
		return s
	}
	return append(s, make([]T, n)...)
}

// ensureSlot returns id's slot, appending a fresh zero row when the id
// is new. Caller holds sh.mu.
func (sh *shard) ensureSlot(s *Store, id graph.NodeID) int {
	slot, ok := sh.slot[id]
	if ok {
		return slot
	}
	slot = len(sh.ids)
	sh.slot[id] = slot
	sh.ids = append(sh.ids, id)
	switch s.prec {
	case F32:
		sh.vecs32 = extend(sh.vecs32, s.dim)
		sh.norms = append(sh.norms, 0)
	case SQ8:
		sh.codes = extend(sh.codes, s.dim)
		sh.meta = append(sh.meta, sq8Meta{})
	}
	return slot
}

// upsertLocked inserts or replaces id's vector, narrowing/quantizing
// per the store precision. norm is the caller's L2 norm of vec (the
// original full-precision value the cosine path divides by). Caller
// holds sh.mu.
func (sh *shard) upsertLocked(s *Store, id graph.NodeID, vec []float64, norm float64) {
	sh.maskBase(id)
	slot := sh.ensureSlot(s, id)
	dim := s.dim
	switch s.prec {
	case F32:
		vecmath.F64To32(sh.vecs32[slot*dim:(slot+1)*dim], vec)
		sh.norms[slot] = norm
	case SQ8:
		scale, offset, codeSum := vecmath.EncodeSQ8(vec, sh.codes[slot*dim:(slot+1)*dim])
		sh.meta[slot] = sq8Meta{Scale: scale, Offset: offset, Norm: norm, CodeSum: codeSum}
	}
}

// BulkLoad upserts row i of emb as node ID i for every row. It panics on
// dimension mismatch (programmer error, matching tensor conventions).
// Rows are copied; the caller keeps ownership of emb. Each shard's slab
// is grown once, so the load performs O(shards) allocations rather than
// one per vector.
func (s *Store) BulkLoad(emb *tensor.Matrix) {
	if emb.Cols != s.dim {
		panic(fmt.Sprintf("embstore: bulk load of %d-dim rows into %d-dim store", emb.Cols, s.dim))
	}
	// Group rows per shard first so each shard's lock is taken once.
	groups := make([][]graph.NodeID, len(s.shards))
	for i := 0; i < emb.Rows; i++ {
		id := graph.NodeID(i)
		idx := s.shardIndex(id)
		groups[idx] = append(groups[idx], id)
	}
	var wg sync.WaitGroup
	for idx := range groups {
		if len(groups[idx]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, ids []graph.NodeID) {
			defer wg.Done()
			sh.mu.Lock()
			sh.reserveLocked(s, len(ids))
			for _, id := range ids {
				row := emb.Row(int(id))
				sh.upsertLocked(s, id, row, vecmath.Norm(row))
			}
			sh.mu.Unlock()
		}(&s.shards[idx], groups[idx])
	}
	wg.Wait()
}

// reserveLocked pre-grows the shard's slabs for extra more vectors.
// Caller holds sh.mu.
func (sh *shard) reserveLocked(s *Store, extra int) {
	n := len(sh.ids) + extra
	if cap(sh.ids) < n {
		sh.ids = append(make([]graph.NodeID, 0, n), sh.ids...)
	}
	switch s.prec {
	case F32:
		if cap(sh.vecs32) < n*s.dim {
			sh.vecs32 = append(make([]float32, 0, n*s.dim), sh.vecs32...)
		}
	case SQ8:
		if cap(sh.codes) < n*s.dim {
			sh.codes = append(make([]int8, 0, n*s.dim), sh.codes...)
		}
		if cap(sh.meta) < n {
			sh.meta = append(make([]sq8Meta, 0, n), sh.meta...)
		}
	}
	if s.prec != SQ8 && cap(sh.norms) < n {
		sh.norms = append(make([]float64, 0, n), sh.norms...)
	}
}

// Upsert inserts or replaces the vector for id. The vector is copied
// (and narrowed/quantized per the store precision).
func (s *Store) Upsert(id graph.NodeID, vec []float64) error {
	return s.upsertNorm(id, vec, vecmath.Norm(vec))
}

// upsertNorm is Upsert with a caller-supplied norm: the snapshot
// conversion path threads the original-vector norm through so a
// narrowed store still divides by the exact denominator.
func (s *Store) upsertNorm(id graph.NodeID, vec []float64, norm float64) error {
	if len(vec) != s.dim {
		return fmt.Errorf("embstore: upsert of %d-dim vector into %d-dim store", len(vec), s.dim)
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	sh.upsertLocked(s, id, vec, norm)
	sh.mu.Unlock()
	return nil
}

// Delete removes id, reporting whether it was present. The last vector
// of the shard's slab is swapped into the vacated slot so scans stay
// dense.
func (s *Store) Delete(id graph.NodeID) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, ok := sh.slot[id]
	if !ok {
		// Not in the overlay: a live base row is deleted by masking it
		// (the mapping is read-only).
		if b := sh.base; b != nil {
			if _, found := slices.BinarySearch(b.ids, id); found && !b.maskedBase(id) {
				sh.maskBase(id)
				return true
			}
		}
		return false
	}
	dim := s.dim
	last := len(sh.ids) - 1
	if slot != last {
		movedID := sh.ids[last]
		sh.ids[slot] = movedID
		switch s.prec {
		case F32:
			copy(sh.vecs32[slot*dim:(slot+1)*dim], sh.vecs32[last*dim:(last+1)*dim])
			sh.norms[slot] = sh.norms[last]
		case SQ8:
			copy(sh.codes[slot*dim:(slot+1)*dim], sh.codes[last*dim:(last+1)*dim])
			sh.meta[slot] = sh.meta[last]
		}
		sh.slot[movedID] = slot
	}
	sh.ids = sh.ids[:last]
	switch s.prec {
	case F32:
		sh.vecs32 = sh.vecs32[:last*dim]
		sh.norms = sh.norms[:last]
	case SQ8:
		sh.codes = sh.codes[:last*dim]
		sh.meta = sh.meta[:last]
	}
	delete(sh.slot, id)
	return true
}

// Get returns a full-precision copy of the vector for id, dequantized
// from whatever the slab stores.
func (s *Store) Get(id graph.NodeID) ([]float64, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	slot, inBase, ok := sh.lookupLocked(id)
	if !ok {
		sh.mu.RUnlock()
		return nil, false
	}
	out := make([]float64, s.dim)
	v := getView()
	s.fillAt(sh, slot, inBase, v)
	v.DequantizeInto(out)
	viewPool.Put(v)
	sh.mu.RUnlock()
	return out, true
}

// With runs fn on the stored vector for id under the shard read lock,
// avoiding the copy Get makes. The view aliases slab memory: fn must
// not retain it (or the pointer) or call any mutating Store method
// (the shard lock is held). Reports presence.
func (s *Store) With(id graph.NodeID, fn func(v *VecView)) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	slot, inBase, ok := sh.lookupLocked(id)
	if ok {
		v := getView()
		s.fillAt(sh, slot, inBase, v)
		fn(v)
		viewPool.Put(v)
	}
	sh.mu.RUnlock()
	return ok
}

// ScanShard hands shard i's rows to fn as contiguous runs, all under
// one hold of the shard's read lock: the dense overlay slab first,
// then, for a cold store, the mapped base with its masked rows still
// in place (see Run.Masked). fn returns false to stop. Deletes
// swap-remove overlay rows, so a scan that releases the lock and comes
// back may see rows moved; a run is consistent only within its
// callback. fn must not retain the run or call a mutating Store method.
func (s *Store) ScanShard(i int, fn func(r Run) bool) {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if !fn(sh.overlayRun(s.dim)) || sh.base == nil {
		return
	}
	fn(sh.base.run(s.dim))
}

// RangeShard iterates shard i's live rows under its read lock, stopping
// when fn returns false. The view passed to fn aliases slab memory and
// is reused across iterations: fn must not retain it or call any
// mutating Store method. Iteration order is ScanShard's: the dense slab
// (insertion order, perturbed by swap-remove deletes), then a cold
// store's unmasked base rows.
func (s *Store) RangeShard(i int, fn func(id graph.NodeID, v *VecView) bool) {
	v := getView()
	defer viewPool.Put(v)
	s.ScanShard(i, func(r Run) bool {
		for j, id := range r.IDs {
			if r.Masked(j) {
				continue
			}
			r.View(j, v)
			if !fn(id, v) {
				return false
			}
		}
		return true
	})
}

// WithShard looks up each of ids (all of which must hash to shard i —
// see ShardOf) under a single acquisition of the shard's read lock,
// calling fn(j, v) for every ids[j] that is present. The batch analogue
// of With for consumers that score many candidates at once (the index j
// tells them whose candidate it is); the view is reused across calls
// like RangeShard's.
func (s *Store) WithShard(i int, ids []graph.NodeID, fn func(j int, v *VecView)) {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v := getView()
	defer viewPool.Put(v)
	for j, id := range ids {
		if slot, inBase, ok := sh.lookupLocked(id); ok {
			s.fillAt(sh, slot, inBase, v)
			fn(j, v)
		}
	}
}

// IDs returns all stored node IDs in ascending order.
func (s *Store) IDs() []graph.NodeID {
	out := make([]graph.NodeID, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out = append(out, sh.ids...)
		if b := sh.base; b != nil {
			for _, id := range b.ids {
				if !b.maskedBase(id) {
					out = append(out, id)
				}
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
// same precision, bit-identical slab representations), regardless of
// shard count. It takes read locks shard by shard; quiesce writers for
// a meaningful answer.
func (s *Store) Equal(o *Store) bool {
	if s.dim != o.dim || s.prec != o.prec || s.Len() != o.Len() {
		return false
	}
	equal := true
	for i := range s.shards {
		s.RangeShard(i, func(id graph.NodeID, v *VecView) bool {
			ok := o.With(id, func(ov *VecView) {
				if !viewEqual(v, ov) {
					equal = false
				}
			})
			if !ok {
				equal = false
			}
			return equal
		})
		if !equal {
			return false
		}
	}
	return true
}
