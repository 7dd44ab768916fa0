//go:build linux || darwin

// Cold-mode store backend: OpenMmap maps a v3 snapshot read-only and
// serves the base tier straight out of the page cache, so boot cost is
// one integrity pass over the file (no heap materialization) and the
// resident set tracks the access pattern instead of the dataset. WAL
// applies land in the heap overlay; Remap folds the overlay away when
// the rotation path writes a fresh base.
package embstore

import (
	"fmt"
	"os"
	"syscall"
)

// OpenMmap opens the v3 snapshot at path as a cold store, returning the
// store and the WAL watermark the snapshot was stamped with. The file
// is mapped read-only and every section CRC is verified before any
// vector is served (a sequential pass; the faulted pages are dropped
// again afterwards so the post-boot resident set starts near zero).
// Vector-slab sections are advised MADV_RANDOM: re-rank touches
// arbitrary rows and sequential readahead would just evict hotter
// pages. A legacy float64 snapshot cannot be served in place:
// ErrF64Snapshot. A file written while the store was striped over lock
// shards is served in place too, one base run per shard.
func OpenMmap(path string) (*Store, uint64, error) {
	if !hostLittleEndian {
		return nil, 0, fmt.Errorf("embstore: v3 snapshots require a little-endian host")
	}
	l, data, err := mapV3(path)
	if err != nil {
		return nil, 0, err
	}
	if l.prec == legacyF64 {
		syscall.Munmap(data)
		return nil, 0, fmt.Errorf("embstore: mmap open %s: %w", path, ErrF64Snapshot)
	}
	s, err := New(l.dim, l.prec)
	if err != nil {
		syscall.Munmap(data)
		return nil, 0, err
	}
	s.attachColdBase(l, data)
	s.cold.Store(&coldInfo{path: path, data: data, payloadBytes: l.payloadBytes()})
	return s, l.watermark, nil
}

// mapV3 maps, parses and integrity-checks a v3 snapshot. On success the
// caller owns the mapping.
func mapV3(path string) (*v3Layout, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("embstore: mmap open: %v", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("embstore: mmap open: %v", err)
	}
	size := fi.Size()
	if size < v3HeaderSize {
		return nil, nil, fmt.Errorf("embstore: mmap open %s: %d bytes: %w", path, size, ErrNotV3Snapshot)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("embstore: mmap %s: %v", path, err)
	}
	l, err := parseV3(data)
	if err == nil {
		// The CRC pass reads the whole image once; advise sequential so
		// readahead batches the faults, then drop the pages so "just
		// booted" RSS reflects the mapping's laziness, not the check.
		madvise(data, syscall.MADV_SEQUENTIAL)
		err = l.verifySections(data)
		madvise(data, syscall.MADV_DONTNEED)
	}
	if err != nil {
		syscall.Munmap(data)
		return nil, nil, err
	}
	for i := range l.sections {
		if sec := &l.sections[i]; sec.kind == v3KindPayload && sec.length > 0 {
			madvise(data[sec.off:sec.off+sec.length], syscall.MADV_RANDOM)
		}
	}
	return l, data, nil
}

// madvise is advisory twice over: alignment of a section inside the
// mapping is 4096, which may undershoot the system page size (16k
// arm64 kernels), so EINVAL here is expected and harmless.
func madvise(b []byte, advice int) {
	if len(b) == 0 {
		return
	}
	_ = syscall.Madvise(b, advice)
}

// Remap replaces a cold store's base with the v3 snapshot at path and
// clears the overlay: the rotation fold. The caller must have written
// path from this store (same dim and precision) and must hold off
// writers for the whole call — the daemon runs it under its applier
// lock, right after SaveSnapshotV3, so the new base is exactly the
// pre-fold contents. Readers wait only for the flip itself, under the
// write lock, and the old mapping is released after it. The flip
// renumbers every row, so a store an HNSW graph indexes is folded
// through the graph's Remap, which re-slots the graph with it.
func (s *Store) Remap(path string) error {
	old := s.cold.Load()
	if old == nil {
		return fmt.Errorf("embstore: remap of a non-mmap store")
	}
	l, data, err := mapV3(path)
	if err != nil {
		return err
	}
	if l.dim != s.dim || l.prec != s.prec {
		syscall.Munmap(data)
		return fmt.Errorf("embstore: remap %s: dim/precision %d/%s, store has %d/%s",
			path, l.dim, l.prec, s.dim, s.prec)
	}
	s.attachColdBase(l, data)
	s.cold.Store(&coldInfo{path: path, data: data, payloadBytes: l.payloadBytes()})
	// The flip above held the write lock, so no reader still holds a
	// view into the old mapping (views never outlive the lock hold that
	// produced them).
	return syscall.Munmap(old.data)
}

// Close releases a cold store's mapping. The store must be quiesced:
// any view into the base after Close is a fault. RAM stores need no
// close; this is a no-op for them.
func (s *Store) Close() error {
	old := s.cold.Swap(nil)
	if old == nil {
		return nil
	}
	s.mu.Lock()
	s.base = nil
	s.mu.Unlock()
	return syscall.Munmap(old.data)
}

// MappedResidentBytes reports how much of the snapshot mapping is
// currently page-cache resident (mincore), the honest numerator of the
// cold tier's memory story: RSS alone can't distinguish "mapped" from
// "touched". Returns 0 for RAM stores, -1 when the kernel won't say.
func (s *Store) MappedResidentBytes() int64 {
	c := s.cold.Load()
	if c == nil || len(c.data) == 0 {
		return 0
	}
	pg := os.Getpagesize()
	vec := make([]byte, (len(c.data)+pg-1)/pg)
	if err := mincore(c.data, vec); err != nil {
		return -1
	}
	var resident int64
	for _, v := range vec {
		if v&1 != 0 {
			resident++
		}
	}
	return resident * int64(pg)
}
