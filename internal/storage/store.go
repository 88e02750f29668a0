package storage

import (
	"fmt"
	"sync"
)

// SegRef locates a variable-length segment within a Store: it starts at
// byte Off of page Page and spans Len bytes, possibly crossing pages.
// Segment directories (trajectory ID → SegRef, etc.) are the small in-memory
// structures index components keep to find their on-disk payloads.
type SegRef struct {
	Page uint32
	Off  uint32
	Len  uint32
}

// Zero reports whether the reference is the zero reference. A zero SegRef
// with Len 0 denotes an empty segment.
func (r SegRef) Zero() bool { return r == SegRef{} }

// PageSpan returns the number of pages a Read of the segment touches.
// Reading through the buffer pool touches each spanned page exactly once,
// so this is the per-fetch page cost — engines sum it for the PageReads
// statistic instead of diffing the pool's global counters, which keeps
// per-search accounting exact when many searches share the pool.
func (r SegRef) PageSpan() int {
	if r.Len == 0 {
		return 0
	}
	return int((r.Off + r.Len + PageSize - 1) / PageSize)
}

// Store packs append-only byte segments across fixed-size pages and reads
// them back through a BufferPool. It is the "hard disk" of the paper's
// Figure 2: APLs, low HICL levels, and raw trajectories are segments here.
type Store struct {
	mu     sync.Mutex
	pager  Pager
	pool   *BufferPool
	cur    []byte // page under construction (len <= PageSize)
	curID  uint32
	sealed bool
}

// NewMemStore returns a Store over an in-memory pager with the given buffer
// pool capacity (pages).
func NewMemStore(poolPages int) *Store {
	pager := NewMemPager()
	return &Store{pager: pager, pool: NewBufferPool(pager, poolPages)}
}

// NewFileStore returns a Store backed by a file at path.
func NewFileStore(path string, poolPages int) (*Store, error) {
	pager, err := NewFilePager(path)
	if err != nil {
		return nil, err
	}
	return &Store{pager: pager, pool: NewBufferPool(pager, poolPages)}, nil
}

// Append writes blob as a new segment and returns its reference. Appending
// after Seal is an error.
func (s *Store) Append(blob []byte) (SegRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return SegRef{}, fmt.Errorf("storage: append to sealed store")
	}
	// Flush an exactly-full tail page first so the returned reference
	// always has Off < PageSize.
	if len(s.cur) == PageSize {
		if err := s.flushCurLocked(); err != nil {
			return SegRef{}, err
		}
	}
	ref := SegRef{Page: s.curID, Off: uint32(len(s.cur)), Len: uint32(len(blob))}
	for len(blob) > 0 {
		space := PageSize - len(s.cur)
		if space == 0 {
			if err := s.flushCurLocked(); err != nil {
				return SegRef{}, err
			}
			continue
		}
		n := min(space, len(blob))
		s.cur = append(s.cur, blob[:n]...)
		blob = blob[n:]
	}
	return ref, nil
}

func (s *Store) flushCurLocked() error {
	if err := s.pager.WritePage(s.curID, s.cur); err != nil {
		return err
	}
	s.pool.Invalidate(s.curID)
	s.curID++
	s.cur = s.cur[:0]
	return nil
}

// Seal flushes the final partial page and freezes the store for reading.
// Reads are permitted before Seal only for fully flushed pages, so callers
// should finish all writes first.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil
	}
	if len(s.cur) > 0 {
		if err := s.flushCurLocked(); err != nil {
			return err
		}
	}
	s.sealed = true
	return nil
}

// Read returns the bytes of the segment at ref, reading every spanned page
// through the buffer pool (each touched page counts toward PoolStats).
func (s *Store) Read(ref SegRef) ([]byte, error) {
	return s.ReadInto(ref, nil)
}

// ReadInto is Read appending into dst (which may be nil), letting hot paths
// reuse one segment buffer across reads instead of allocating per call.
func (s *Store) ReadInto(ref SegRef, dst []byte) ([]byte, error) {
	if ref.Len == 0 {
		return dst, nil
	}
	out := dst
	if cap(out)-len(out) < int(ref.Len) {
		grown := make([]byte, len(out), len(out)+int(ref.Len))
		copy(grown, out)
		out = grown
	}
	page := ref.Page
	off := int(ref.Off)
	remaining := int(ref.Len)
	for remaining > 0 {
		n := min(PageSize-off, remaining)
		out = out[:len(out)+n]
		if err := s.pool.ReadAt(page, off, out[len(out)-n:]); err != nil {
			return nil, fmt.Errorf("storage: read segment {%d,%d,%d}: %w", ref.Page, ref.Off, ref.Len, err)
		}
		remaining -= n
		off = 0
		page++
	}
	return out, nil
}

// ReadPage copies the first len(dst) bytes of one page into dst (reading the
// page through the buffer pool, counting toward PoolStats). Sparse readers
// use it to fetch exactly the pages that hold the bytes they need.
func (s *Store) ReadPage(page uint32, dst []byte) error { return s.pool.ReadAt(page, 0, dst) }

// PageData returns the cached content of one page like ReadPage, but as a
// slice aliasing the frame (BufferPool.Get): callers must not modify it, and
// the pool can never reuse that frame. The benchmark's page probe is its one
// caller; everything that serves reads copies out.
func (s *Store) PageData(page uint32) ([]byte, error) { return s.pool.Get(page) }

// Stats returns buffer pool counters.
func (s *Store) Stats() PoolStats { return s.pool.Stats() }

// ResetPool clears the buffer pool (cold-cache experiments).
func (s *Store) ResetPool() { s.pool.Reset() }

// Pages returns the number of pages written (including the unflushed tail).
func (s *Store) Pages() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.pager.PageCount()
	if len(s.cur) > 0 {
		n++
	}
	return n
}

// DiskBytes returns the total on-disk footprint in bytes.
func (s *Store) DiskBytes() int64 { return int64(s.Pages()) * PageSize }

// Close releases the underlying pager.
func (s *Store) Close() error { return s.pager.Close() }
