package storage

import (
	"sync"
	"sync/atomic"
)

// PoolStats counts page traffic through a BufferPool. Touched counts every
// logical page access, Hits the subset served from a resident frame and
// Misses the rest, served by the underlying pager (physical reads, failed
// ones included): the pool loads a page only because a reader asked for it,
// so Hits + Misses == Touched. Experiments report Touched as the
// deterministic "page reads" metric and Misses for cache behaviour.
type PoolStats struct {
	Touched uint64
	Hits    uint64
	Misses  uint64
	Evicted uint64
}

// Sub returns s - old, for per-query accounting via snapshots.
func (s PoolStats) Sub(old PoolStats) PoolStats {
	return PoolStats{
		Touched: s.Touched - old.Touched,
		Hits:    s.Hits - old.Hits,
		Misses:  s.Misses - old.Misses,
		Evicted: s.Evicted - old.Evicted,
	}
}

// BufferPool is a fixed-capacity LRU page cache in front of a Pager, safe
// for concurrent use. The page-frame map and LRU ring are sharded by page
// number so concurrent readers (searches running in parallel)
// do not serialize on a single mutex; statistics are kept in atomics.
//
// The discipline that lets the miss path stop allocating: no alias of a
// frame leaves the pool on the serving path. ReadAt copies out under the
// shard lock, so a frame nobody outside the pool can see is free to be
// rewritten the moment it is unlinked — a miss on a full shard reads the new
// page into the frame it evicts. Get is the one exception (see there).
//
// Pools below 2 * minPagesPerShard pages use a single shard, which keeps
// exact global LRU semantics for the small deterministic pools tests and
// cold-cache experiments use.
type BufferPool struct {
	pager    Pager
	capacity int
	shards   []poolShard
	mask     uint32

	touched atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64
}

type poolShard struct {
	mu       sync.Mutex
	capacity int
	head     *frame // most recent; head.prev is the LRU victim
	frames   map[uint32]*frame
}

// frame is one cached page and its node in the shard's LRU ring. The links
// come first so the collector's scan of a frame stops after two words.
type frame struct {
	prev, next *frame
	id         uint32
	aliased    bool // data was handed out by Get: never rewritten
	data       [PageSize]byte
}

func (s *poolShard) pushFront(fr *frame) {
	if s.head == nil {
		fr.prev, fr.next = fr, fr
	} else {
		fr.prev, fr.next = s.head.prev, s.head
		fr.prev.next, fr.next.prev = fr, fr
	}
	s.head = fr
}

// unlink takes fr out of the ring and clears its links: an aliased frame can
// outlive its eviction and must not keep its old neighbours reachable.
func (s *poolShard) unlink(fr *frame) {
	if fr.next == fr {
		s.head = nil
	} else {
		fr.prev.next, fr.next.prev = fr.next, fr.prev
		if s.head == fr {
			s.head = fr.next
		}
	}
	fr.prev, fr.next = nil, nil
}

func (s *poolShard) moveToFront(fr *frame) {
	if s.head != fr {
		s.unlink(fr)
		s.pushFront(fr)
	}
}

const (
	// maxPoolShards bounds lock splitting; past ~16 ways the mutexes are
	// no longer the bottleneck.
	maxPoolShards = 16
	// minPagesPerShard keeps shards big enough that per-shard LRU still
	// approximates global LRU.
	minPagesPerShard = 8
)

func poolShardCount(capacity int) int {
	n := 1
	for n < maxPoolShards && capacity >= n*2*minPagesPerShard {
		n <<= 1
	}
	return n
}

// NewBufferPool returns a pool caching up to capacity pages of pager.
// capacity must be >= 1.
func NewBufferPool(pager Pager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	n := poolShardCount(capacity)
	bp := &BufferPool{
		pager:    pager,
		capacity: capacity,
		shards:   make([]poolShard, n),
		mask:     uint32(n - 1),
	}
	base, extra := capacity/n, capacity%n
	for i := range bp.shards {
		c := base
		if i < extra {
			c++
		}
		bp.shards[i] = poolShard{capacity: c, frames: make(map[uint32]*frame, c)}
	}
	return bp
}

func (bp *BufferPool) shardFor(id uint32) *poolShard { return &bp.shards[id&bp.mask] }

// ReadAt copies len(dst) bytes of page id, starting at byte off, into dst.
// The copy is made under the shard lock, so nothing the caller holds refers
// to the frame afterwards. This is the read of the serving path.
func (bp *BufferPool) ReadAt(id uint32, off int, dst []byte) error {
	s, fr, err := bp.access(id)
	if err != nil {
		return err
	}
	copy(dst, fr.data[off:])
	s.mu.Unlock()
	return nil
}

// Get returns the content of page id. The returned slice aliases the cached
// frame: callers must not modify it. A frame handed out this way is marked
// and never rewritten — when it is evicted it goes to the collector instead
// of being reused — so the slice stays valid (and race-free) even if the
// page is evicted while a concurrent reader still holds it. Only the pool
// tests and the benchmark's page probe read this way.
func (bp *BufferPool) Get(id uint32) ([]byte, error) {
	s, fr, err := bp.access(id)
	if err != nil {
		return nil, err
	}
	fr.aliased = true
	s.mu.Unlock()
	return fr.data[:], nil
}

// access counts one logical access to page id and returns its frame, most
// recently used, with the shard still locked; on error the lock is released.
func (bp *BufferPool) access(id uint32) (*poolShard, *frame, error) {
	bp.touched.Add(1)
	s := bp.shardFor(id)
	s.mu.Lock()
	if fr := s.frames[id]; fr != nil {
		s.moveToFront(fr)
		bp.hits.Add(1)
		return s, fr, nil
	}
	bp.misses.Add(1)
	fr, err := bp.fault(s, id)
	if err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	return s, fr, nil
}

// fault loads page id, which the caller just found absent, and returns its
// resident frame. It is entered and left with s.mu held. On a full shard the
// LRU victim is unlinked first and the page is read into the victim's frame;
// below capacity, or when the victim is aliased, into a fresh one. The read
// runs outside the lock so a slow pager does not stall other pages of the
// shard. Concurrent misses on one page may both read it: the first insert
// stays (pages are immutable once flushed) and the loser's frame goes to the
// collector. A failed read leaves the victim's page simply gone.
func (bp *BufferPool) fault(s *poolShard, id uint32) (*frame, error) {
	fr := bp.evictIfFull(s)
	s.mu.Unlock()
	if fr == nil {
		fr = new(frame)
	}
	fr.id = id
	err := bp.pager.ReadPage(id, fr.data[:])
	s.mu.Lock()
	if err != nil {
		return nil, err
	}
	if cur := s.frames[id]; cur != nil {
		s.moveToFront(cur)
		return cur, nil
	}
	bp.evictIfFull(s) // a concurrent filler may have taken the slot freed above
	s.frames[id] = fr
	s.pushFront(fr)
	return fr, nil
}

// evictIfFull unlinks the LRU frame of a full shard and returns it for
// reuse — nil when the shard has room, or when the victim's bytes were handed
// out by Get and must stay as they are.
func (bp *BufferPool) evictIfFull(s *poolShard) *frame {
	if len(s.frames) < s.capacity {
		return nil
	}
	victim := s.head.prev
	s.unlink(victim)
	delete(s.frames, victim.id)
	bp.evicted.Add(1)
	if victim.aliased {
		return nil
	}
	return victim
}

// Invalidate drops page id from the cache (used after rewrites).
func (bp *BufferPool) Invalidate(id uint32) {
	s := bp.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if fr := s.frames[id]; fr != nil {
		delete(s.frames, id)
		s.unlink(fr)
	}
}

// Reset empties the cache and zeroes statistics.
func (bp *BufferPool) Reset() {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		s.head = nil
		s.frames = make(map[uint32]*frame, s.capacity)
		s.mu.Unlock()
	}
	bp.touched.Store(0)
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.evicted.Store(0)
}

// Stats returns a snapshot of the pool counters. Under concurrent use the
// counters are individually exact but not mutually atomic.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		Touched: bp.touched.Load(),
		Hits:    bp.hits.Load(),
		Misses:  bp.misses.Load(),
		Evicted: bp.evicted.Load(),
	}
}

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Shards returns the number of lock shards the pool uses.
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// Resident returns the number of pages currently cached.
func (bp *BufferPool) Resident() int {
	n := 0
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}
