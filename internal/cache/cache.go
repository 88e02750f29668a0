// Package cache provides a sharded, concurrency-safe LRU cache used for
// cross-query reuse of decoded index structures: disk-level HICL posting
// lists (internal/gat) and decoded Activity Posting Lists (internal/evaluate).
// Sharding by key hash keeps lock contention low when many searches run
// concurrently; each shard is an independent LRU with its own
// mutex, so the cost of a lookup never scales with the shard count.
package cache

import (
	"sync"
	"sync/atomic"
)

// Stats counts cache traffic. Counters only ever increase; use Sub for
// per-query accounting via snapshots.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Sub returns s - old.
func (s Stats) Sub(old Stats) Stats {
	return Stats{
		Hits:      s.Hits - old.Hits,
		Misses:    s.Misses - old.Misses,
		Evictions: s.Evictions - old.Evictions,
	}
}

// Sharded is a fixed-capacity LRU cache split into power-of-two shards.
// All methods are safe for concurrent use. Values must be treated as
// immutable once inserted: Get returns the cached value itself, which may
// be read by any number of goroutines at once.
type Sharded[K comparable, V any] struct {
	shards []shard[K, V]
	mask   uint64
	hash   func(K) uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type shard[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	head     *node[K, V] // most recent; head.prev is the LRU victim
	items    map[K]*node[K, V]
}

// node is one entry and its place in the shard's LRU ring. An insert into a
// full shard reuses the node it evicts (never the value, which readers may
// still hold), so a cache at capacity allocates nothing per Put.
type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
}

func (s *shard[K, V]) pushFront(n *node[K, V]) {
	if s.head == nil {
		n.prev, n.next = n, n
	} else {
		n.prev, n.next = s.head.prev, s.head
		n.prev.next, n.next.prev = n, n
	}
	s.head = n
}

func (s *shard[K, V]) unlink(n *node[K, V]) {
	if n.next == n {
		s.head = nil
	} else {
		n.prev.next, n.next.prev = n.next, n.prev
		if s.head == n {
			s.head = n.next
		}
	}
}

func (s *shard[K, V]) moveToFront(n *node[K, V]) {
	if s.head != n {
		s.unlink(n)
		s.pushFront(n)
	}
}

// defaultShards is sized for typical core counts; contention halves with
// every doubling, and 16 shards already make the lock negligible next to
// the decode work the cache saves.
const defaultShards = 16

// New returns a cache holding up to capacity entries in total, hashed into
// shards with hash. capacity must be >= 1; shards is rounded up to a power
// of two and capped so every shard holds at least one entry. Pass shards
// <= 0 for a sensible default.
func New[K comparable, V any](capacity, shards int, hash func(K) uint64) *Sharded[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	if shards <= 0 {
		shards = defaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > capacity {
		n >>= 1
	}
	c := &Sharded[K, V]{
		shards: make([]shard[K, V], n),
		mask:   uint64(n - 1),
		hash:   hash,
	}
	base := capacity / n
	extra := capacity % n
	for i := range c.shards {
		cap := base
		if i < extra {
			cap++
		}
		if cap < 1 {
			cap = 1
		}
		c.shards[i] = shard[K, V]{capacity: cap, items: make(map[K]*node[K, V], cap)}
	}
	return c
}

func (c *Sharded[K, V]) shardFor(key K) *shard[K, V] {
	return &c.shards[c.hash(key)&c.mask]
}

// Get returns the value cached under key and whether it was present,
// promoting the entry to most-recently-used.
func (c *Sharded[K, V]) Get(key K) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	if n := s.items[key]; n != nil {
		s.moveToFront(n)
		v := n.val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put inserts or refreshes key → val, evicting the shard's least-recently-
// used entry if the shard is full.
func (c *Sharded[K, V]) Put(key K, val V) { c.put(key, val, false) }

// put inserts key → val and returns the value resident afterwards: val,
// unless key was already present and keep is set, in which case the resident
// value stays (and is promoted).
func (c *Sharded[K, V]) put(key K, val V, keep bool) V {
	s := c.shardFor(key)
	s.mu.Lock()
	if n := s.items[key]; n != nil {
		if keep {
			val = n.val
		} else {
			n.val = val
		}
		s.moveToFront(n)
		s.mu.Unlock()
		return val
	}
	var n *node[K, V]
	evicted := len(s.items) >= s.capacity
	if evicted {
		n = s.head.prev
		s.unlink(n)
		delete(s.items, n.key)
	} else {
		n = new(node[K, V])
	}
	n.key, n.val = key, val
	s.items[key] = n
	s.pushFront(n)
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
	return val
}

// GetOrFill returns the cached value for key, calling fill to compute and
// insert it on a miss. Under concurrent misses for the same key fill may run
// more than once; the first completed fill stays resident and every later
// filler is handed that value instead of its own, so state other goroutines
// have already memoized on the resident value is never orphaned. A fill error
// is returned without caching anything.
func (c *Sharded[K, V]) GetOrFill(key K, fill func() (V, error)) (V, error) {
	if v, ok := c.Get(key); ok {
		return v, nil
	}
	v, err := fill()
	if err != nil {
		var zero V
		return zero, err
	}
	return c.put(key, v, true), nil
}

// Len returns the total number of cached entries.
func (c *Sharded[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the total entry capacity across shards.
func (c *Sharded[K, V]) Capacity() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].capacity
	}
	return n
}

// Shards returns the number of shards (a power of two).
func (c *Sharded[K, V]) Shards() int { return len(c.shards) }

// Reset empties the cache and zeroes the counters.
func (c *Sharded[K, V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.head = nil
		s.items = make(map[K]*node[K, V], s.capacity)
		s.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// Stats returns a snapshot of the traffic counters.
func (c *Sharded[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Uint64Hash is a ready-made hash for integer-like keys (trajectory IDs,
// packed segment references): SplitMix64's finalizer, cheap and well mixed
// so shard assignment is uniform even for dense sequential keys.
func Uint64Hash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
