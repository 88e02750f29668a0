package cache

import (
	"fmt"
	"sync"
	"testing"
)

func idHash(k uint64) uint64 { return Uint64Hash(k) }

// singleShard returns a cache with exactly one shard so LRU order is
// globally observable.
func singleShard(capacity int) *Sharded[uint64, int] {
	return New[uint64, int](capacity, 1, idHash)
}

func TestLRUEviction(t *testing.T) {
	c := singleShard(2)
	c.Put(1, 10)
	c.Put(2, 20)
	if _, ok := c.Get(1); !ok { // promote 1; 2 becomes LRU
		t.Fatal("1 must be cached")
	}
	c.Put(3, 30) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("2 must have been evicted (LRU)")
	}
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("1 lost: %v %v", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != 30 {
		t.Fatalf("3 lost: %v %v", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// hits: get(1), get(1), get(3); misses: get(2)
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := singleShard(2)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Put(1, 11) // refresh, not insert: nothing evicted
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if v, _ := c.Get(1); v != 11 {
		t.Fatalf("refresh lost: %d", v)
	}
	c.Put(3, 30) // 2 is LRU now
	if _, ok := c.Get(2); ok {
		t.Fatal("2 must have been evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestGetOrFill(t *testing.T) {
	c := singleShard(4)
	fills := 0
	get := func() (int, error) {
		return c.GetOrFill(7, func() (int, error) {
			fills++
			return 42, nil
		})
	}
	for i := 0; i < 3; i++ {
		v, err := get()
		if err != nil || v != 42 {
			t.Fatalf("get %d: %v %v", i, v, err)
		}
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	// Errors are not cached.
	wantErr := fmt.Errorf("boom")
	if _, err := c.GetOrFill(8, func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get(8); ok {
		t.Fatal("failed fill must not cache")
	}
}

// TestGetOrFillKeepsResident: when the key appears while fill runs — fill
// inserts it itself here, standing in for a concurrent filler — the resident
// value wins and is what the late filler gets back, so whatever other
// goroutines memoized on it survives; nothing is evicted to make room for
// the loser.
func TestGetOrFillKeepsResident(t *testing.T) {
	boom := fmt.Errorf("boom")
	for _, tc := range []struct {
		name      string
		raced     bool  // fill inserts 2 under the key before returning
		fillErr   error // what fill returns beside its own value 1
		want      int
		wantErr   error
		wantCache int // value resident afterwards, 0 = absent
	}{
		{name: "no race", want: 1, wantCache: 1},
		{name: "key appeared during fill", raced: true, want: 2, wantCache: 2},
		{name: "key appeared, fill failed", raced: true, fillErr: boom, wantErr: boom, wantCache: 2},
		{name: "fill failed", fillErr: boom, wantErr: boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := singleShard(2)
			c.Put(8, 80)
			c.Put(9, 90) // the shard is full: a real insert evicts
			got, err := c.GetOrFill(7, func() (int, error) {
				if tc.raced {
					c.Put(7, 2)
				}
				return 1, tc.fillErr
			})
			if err != tc.wantErr || got != tc.want {
				t.Fatalf("GetOrFill = %d, %v; want %d, %v", got, err, tc.want, tc.wantErr)
			}
			if v, ok := c.Get(7); v != tc.wantCache || ok != (tc.wantCache != 0) {
				t.Fatalf("resident = %d, %v; want %d", v, ok, tc.wantCache)
			}
			wantEvictions := uint64(0)
			if tc.wantCache != 0 {
				wantEvictions = 1
			}
			if c.Len() != 2 || c.Stats().Evictions != wantEvictions {
				t.Fatalf("len %d, evictions %d; want 2, %d", c.Len(), c.Stats().Evictions, wantEvictions)
			}
		})
	}
}

func TestCapacityDistribution(t *testing.T) {
	for _, tc := range []struct {
		capacity, shards, wantShards int
	}{
		{100, 0, 16},
		{100, 3, 4},
		{5, 16, 4}, // shards capped at capacity, rounded to power of two
		{1, 16, 1},
	} {
		c := New[uint64, int](tc.capacity, tc.shards, idHash)
		if c.Shards() != tc.wantShards {
			t.Errorf("New(%d,%d): shards = %d, want %d", tc.capacity, tc.shards, c.Shards(), tc.wantShards)
		}
		if c.Capacity() < tc.capacity {
			t.Errorf("New(%d,%d): capacity = %d, want >= %d", tc.capacity, tc.shards, c.Capacity(), tc.capacity)
		}
	}
}

func TestReset(t *testing.T) {
	c := New[uint64, int](64, 4, idHash)
	for i := uint64(0); i < 32; i++ {
		c.Put(i, int(i))
	}
	c.Get(0)
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("len after reset = %d", c.Len())
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("reset must drop entries")
	}
}

func TestStatsSub(t *testing.T) {
	c := singleShard(8)
	c.Put(1, 1)
	c.Get(1)
	snap := c.Stats()
	c.Get(1)
	c.Get(2)
	d := c.Stats().Sub(snap)
	if d.Hits != 1 || d.Misses != 1 {
		t.Fatalf("diff = %+v", d)
	}
}

// TestConcurrentStress hammers one cache from many goroutines with
// overlapping key ranges; run under -race this checks the locking, and the
// invariant checks catch lost or corrupted entries.
func TestConcurrentStress(t *testing.T) {
	c := New[uint64, [2]uint64](256, 8, idHash)
	const workers = 8
	const ops = 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := uint64((w*31 + i) % 512)
				if v, ok := c.Get(k); ok {
					if v[0] != k || v[1] != k*2 {
						t.Errorf("corrupt value for %d: %v", k, v)
						return
					}
				} else {
					c.Put(k, [2]uint64{k, k * 2})
				}
				if i%97 == 0 {
					_, _ = c.GetOrFill(k+1000, func() ([2]uint64, error) {
						return [2]uint64{k + 1000, (k + 1000) * 2}, nil
					})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Fatalf("len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestPutOnFullCacheAllocatesNothing: an insert into a full shard reuses the
// node it evicts, so a cache at capacity costs no allocation per Put — and
// the reuse must carry the new key and value, never the old ones.
func TestPutOnFullCacheAllocatesNothing(t *testing.T) {
	const capacity = 64
	c := New[uint64, int](capacity, 4, idHash)
	next := uint64(0)
	put := func() {
		c.Put(next, int(next)*3)
		next++
	}
	for i := 0; i < 4*capacity; i++ {
		put() // fill every shard and size its map
	}
	before := c.Stats()
	if n := testing.AllocsPerRun(500, put); n != 0 {
		t.Errorf("Put on a full cache: %v allocs, want 0", n)
	}
	if ev := c.Stats().Sub(before).Evictions; ev != 501 { // AllocsPerRun warms up with one extra call
		t.Fatalf("every Put of a new key on a full cache must evict: %d evictions for 501 puts", ev)
	}
	if c.Len() != capacity {
		t.Fatalf("len %d, want %d", c.Len(), capacity)
	}
	resident := 0
	for k := uint64(0); k < next; k++ {
		if v, ok := c.Get(k); ok {
			resident++
			if v != int(k)*3 {
				t.Fatalf("key %d holds %d, want %d: a reused node kept stale state", k, v, int(k)*3)
			}
		}
	}
	if resident != capacity {
		t.Fatalf("%d keys resident, want %d", resident, capacity)
	}
}
