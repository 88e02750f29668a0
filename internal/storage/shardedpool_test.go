package storage

import (
	"sync"
	"testing"
)

func TestPoolShardCount(t *testing.T) {
	for _, tc := range []struct{ capacity, want int }{
		{1, 1},
		{2, 1},
		{15, 1},
		{16, 2},
		{64, 8},
		{1024, 16},
		{1 << 20, 16},
	} {
		if got := poolShardCount(tc.capacity); got != tc.want {
			t.Errorf("poolShardCount(%d) = %d, want %d", tc.capacity, got, tc.want)
		}
	}
}

// TestBufferPoolConcurrent hammers a sharded pool from many goroutines.
// Under -race this verifies the shard locking and that the slices Get returns
// are safe to read even after eviction: a frame Get handed out is marked
// aliased and is the one kind of frame the miss path never reads into again
// (frames only ReadAt and Prefetch touched are reused on eviction — see
// TestCopyOutStress).
func TestBufferPoolConcurrent(t *testing.T) {
	p := NewMemPager()
	const pages = 64
	for i := 0; i < pages; i++ {
		buf := make([]byte, PageSize)
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := p.WritePage(uint32(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(p, 16) // capacity << pages forces constant eviction
	if bp.Shards() < 2 {
		t.Fatalf("want a sharded pool, got %d shards", bp.Shards())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := uint32((w*13 + i*7) % pages)
				data, err := bp.Get(id)
				if err != nil {
					t.Errorf("get %d: %v", id, err)
					return
				}
				// Read the whole frame well after other goroutines may have
				// evicted the page: content must still be intact.
				if data[0] != byte(id) || data[PageSize-1] != byte(id) {
					t.Errorf("page %d corrupt: %d %d", id, data[0], data[PageSize-1])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := bp.Stats()
	if st.Touched != 8*2000 {
		t.Fatalf("touched = %d, want %d", st.Touched, 8*2000)
	}
	if st.Evicted == 0 || st.Hits == 0 {
		t.Fatalf("expected hits and evictions: %+v", st)
	}
	if bp.Resident() > bp.Capacity() {
		t.Fatalf("resident %d > capacity %d", bp.Resident(), bp.Capacity())
	}
}
