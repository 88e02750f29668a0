package storage

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// pageByte is the content the reuse tests give byte off of page id.
func pageByte(id uint32, off int) byte { return byte(int(id)*131 + off*7 + off>>8) }

func patternedPager(t *testing.T, pages int) *MemPager {
	t.Helper()
	p := NewMemPager()
	buf := make([]byte, PageSize)
	for id := 0; id < pages; id++ {
		for off := range buf {
			buf[off] = pageByte(uint32(id), off)
		}
		if err := p.WritePage(uint32(id), buf); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestMissPathAllocatesNothing: once a shard is full, a miss reads into the
// frame it evicts — ReadAt does not allocate on a pool that misses on every
// access.
func TestMissPathAllocatesNothing(t *testing.T) {
	const pages, capacity = 16, 4
	bp := NewBufferPool(patternedPager(t, pages), capacity)
	dst := make([]byte, 64)
	next := uint32(0)
	read := func() {
		if err := bp.ReadAt(next%pages, 100, dst); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 2*pages; i++ {
		read() // fill the shard and size its map
	}
	before := bp.Stats()
	if n := testing.AllocsPerRun(200, read); n != 0 {
		t.Errorf("ReadAt miss on a full pool: %v allocs, want 0", n)
	}
	if st := bp.Stats().Sub(before); st.Hits != 0 || st.Misses != st.Touched || st.Evicted != st.Misses {
		t.Fatalf("the cyclic sweep must miss and evict every time: %+v", st)
	}
	checkEveryAccessCounted(t, bp.Stats())
	if bp.Resident() != capacity {
		t.Fatalf("resident %d, want %d", bp.Resident(), capacity)
	}
}

// TestCopyOutStress mixes the two kinds of pool client under constant
// eviction: ReadInto readers (copy out, their frames are reused) and
// PageData alias holders (their frames must never be rewritten). Every byte
// copied out is checked, and every alias must still read its own page after
// 10 x capacity further misses. Run under -race.
func TestCopyOutStress(t *testing.T) {
	const pages, capacity = 96, 16
	pager := patternedPager(t, pages)
	s := &Store{pager: pager, pool: NewBufferPool(pager, capacity), sealed: true}
	if s.pool.Shards() < 2 {
		t.Fatalf("want a sharded pool, got %d shards", s.pool.Shards())
	}
	check := func(what string, id uint32, off int, got []byte) bool {
		for i, b := range got {
			if b != pageByte(id+uint32((off+i)/PageSize), (off+i)%PageSize) {
				t.Errorf("%s: page %d byte %d is %d", what, id, off+i, b)
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // readers: segments of up to three pages
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var buf []byte
			for i := 0; i < 1500; i++ {
				ref := SegRef{Page: uint32(rng.Intn(pages - 3)), Off: uint32(rng.Intn(PageSize)), Len: uint32(1 + rng.Intn(2*PageSize))}
				var err error
				if buf, err = s.ReadInto(ref, buf[:0]); err != nil {
					t.Error(err)
					return
				}
				if len(buf) != int(ref.Len) || !check("ReadInto", ref.Page, int(ref.Off), buf) {
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // alias holders
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			var one [1]byte
			for i := 0; i < 30; i++ {
				id := uint32(rng.Intn(pages))
				alias, err := s.PageData(id)
				if err != nil {
					t.Error(err)
					return
				}
				// Sweep the other pages: each ReadPage is a miss or keeps
				// some other reader missing, and page id is evicted on the way.
				for n, p := 0, id+1; n < 10*capacity; n, p = n+1, p+1 {
					if err := s.ReadPage(p%pages, one[:]); err != nil {
						t.Error(err)
						return
					}
					if one[0] != pageByte(p%pages, 0) {
						t.Errorf("ReadPage: page %d byte 0 is %d", p%pages, one[0])
						return
					}
				}
				if len(alias) != PageSize || !check("alias", id, 0, alias) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Evicted == 0 || st.Hits == 0 {
		t.Fatalf("expected hits and evictions: %+v", st)
	}
	checkEveryAccessCounted(t, s.Stats())
	if s.pool.Resident() > s.pool.Capacity() {
		t.Fatalf("resident %d > capacity %d", s.pool.Resident(), s.pool.Capacity())
	}
}

// flakyPager fails reads while fail is set.
type flakyPager struct {
	Pager
	fail atomic.Bool
}

var errFlaky = errors.New("injected read failure")

func (p *flakyPager) ReadPage(id uint32, buf []byte) error {
	if p.fail.Load() {
		buf[0] ^= 0xff // a failed read may have scribbled on the frame
		return errFlaky
	}
	return p.Pager.ReadPage(id, buf)
}

// TestReadErrorOnReusePath: a pager failure while reading into an evicted
// frame surfaces as the read's error and costs exactly the victim's page —
// the shard stays consistent and serves correct bytes afterwards.
func TestReadErrorOnReusePath(t *testing.T) {
	pager := &flakyPager{Pager: patternedPager(t, 6)}
	bp := NewBufferPool(pager, 2)
	var b [1]byte
	read := func(id uint32) error { return bp.ReadAt(id, 0, b[:]) }
	for _, id := range []uint32{0, 1} {
		if err := read(id); err != nil {
			t.Fatal(err)
		}
	}
	pager.fail.Store(true)
	if err := read(2); !errors.Is(err, errFlaky) {
		t.Fatalf("ReadAt on a failing pager: %v", err)
	}
	if r := bp.Resident(); r != 1 {
		t.Fatalf("resident %d after a failed read into the victim's frame, want 1", r)
	}
	if _, err := bp.Get(5); !errors.Is(err, errFlaky) { // below capacity now: no victim
		t.Fatalf("Get on a failing pager: %v", err)
	}
	pager.fail.Store(false)
	// The failed read on the full shard cost its victim, page 0, and nothing
	// else; no failed page is resident, and everything reads back correctly.
	before := bp.Stats()
	for id := uint32(0); id < 6; id++ {
		if err := read(id); err != nil {
			t.Fatal(err)
		}
		if b[0] != pageByte(id, 0) {
			t.Fatalf("page %d reads %d after the failures, want %d", id, b[0], pageByte(id, 0))
		}
	}
	if st := bp.Stats().Sub(before); st.Hits != 1 || st.Misses != 5 {
		t.Fatalf("only page 1 should have survived the failures: want 1 hit and 5 misses, got %+v", st)
	}
	checkEveryAccessCounted(t, bp.Stats()) // failed reads included
	if bp.Resident() != bp.Capacity() {
		t.Fatalf("resident %d, want %d", bp.Resident(), bp.Capacity())
	}
}

// checkEveryAccessCounted asserts that every logical page access was served
// from a frame or by the pager, and nothing else was counted: a pool loads a
// page only because a reader asked for it.
func checkEveryAccessCounted(t *testing.T, st PoolStats) {
	t.Helper()
	if st.Hits+st.Misses != st.Touched {
		t.Fatalf("hits %d + misses %d != touched %d", st.Hits, st.Misses, st.Touched)
	}
}
