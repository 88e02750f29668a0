package storage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestMemPagerBasics(t *testing.T) {
	p := NewMemPager()
	if err := p.WritePage(0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(1, bytes.Repeat([]byte{7}, PageSize)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := p.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) != "hello" || buf[5] != 0 {
		t.Fatalf("page 0 content %q", buf[:8])
	}
	if p.PageCount() != 2 {
		t.Fatalf("count = %d", p.PageCount())
	}
	if err := p.ReadPage(5, buf); err == nil {
		t.Fatal("read of unallocated page must fail")
	}
	if err := p.WritePage(7, nil); err == nil {
		t.Fatal("non-contiguous write must fail")
	}
	if err := p.WritePage(0, make([]byte, PageSize+1)); err == nil {
		t.Fatal("oversized write must fail")
	}
}

func TestFilePagerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := NewFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 5; i++ {
		page := bytes.Repeat([]byte{byte(i + 1)}, 100*(i+1))
		if err := p.WritePage(uint32(i), page); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)
	for i := 0; i < 5; i++ {
		if err := p.ReadPage(uint32(i), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) || buf[100*(i+1)-1] != byte(i+1) || buf[100*(i+1)] != 0 {
			t.Fatalf("page %d corrupted", i)
		}
	}
	if err := p.ReadPage(9, buf); err == nil {
		t.Fatal("unallocated read must fail")
	}
}

func TestBufferPoolLRUAndStats(t *testing.T) {
	p := NewMemPager()
	for i := 0; i < 4; i++ {
		if err := p.WritePage(uint32(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(p, 2)
	get := func(id uint32) byte {
		data, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return data[0]
	}
	get(0) // miss
	get(1) // miss
	get(0) // hit
	get(2) // miss, evicts 1 (LRU)
	get(1) // miss again
	st := bp.Stats()
	if st.Touched != 5 || st.Hits != 1 || st.Misses != 4 || st.Evicted < 2 {
		t.Fatalf("stats = %+v", st)
	}
	if bp.Resident() != 2 || bp.Capacity() != 2 {
		t.Fatalf("resident=%d capacity=%d", bp.Resident(), bp.Capacity())
	}
	// Snapshot arithmetic for per-query accounting.
	snap := bp.Stats()
	get(0)
	diff := bp.Stats().Sub(snap)
	if diff.Touched != 1 {
		t.Fatalf("diff = %+v", diff)
	}
	bp.Reset()
	if bp.Stats().Touched != 0 || bp.Resident() != 0 {
		t.Fatal("reset must clear everything")
	}
}

func TestStoreRoundTripAcrossPages(t *testing.T) {
	s := NewMemStore(4)
	rng := rand.New(rand.NewSource(3))
	var blobs [][]byte
	var refs []SegRef
	for i := 0; i < 200; i++ {
		blob := make([]byte, rng.Intn(3*PageSize))
		rng.Read(blob)
		ref, err := s.Append(blob)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		refs = append(refs, ref)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// Random-order reads: every blob must round-trip exactly.
	for _, i := range rng.Perm(len(blobs)) {
		got, err := s.Read(refs[i])
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("blob %d mismatch (%d vs %d bytes)", i, len(got), len(blobs[i]))
		}
	}
	if s.Stats().Touched == 0 {
		t.Fatal("reads must be accounted")
	}
	if s.DiskBytes() <= 0 || s.Pages() == 0 {
		t.Fatal("disk accounting broken")
	}
}

func TestStoreSealSemantics(t *testing.T) {
	s := NewMemStore(2)
	ref, err := s.Append([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal("Seal must be idempotent")
	}
	if _, err := s.Append([]byte("more")); err == nil {
		t.Fatal("append after seal must fail")
	}
	got, err := s.Read(ref)
	if err != nil || string(got) != "abc" {
		t.Fatalf("read = %q, %v", got, err)
	}
	// Empty segment.
	if got, err := s.Read(SegRef{}); err != nil || got != nil {
		t.Fatalf("empty segment read = %v, %v", got, err)
	}
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	s, err := NewFileStore(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte("xyz"), 4000) // spans multiple pages
	ref, err := s.Append(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(ref)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("file store round trip failed: %v", err)
	}
}
