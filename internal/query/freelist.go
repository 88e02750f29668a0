package query

import "sync"

// FreeList is the per-engine store of search scratch that lets one engine
// serve concurrent searches: a search checks a value out when it starts and
// returns it when it ends, so an engine holds as many scratch sets as it
// has ever run searches at once, and a warm checkout allocates nothing. It
// is a LIFO — the most recently returned value, whose memory is warmest,
// serves next — and a mutex over a slice rather than a sync.Pool, because
// a sync.Pool drops its entries at every GC and an engine's scratch holds
// stamp arrays sized to the corpus.
//
// New builds a value when the list is empty; set it before the first Get.
type FreeList[T any] struct {
	New  func() T
	mu   sync.Mutex
	free []T
}

// Get checks a value out, building one when none is free.
func (f *FreeList[T]) Get() T {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return x
	}
	f.mu.Unlock()
	return f.New()
}

// Put returns a value checked out with Get. The caller must hold no
// reference into it afterwards: the next Get hands it to another search.
func (f *FreeList[T]) Put(x T) {
	f.mu.Lock()
	f.free = append(f.free, x)
	f.mu.Unlock()
}
