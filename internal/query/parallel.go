package query

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// CloneableEngine is an Engine that can spawn independent copies sharing
// its immutable index structures. All engines in this repository implement
// it: index structures are read-only after build, and the shared storage
// layer (buffer pool, decoded-structure caches) is concurrency-safe, so
// clones may run in parallel.
type CloneableEngine interface {
	Engine
	Clone() Engine
}

// ParallelEngine serves queries across a fixed pool of engine clones, one
// per worker, so throughput scales with cores while each clone keeps its
// allocation-free scratch. It implements Engine (single queries borrow a
// clone from the pool) and adds SearchAll for fan-out over a whole batch.
// All serving methods are safe for concurrent use; the Set* configuration
// methods must be called before serving starts.
//
// When the pooled engine implements BatchKeyer, SearchAll additionally
// plans the batch: requests are grouped by spatial locality key and each
// group runs consecutively on one worker (warmed up front when the engine
// also implements SuperbatchWarmer), so N co-located queries fault each
// shared page and decoded structure once instead of N times. Planning only
// changes which worker answers which request — every request still runs
// through the engine's ordinary Search, so responses are byte-identical to
// serial execution. An attached ResultCache (SetResultCache) additionally
// answers repeated requests without searching at all, invalidated by the
// index's mutation epoch.
type ParallelEngine struct {
	name    string
	mem     int64
	workers int
	pool    chan Engine

	// noPlan disables cross-query batch planning (SetBatchPlanning); rcache
	// is the optional shared result cache. Both are serving configuration:
	// set before the first search, immutable afterwards.
	noPlan bool
	rcache *ResultCache
}

// NewParallelEngine builds a pool of workers clones of e. workers <= 0
// selects GOMAXPROCS.
func NewParallelEngine(e CloneableEngine, workers int) *ParallelEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ParallelEngine{
		name:    e.Name(),
		mem:     e.MemBytes(),
		workers: workers,
		pool:    make(chan Engine, workers),
	}
	// The prototype itself becomes the first worker: a fresh clone's
	// scratch is identical to the prototype's, and reusing it means a
	// 1-worker ParallelEngine adds no engine state at all.
	p.pool <- e
	for i := 1; i < workers; i++ {
		p.pool <- e.Clone()
	}
	return p
}

// Name implements Engine.
func (p *ParallelEngine) Name() string { return p.name }

// MemBytes implements Engine. Clones share the index, so the footprint is
// the prototype's.
func (p *ParallelEngine) MemBytes() int64 { return p.mem }

// Workers returns the pool size.
func (p *ParallelEngine) Workers() int { return p.workers }

// SetResultCache attaches (nil detaches) a shared epoch-invalidated result
// cache: requests whose canonical encoding was answered at the current
// mutation epoch return the cached response (Stats = one ResultCacheHit)
// without borrowing search work; misses run normally, are marked with
// ResultCacheMisses in their stats, and populate the cache. Configure
// before serving starts — the field is read without synchronization on
// the hot path.
func (p *ParallelEngine) SetResultCache(rc *ResultCache) { p.rcache = rc }

// ResultCache returns the attached result cache, nil when none.
func (p *ParallelEngine) ResultCache() *ResultCache { return p.rcache }

// SetBatchPlanning enables (the default) or disables SearchAll's
// cross-query grouping. With planning off, requests are handed to workers
// through a plain request cursor in submission order — the pre-planner
// behaviour, kept addressable so benchmarks can measure the sharing win.
// Configure before serving starts.
func (p *ParallelEngine) SetBatchPlanning(on bool) { p.noPlan = !on }

// searchOne answers one request on an already-borrowed engine, going
// through the result cache when one is attached. The epoch tag is read
// before the search runs, so a cached entry can never claim mutations the
// search did not observe (see EpochSource).
func (p *ParallelEngine) searchOne(ctx context.Context, e Engine, req Request) (Response, error) {
	rc := p.rcache
	if rc == nil {
		return e.Search(ctx, req)
	}
	epoch := rc.Epoch()
	if resp, ok := rc.Get(epoch, req); ok {
		return resp, nil
	}
	resp, err := e.Search(ctx, req)
	resp.Stats.ResultCacheMisses++
	if err == nil {
		rc.Put(epoch, req, resp)
	}
	return resp, err
}

// Search implements Engine by borrowing one clone from the pool (waiting
// honors ctx: a request cancelled while queued never runs at all).
func (p *ParallelEngine) Search(ctx context.Context, req Request) (Response, error) {
	select {
	case e := <-p.pool:
		defer func() { p.pool <- e }()
		return p.searchOne(ctx, e, req)
	case <-ctx.Done():
		return Response{Truncated: true}, ctx.Err()
	}
}

// SearchAll answers reqs[i] into the i-th response slot, fanning the batch
// out over the worker pool. The batch is first planned into groups of
// spatially co-located requests when the pooled engine implements
// BatchKeyer (see ParallelEngine's type comment; SetBatchPlanning
// disables it, and engines without a keyer degrade to one-request
// groups); groups are handed to workers through a single atomic cursor,
// so a slow group never stalls the rest of the batch. On the first
// failure (by request index) the remaining requests are abandoned;
// likewise, once ctx is cancelled no further request starts and the
// in-flight ones return early at their next batch boundary — including
// mid-group. Per-request accounting is in each Response.Stats.
func (p *ParallelEngine) SearchAll(ctx context.Context, reqs []Request) ([]Response, error) {
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	workers := p.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}

	groups := p.planAll(reqs)

	var cursor atomic.Int64
	var failed atomic.Bool
	type werr struct {
		qi  int
		err error
	}
	errs := make([]werr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := <-p.pool
			defer func() { p.pool <- e }()
			errs[w].qi = -1
			var warmBuf []Request
			for !failed.Load() && ctx.Err() == nil {
				gi := int(cursor.Add(1)) - 1
				if gi >= len(groups) {
					break
				}
				group := groups[gi]
				warmBuf = p.warmGroup(e, reqs, group, warmBuf)
				for _, qi := range group {
					if failed.Load() || ctx.Err() != nil {
						break
					}
					resp, err := p.searchOne(ctx, e, reqs[qi])
					out[qi] = resp
					if err != nil {
						errs[w] = werr{qi: qi, err: err}
						failed.Store(true)
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()

	first := werr{qi: -1}
	for _, we := range errs {
		if we.err != nil && (first.qi < 0 || we.qi < first.qi) {
			first = we
		}
	}
	if first.err != nil {
		return out, fmt.Errorf("query %d: %w", first.qi, first.err)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}
