package query

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelEngine fans request batches out over workers goroutines that
// share one engine — every engine is safe for concurrent Search, checking
// its scratch out per search — so throughput scales with cores. It
// implements Engine (a single query goes straight to the engine) and adds
// SearchAll for fan-out over a whole batch. All serving methods are safe
// for concurrent use; the Set* configuration methods must be called before
// serving starts.
//
// When the engine implements BatchKeyer, SearchAll additionally plans the
// batch: requests are grouped by spatial locality key and each group runs
// consecutively on one worker (warmed up front when the engine also
// implements SuperbatchWarmer), so N co-located queries fault each shared
// page and decoded structure once instead of N times. Planning only
// changes which worker answers which request — every request still runs
// through the engine's ordinary Search, so responses are byte-identical to
// serial execution. An attached ResultCache (SetResultCache) additionally
// answers repeated requests without searching at all, invalidated by the
// index's mutation epoch.
type ParallelEngine struct {
	e       Engine
	workers int

	// noPlan disables cross-query batch planning (SetBatchPlanning); rcache
	// is the optional shared result cache. Both are serving configuration:
	// set before the first search, immutable afterwards.
	noPlan bool
	rcache *ResultCache
}

// NewParallelEngine serves e with SearchAll batches spread over workers
// goroutines. workers <= 0 selects GOMAXPROCS.
func NewParallelEngine(e Engine, workers int) *ParallelEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelEngine{e: e, workers: workers}
}

// Name implements Engine.
func (p *ParallelEngine) Name() string { return p.e.Name() }

// MemBytes implements Engine: the engine's footprint.
func (p *ParallelEngine) MemBytes() int64 { return p.e.MemBytes() }

// Workers returns the number of goroutines SearchAll fans out over.
func (p *ParallelEngine) Workers() int { return p.workers }

// SetResultCache attaches (nil detaches) a shared epoch-invalidated result
// cache: requests whose canonical encoding was answered at the current
// mutation epoch return the cached response (Stats = one ResultCacheHit)
// without searching; misses run normally, are marked with
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

// Search implements Engine: one request on the engine, going through the
// result cache when one is attached. The epoch tag is read before the
// search runs, so a cached entry can never claim mutations the search did
// not observe (see EpochSource).
func (p *ParallelEngine) Search(ctx context.Context, req Request) (Response, error) {
	rc := p.rcache
	if rc == nil {
		return p.e.Search(ctx, req)
	}
	epoch := rc.Epoch()
	if resp, ok := rc.Get(epoch, req); ok {
		return resp, nil
	}
	resp, err := p.e.Search(ctx, req)
	resp.Stats.ResultCacheMisses++
	if err == nil {
		rc.Put(epoch, req, resp)
	}
	return resp, err
}

// SearchAll answers reqs[i] into the i-th response slot, fanning the batch
// out over the workers. The batch is first planned into groups of
// spatially co-located requests when the engine implements
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
			errs[w].qi = -1
			var warmBuf []Request
			for !failed.Load() && ctx.Err() == nil {
				gi := int(cursor.Add(1)) - 1
				if gi >= len(groups) {
					break
				}
				group := groups[gi]
				warmBuf = p.warmGroup(reqs, group, warmBuf)
				for _, qi := range group {
					if failed.Load() || ctx.Err() != nil {
						break
					}
					resp, err := p.Search(ctx, reqs[qi])
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
