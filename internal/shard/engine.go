package shard

import (
	"context"
	"errors"
	"fmt"

	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// Engine serves exact global top-k queries over a Router's shards with a
// scatter-gather search. It is safe for concurrent use: each search checks
// a fan-out — a Planner and one in-process Leg per shard — out of the
// engine's free list, and one search fans out across the planned shards,
// each searched on the shard's own delta engine. Planning, bound sharing
// and the exactness argument are the Planner's; the engine supplies the
// legs and resolves matches after the merge.
type Engine struct {
	r       *Router
	scratch query.FreeList[*fanout]
}

// fanout is one search's scratch: the planner and a leg per shard, each
// with the sink that translates its results to global IDs.
type fanout struct {
	planner Planner
	legs    []Leg
}

// NewEngine returns a scatter-gather engine over the router's shards.
func (r *Router) NewEngine() *Engine {
	e := &Engine{r: r}
	e.scratch.New = func() *fanout {
		f := &fanout{legs: make([]Leg, len(r.shards))}
		for i, sh := range r.shards {
			f.legs[i] = &localLeg{sh: sh}
		}
		return f
	}
	return e
}

// Name implements query.Engine.
func (e *Engine) Name() string { return fmt.Sprintf("GATx%d", len(e.r.shards)) }

// MemBytes implements query.Engine: the sum of the shard indexes.
func (e *Engine) MemBytes() int64 {
	var n int64
	for _, sh := range e.r.shards {
		n += sh.eng.MemBytes()
	}
	return n
}

// Search implements query.Engine over the sharded corpus through the
// shared Planner (see Planner.Search for how the request's options, ctx and
// cancellation are honored).
func (e *Engine) Search(ctx context.Context, req query.Request) (query.Response, error) {
	f := e.scratch.Get()
	resp, err := f.planner.Search(ctx, req, f.legs)
	e.scratch.Put(f)
	if err != nil || !req.WithMatches {
		return resp, err
	}
	resp.Matches, err = e.fillMatches(ctx, req, resp.Results, &resp.Stats)
	if req.Subtrajectory {
		resp.Spans = query.SpansFromMatches(resp.Matches)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Cancelled mid-fill: the matches are incomplete even though the
		// result set itself is final.
		resp.Truncated = true
	}
	return resp, err
}

// localLeg is the in-process Leg: one shard's delta engine, searched with
// the shared bound passed in.
type localLeg struct {
	sh   *Shard
	sink translatingSink
}

func (l *localLeg) Bounds() *Bounds { return &l.sh.bounds }

// Search holds the shard's ID-map read lock for the duration so every
// trajectory the search can observe has its global mapping in place.
// Matches are resolved after the merge (Engine.fillMatches), for the
// surviving results only.
func (l *localLeg) Search(ctx context.Context, req query.Request, shared *query.SharedTopK) (query.SearchStats, error) {
	l.sh.idmu.RLock()
	defer l.sh.idmu.RUnlock()
	l.sink = translatingSink{shared: shared, ids: l.sh.globalIDs}
	req.WithMatches, req.RequireComplete = false, false
	resp, err := l.sh.eng.SearchShared(ctx, req, &l.sink)
	return resp.Stats, err
}

// ScoreOne scores a single GLOBAL trajectory ID against req with an exact
// pruning threshold (see delta.Engine.ScoreOne): the ID is routed back to
// its owning shard, whose delta engine scores the shard-local trajectory. ok
// is false for unknown IDs, recovery holes, tombstoned trajectories, and
// candidates the matcher abandoned for strictly exceeding threshold. The
// subscription hub's insert path uses it to test one trajectory against a
// standing query without a scatter-gather search.
func (e *Engine) ScoreOne(req query.Request, gid trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, bool, error) {
	si, local, ok := e.r.Owner(gid)
	if !ok {
		return 0, false, nil
	}
	return e.r.shards[si].eng.ScoreOne(req, local, threshold, stats)
}

// fillMatches answers Request.WithMatches after the scatter-gather merge:
// each global result is routed back to its owning shard, whose delta engine
// re-derives the matched point indexes from the shard-local trajectory
// under the request's Region and span options. Fetch traffic is added to
// stats.
func (e *Engine) fillMatches(ctx context.Context, req query.Request, rs []query.Result, stats *query.SearchStats) ([][][]int32, error) {
	out := make([][][]int32, len(rs))
	for i := range rs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		si, local, ok := e.r.Owner(rs[i].ID)
		if !ok {
			return out, fmt.Errorf("shard: result trajectory %d has no owner", rs[i].ID)
		}
		m, err := e.r.shards[si].eng.Matches(req, local, stats)
		if err != nil {
			return out, err
		}
		out[i] = m
	}
	return out, nil
}

// Epoch implements query.EpochSource via the router's composed per-shard
// mutation counter (see Router.Epoch).
func (e *Engine) Epoch() uint64 { return e.r.Epoch() }

// BatchKey implements query.BatchKeyer: the partition-grid Z code of the
// query's first point, so queries scattered to the same shards group
// together and their shard sub-searches reuse each other's faulted pages.
// The partition grid is coarser than each shard's leaf grid, but the Z
// codes still order spatially — enough for a locality hint.
func (e *Engine) BatchKey(q query.Query) uint64 {
	if len(q.Pts) == 0 {
		return 0
	}
	return uint64(e.r.layout.LeafZ(q.Pts[0].Loc))
}

// ResetCaches puts every shard's decoded-structure caches and buffer pool
// in the cold state (the harness calls this between measured runs).
func (e *Engine) ResetCaches() {
	for _, sh := range e.r.shards {
		sh.d.ResetCaches()
	}
}

var _ query.Engine = (*Engine)(nil)
var _ query.EpochSource = (*Engine)(nil)

// translatingSink adapts a shard search's local result stream to the
// shared global top-k: local IDs are translated through the shard's
// (order-preserving) global-ID map before they reach the collector, so
// cross-shard (distance, ID) tie-breaks are decided on global IDs.
type translatingSink struct {
	shared *query.SharedTopK
	ids    []trajectory.TrajID
}

func (t *translatingSink) Offer(r query.Result) {
	// A result without a mapping can only come from a mutation that
	// bypassed the router; dropping it under-reports rather than panicking
	// inside a scatter goroutine and taking the whole server down.
	if int(r.ID) >= len(t.ids) {
		return
	}
	r.ID = t.ids[r.ID]
	t.shared.Offer(r)
}

func (t *translatingSink) Threshold() float64 { return t.shared.Threshold() }
