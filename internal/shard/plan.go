package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// Bounds is the grown-only bounding rectangle of every point a shard has
// ever held — the planner's view of a shard, wherever the shard lives. It
// is extended on insert and never shrunk: a stale-but-larger rectangle only
// weakens pruning, never correctness. Safe for concurrent use.
type Bounds struct {
	mu   sync.RWMutex
	rect geo.Rect
	ok   bool
}

// Rect returns the rectangle and whether any point was ever added.
func (b *Bounds) Rect() (geo.Rect, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.rect, b.ok
}

// ExtendRect grows the bounds to cover r.
func (b *Bounds) ExtendRect(r geo.Rect) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ok {
		r = b.rect.Union(r)
	}
	b.rect, b.ok = r, true
}

// Extend grows the bounds to cover every point of pts.
func (b *Bounds) Extend(pts []trajectory.Point) {
	if len(pts) == 0 {
		return
	}
	r := geo.RectFromPoint(pts[0].Loc)
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p.Loc)
	}
	b.ExtendRect(r)
}

// QueryLB returns a lower bound on the match distance of ANY trajectory
// inside the bounds: each query point must match some trajectory point,
// every point lies inside the rectangle, and both Dmm and Dmom sum the
// per-query-point distances, so Σ MinDist(q_i, rect) lower-bounds both.
// Empty bounds hold nothing and return +Inf.
func (b *Bounds) QueryLB(pts []geo.Point) float64 {
	rect, ok := b.Rect()
	if !ok {
		return math.Inf(1)
	}
	var sum float64
	for _, p := range pts {
		sum += rect.MinDist(p)
	}
	return sum
}

// Leg is one shard of a scatter-gather search as the Planner sees it: where
// the shard's points lie, and how to search it. The in-process Engine and
// the cluster router each supply their own.
type Leg interface {
	// Bounds returns the shard's planning rectangle.
	Bounds() *Bounds
	// Search runs req (validated, K >= 1) on the shard, offering every
	// result under its GLOBAL trajectory ID to shared, whose threshold is the
	// running global k-th distance the leg may prune against. A failure the
	// search can degrade around is reported as *LegDownError; any other
	// error aborts the whole search.
	Search(ctx context.Context, req query.Request, shared *query.SharedTopK) (query.SearchStats, error)
}

// LegDownError marks a leg whose shard could not be reached at all (every
// replica failed) — the degradable failure class, as opposed to a permanent
// error like a malformed request, which every shard would answer alike.
type LegDownError struct{ Cause error }

func (e *LegDownError) Error() string { return fmt.Sprintf("all replicas failed: %v", e.Cause) }
func (e *LegDownError) Unwrap() error { return e.Cause }

// IncompleteError reports a search that could not cover every shard while
// the request demanded completeness (Request.RequireComplete): shard Shard
// was down. Servers map it to 503.
type IncompleteError struct {
	Shard int
	Cause error
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("shard %d unavailable and request requires complete results: %v", e.Shard, e.Cause)
}

func (e *IncompleteError) Unwrap() error { return e.Cause }

// Planner is the scatter-gather wave planner shared by every sharded tier.
// The per-shard lower bound Σ MinDist(q_i, shard bounds) first selects the
// nearest shards (every shard the query's envelope intersects has bound 0).
// Those legs run concurrently, feeding one SharedTopK whose running k-th
// distance tightens each in-flight leg. The remaining shards are then
// visited in ascending bound order and launched only while their bound does
// not exceed the global threshold — the query's reachable radius. Because
// the threshold is monotone non-increasing and every skipped shard's bound
// strictly exceeds it, skipped shards provably hold no top-k member, so
// results are exactly the single-index engine's.
//
// A Planner holds reusable scratch and serves one search at a time; the
// zero value is ready to use.
type Planner struct {
	plans []legPlan
	locs  []geo.Point
}

type legPlan struct {
	li int
	lb float64
}

// Search plans and runs req over legs and merges the global top-k. K < 1
// is treated as 1 (the query.Request contract). Legs whose bounds miss
// req.Region are never searched, req.InitialBound caps the reachable radius
// from the first wave on, and ctx flows into every leg: once it is
// cancelled or a leg fails permanently, the in-flight siblings are
// cancelled too. On cancellation the results gathered so far come back with
// Truncated set, alongside ctx's error. A leg that is down degrades the
// answer to Partial (Stats.ShardsFailed counts them) — still the exact
// top-k over the legs that answered — unless req.RequireComplete, which
// fails closed with *IncompleteError.
func (p *Planner) Search(ctx context.Context, req query.Request, legs []Leg) (query.Response, error) {
	if err := req.Query.Validate(); err != nil {
		return query.Response{}, err
	}
	if err := req.ValidateSpan(); err != nil {
		return query.Response{}, err
	}
	if err := ctx.Err(); err != nil {
		return query.Response{Truncated: true}, err
	}
	req.K = max(req.K, 1)

	locs := p.locs[:0]
	for _, pt := range req.Query.Pts {
		locs = append(locs, pt.Loc)
	}
	p.locs = locs
	plans := p.plans[:0]
	for li, leg := range legs {
		lb := leg.Bounds().QueryLB(locs)
		if req.Region != nil {
			// A shard disjoint from the region holds no point that may
			// match; plan it as unreachable.
			if b, ok := leg.Bounds().Rect(); !ok || !b.Intersects(*req.Region) {
				lb = math.Inf(1)
			}
		}
		plans = append(plans, legPlan{li: li, lb: lb})
	}
	p.plans = plans
	slices.SortFunc(plans, func(a, b legPlan) int {
		switch {
		case a.lb < b.lb:
			return -1
		case a.lb > b.lb:
			return 1
		default:
			return a.li - b.li
		}
	})

	// Legs share a derived context: the first failure (or the caller hanging
	// up) cancels every in-flight sibling. The join wrapper additionally
	// makes the caller's cancellation visible to legs that poll Err() the
	// moment it happens (a non-standard parent context only reaches cctx
	// through a watcher goroutine, a delay the per-batch polls would miss).
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lctx := joinedCtx{Context: cctx, parent: ctx}

	bound := req.Bound()
	shared := query.NewSharedTopK(req.K)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		agg      query.SearchStats
		firstErr error
		searched int
	)
	run := func(li int) {
		searched++
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := legs[li].Search(lctx, req, shared)
			mu.Lock()
			defer mu.Unlock()
			agg.Add(st)
			if err == nil {
				return
			}
			var down *LegDownError
			switch {
			case ctx.Err() != nil:
				// The caller hung up (or its deadline fired): that is a
				// truncation, not a leg fault.
				err = ctx.Err()
			case errors.As(err, &down):
				agg.ShardsFailed++
				if !req.RequireComplete {
					return
				}
				err = &IncompleteError{Shard: li, Cause: down.Cause}
			}
			if firstErr == nil {
				firstErr = err
				cancel()
			}
		}()
	}

	// Wave 1: every leg at the minimum bound (all intersecting shards when
	// the query envelope overlaps any), unless the initial bound already
	// rules them out. Wave 2: the rest in ascending bound order, pruned
	// against the now-populated global threshold capped by the initial
	// bound; the bounds are sorted and the threshold only tightens, so the
	// first over-threshold leg ends the scan.
	if len(plans) > 0 && !math.IsInf(plans[0].lb, 1) && plans[0].lb <= bound {
		i := 0
		for ; i < len(plans) && plans[i].lb == plans[0].lb; i++ {
			run(plans[i].li)
		}
		wg.Wait()
		if firstErr == nil && lctx.Err() == nil {
			for ; i < len(plans); i++ {
				if math.IsInf(plans[i].lb, 1) || plans[i].lb > min(shared.Threshold(), bound) {
					break
				}
				run(plans[i].li)
			}
			wg.Wait()
		}
	}

	agg.ShardsSearched = searched
	agg.ShardsSkipped = len(plans) - searched
	if firstErr == nil {
		// Cancellation between the waves skips wave-2 legs that may hold
		// better matches; the merge is then incomplete and must be reported
		// truncated, never as an exact success.
		firstErr = ctx.Err()
	}
	switch {
	case firstErr == nil:
		return query.Response{Results: shared.Results(), Stats: agg, Partial: agg.ShardsFailed > 0}, nil
	case errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded):
		return query.Response{Results: shared.Results(), Stats: agg, Truncated: true}, firstErr
	default:
		return query.Response{Stats: agg}, firstErr
	}
}

// joinedCtx is a derived cancellable context whose Err() also polls the
// parent directly, so legs observe the caller's cancellation at their very
// next check whatever kind of context the caller passed.
type joinedCtx struct {
	context.Context // the planner-owned child of parent (Done, Deadline, Value)
	parent          context.Context
}

func (j joinedCtx) Err() error {
	if err := j.parent.Err(); err != nil {
		return err
	}
	return j.Context.Err()
}
