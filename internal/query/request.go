package query

import (
	"context"
	"errors"
	"math"

	"activitytraj/internal/geo"
)

var (
	errSpanWithoutSubtrajectory = errors.New("query: MinSpanPoints/MaxSpanPoints require Subtrajectory")
	errNegativeSpan             = errors.New("query: negative span limit")
	errSpanMinOverMax           = errors.New("query: MinSpanPoints exceeds MaxSpanPoints")
)

// Request describes one search: the query itself, the result count, the
// ATSQ/OATSQ mode, and the per-request options every engine honors. The
// zero value of each option selects the engine's default behaviour, so
// Request{Query: q, K: k} is the paper's plain ATSQ: top-k by minimum match
// distance over whole trajectories, unbounded, unfiltered, run to completion.
type Request struct {
	// Query is the sequence of query locations with desired activities.
	Query Query
	// K is the number of results wanted (values < 1 are treated as 1).
	K int
	// Ordered selects the order-sensitive OATSQ distance Dmom instead of
	// the minimum match distance Dmm.
	Ordered bool

	// InitialBound, when > 0, seeds the Algorithm-2 pruning threshold: the
	// search behaves as if a k-th result at this distance were already
	// known, so candidates and shards strictly beyond it are pruned from
	// the first batch on. It composes with any engine-attached BoundSink —
	// the effective threshold is the minimum of the local k-th distance,
	// the shared global bound and InitialBound. Results farther than
	// InitialBound are excluded, so fewer than K results may return; the
	// results within the bound are exact.
	InitialBound float64

	// Region, when non-nil, restricts matching spatially: only trajectory
	// points inside Region may satisfy query activities, and trajectories
	// with no qualifying match are excluded. The GAT engines prune
	// out-of-region cells during candidate retrieval and the sharded
	// planner skips non-intersecting shards; the baselines post-filter
	// candidate rows. All engines return identical results for the same
	// Region.
	Region *geo.Rect

	// WithMatches asks for Result.Matches: for every result, the per-query-
	// point trajectory point indexes forming the minimal match the reported
	// distance is built from. Computing them re-reads the k result
	// trajectories once after the search, so it adds a small per-result
	// cost but never touches the per-candidate hot path.
	WithMatches bool

	// RequireComplete fails the search instead of degrading it: a serving
	// tier that would otherwise answer with a partial top-k (some shards
	// unreachable, Response.Partial set) returns an error. Single-process
	// engines always see every shard, so they ignore the flag — their
	// responses are complete by construction.
	RequireComplete bool

	// Subtrajectory switches a candidate's distance from the whole
	// trajectory to the best contiguous portion of it: the minimum over
	// contiguous point spans [s, e] of the (Ordered or not) match distance
	// computed as if only the span's points existed. MinSpanPoints and
	// MaxSpanPoints (0 = unlimited) bound the allowed span length e-s+1.
	// With both unset a whole-trajectory span is always allowed, so every
	// distance is <= the classic one. Combine with WithMatches to learn the
	// winning span: Response.Spans reports each result's [start, end] point
	// indexes alongside the per-query-point covers in Response.Matches.
	Subtrajectory bool
	// MinSpanPoints, when > 0, excludes spans of fewer points. A trajectory
	// shorter than MinSpanPoints has no legal span and is excluded entirely.
	// Only meaningful with Subtrajectory.
	MinSpanPoints int
	// MaxSpanPoints, when > 0, excludes spans of more points. Only
	// meaningful with Subtrajectory.
	MaxSpanPoints int
}

// ValidateSpan checks the subtrajectory options for internal consistency.
// Every engine calls it up front so malformed requests fail identically
// across tiers rather than silently diverging.
func (r Request) ValidateSpan() error {
	if !r.Subtrajectory {
		if r.MinSpanPoints != 0 || r.MaxSpanPoints != 0 {
			return errSpanWithoutSubtrajectory
		}
		return nil
	}
	if r.MinSpanPoints < 0 || r.MaxSpanPoints < 0 {
		return errNegativeSpan
	}
	if r.MaxSpanPoints > 0 && r.MinSpanPoints > r.MaxSpanPoints {
		return errSpanMinOverMax
	}
	return nil
}

// Bound returns the effective initial pruning threshold: InitialBound when
// set (> 0), +Inf otherwise.
func (r Request) Bound() float64 {
	if r.InitialBound > 0 {
		return r.InitialBound
	}
	return math.Inf(1)
}

// Response is one search's complete answer.
type Response struct {
	// Results is the top-k in ascending (Dist, ID) order.
	Results []Result
	// Matches, filled only when Request.WithMatches is set, is parallel to
	// Results: Matches[i][p] holds the ascending trajectory point indexes
	// of Results[i] forming query point p's part of the minimal match
	// behind Results[i].Dist (empty for a query point with no activity
	// requirement; for Ordered requests the covers comply with the query
	// order, consecutive covers possibly sharing one boundary point).
	Matches [][][]int32
	// Spans, filled only when both Request.Subtrajectory and WithMatches
	// are set, is parallel to Results: Spans[i] is the [start, end]
	// trajectory point index pair (inclusive) of the winning span behind
	// Results[i].Dist — the tight hull of Matches[i]'s covers. A result
	// whose query has no activity requirement at all gets the empty span
	// {0, -1}.
	Spans [][2]int32
	// Stats itemizes where this search's work went. It is per-request and
	// in-band, so it stays exact under concurrent serving.
	Stats SearchStats
	// Truncated is true when the search stopped early because its context
	// was cancelled or its deadline expired. Results then holds whatever
	// the search had fully scored so far (possibly nothing) and the
	// accompanying error is the context's.
	Truncated bool
	// Partial is true when the answer deliberately excludes one or more
	// shards whose every replica was unreachable (degraded serving, see
	// Stats.ShardsFailed). The results are still the exact top-k over the
	// shards that DID answer — never a guess — but trajectories owned by
	// the failed shards could not be considered. Single-process engines
	// never set it.
	Partial bool
}

// SpansFromMatches derives Response.Spans from Response.Matches: for each
// result the tight [min, max] hull over all its covers' point indexes.
// Every tier computes spans this way from identical covers, which is what
// keeps subtrajectory responses byte-identical across single index,
// sharded, and cluster serving. A result with no matched point (query
// without activity requirements) gets {0, -1}.
func SpansFromMatches(matches [][][]int32) [][2]int32 {
	if matches == nil {
		return nil
	}
	spans := make([][2]int32, len(matches))
	for i, covers := range matches {
		lo, hi := int32(math.MaxInt32), int32(-1)
		for _, c := range covers {
			for _, idx := range c {
				if idx < lo {
					lo = idx
				}
				if idx > hi {
					hi = idx
				}
			}
		}
		if hi < 0 {
			spans[i] = [2]int32{0, -1}
		} else {
			spans[i] = [2]int32{lo, hi}
		}
	}
	return spans
}

// Engine is the contract every search method implements.
//
// Every engine is safe for concurrent Search: per-search state lives in
// scratch the engine checks out of its FreeList when a search starts and
// returns when it ends, so any number of goroutines may share one engine.
type Engine interface {
	// Name returns the short method name used in experiment output
	// ("GAT", "IL", "RT", "IRT", ...).
	Name() string
	// Search answers req, honoring ctx: cancellation is checked between
	// candidate batches (never per candidate, keeping the hot path clean),
	// and an already-expired context returns before any disk page is
	// touched. On cancellation the Response carries the partial results
	// with Truncated set, alongside ctx's error.
	Search(ctx context.Context, req Request) (Response, error)
	// MemBytes reports the engine's in-memory index footprint (excluding
	// the shared on-disk trajectory store).
	MemBytes() int64
}
