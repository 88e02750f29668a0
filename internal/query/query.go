// Package query defines the query and result types shared by the GAT engine
// and the three baselines, plus the per-search statistics every engine
// reports so experiments can attribute costs (candidates retrieved,
// containment rejections, disk page reads, ...).
package query

import (
	"fmt"
	"math"

	"activitytraj/internal/geo"
	"activitytraj/internal/trajectory"
)

// Point is one query location q with its desired activity set q.Φ.
type Point struct {
	Loc  geo.Point
	Acts trajectory.ActivitySet
}

// Query is a sequence of query locations. For ATSQ the order is irrelevant;
// for OATSQ the order is the one matches must comply with.
type Query struct {
	Pts []Point
}

// New builds a query from alternating locations and activity sets.
func New(pts ...Point) Query { return Query{Pts: pts} }

// Len returns the number of query locations |Q|.
func (q Query) Len() int { return len(q.Pts) }

// AllActs returns the union Q.Φ of all query activity sets — the set a
// trajectory must fully contain to be a match.
func (q Query) AllActs() trajectory.ActivitySet {
	var u trajectory.ActivitySet
	for _, p := range q.Pts {
		u = u.Union(p.Acts)
	}
	return u
}

// Diameter returns δ(Q), the maximum pairwise distance between query
// locations (Section VII).
func (q Query) Diameter() float64 {
	var d float64
	for i := 0; i < len(q.Pts); i++ {
		for j := i + 1; j < len(q.Pts); j++ {
			if v := geo.Dist(q.Pts[i].Loc, q.Pts[j].Loc); v > d {
				d = v
			}
		}
	}
	return d
}

// Validate reports structural problems: no points, a location that is NaN
// or infinite (it has no distance to compare, so engines would disagree on
// the answer), empty activity sets, or oversized activity sets (Algorithm
// 3's subset DP uses 32-bit masks).
func (q Query) Validate() error {
	if len(q.Pts) == 0 {
		return fmt.Errorf("query: no query points")
	}
	for i, p := range q.Pts {
		if !finite(p.Loc.X) || !finite(p.Loc.Y) {
			return fmt.Errorf("query: point %d location (%v, %v) is not finite", i, p.Loc.X, p.Loc.Y)
		}
		if len(p.Acts) == 0 {
			return fmt.Errorf("query: point %d has no activities", i)
		}
		if len(p.Acts) > 32 {
			return fmt.Errorf("query: point %d has %d activities (max 32)", i, len(p.Acts))
		}
		for k := 1; k < len(p.Acts); k++ {
			if p.Acts[k-1] >= p.Acts[k] {
				return fmt.Errorf("query: point %d activity set not normalized", i)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Result is one entry of a top-k answer. It is deliberately a comparable
// struct (differential tests compare result slices element-wise with ==);
// the per-result match covers requested via Request.WithMatches therefore
// live in Response.Matches, parallel to Results.
type Result struct {
	ID   trajectory.TrajID
	Dist float64
}

// SearchStats records where a query's work went. Engines reset it per search.
//
// CacheHits and CacheMisses count decoded-structure cache lookups: one per
// APL or coordinate fetch, and one per disk-level HICL list resolved. GAT
// resolves a list once per search for each (level, query point activity)
// its expansion reaches and probes the resolved set directly afterwards, so
// the HICL's share does not scale with PQPops.
type SearchStats struct {
	Candidates int // distinct trajectories retrieved as candidates
	// SketchRejected is retired and always 0: it counted rejects by the
	// paper's activity sketch, whose every decision the exact activity
	// directory now makes (APLRejected). It stays because it is a field of
	// the /v1/search stats that routers decode from their nodes.
	SketchRejected  int
	APLRejected     int // candidates lacking a query activity (exact check; GAT screens base candidates in retrieval)
	OrderRejected   int // OATSQ candidates with no order-sensitive match, decided on their posting lists (with a Region: by the MIB filter on the filtered rows)
	Scored          int // candidates that passed validation and were decided against the threshold (BoxScreened included; OrderRejected and SpanRejected are not)
	PQPops          int // priority-queue pops during candidate retrieval
	Batches         int // λ-batches of Algorithm 1
	PageReads       int // simulated disk pages read
	NodesVisited    int // R-tree / IR-tree nodes visited (baselines)
	CacheHits       int // decoded-structure cache hits (HICL lists resolved, APLs)
	CacheMisses     int // decoded-structure cache misses
	DeltaCandidates int // candidates served by the dynamic index's delta layer

	// HeaderOnlyRejects counts base candidates rejected on the store's
	// in-memory activity directory — the same set the APL header lists —
	// before any fetch: such a reject reads no page and makes no cache
	// lookup. (No header-only read exists; the name is kept for the
	// benchmark's probes.)
	HeaderOnlyRejects int

	// BoxScreened counts the Scored base candidates decided on the store's
	// activity boxes alone: their box lower bound already exceeded the
	// pruning threshold, so they scored +Inf without a cache lookup, a page
	// read or a decode. It never exceeds Scored.
	BoxScreened int

	// SpanRejected counts subtrajectory candidates with no window of the
	// allowed span length holding every query activity, decided on their
	// posting lists before a coordinate was fetched. They are not Scored.
	SpanRejected int

	// ShardsSearched counts the shards a sharded engine's router actually
	// fanned the query out to; ShardsSkipped counts the shards its planner
	// pruned (region lower bound above the query's reachable radius — the
	// running global k-th distance). Zero for unsharded engines.
	ShardsSearched int
	ShardsSkipped  int
	// ShardsFailed counts shards whose every replica was unreachable when a
	// cluster router served the query, so their trajectories are missing
	// from the answer (Response.Partial is then set). Zero everywhere else.
	ShardsFailed int
	// BytesDecoded sums the segment bytes actually decoded for this search
	// (posting blocks, coordinate points, HICL lists) — the work the lazy
	// blocked layout avoids compared to eagerly decoding whole segments.
	BytesDecoded int64

	// ResultCacheHits counts requests answered from an epoch-invalidated
	// ResultCache without running a search at all; ResultCacheMisses counts
	// cache probes that fell through to a real search. Both stay zero when
	// no result cache is attached. A hit's Response.Stats carries ONLY the
	// hit marker — the cached search's original work is not replayed into
	// the serving request's accounting, because it was not performed for it.
	ResultCacheHits   int
	ResultCacheMisses int
}

// Add accumulates other into s (used when averaging over a workload).
func (s *SearchStats) Add(other SearchStats) {
	s.Candidates += other.Candidates
	s.SketchRejected += other.SketchRejected
	s.APLRejected += other.APLRejected
	s.OrderRejected += other.OrderRejected
	s.Scored += other.Scored
	s.PQPops += other.PQPops
	s.Batches += other.Batches
	s.PageReads += other.PageReads
	s.NodesVisited += other.NodesVisited
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.DeltaCandidates += other.DeltaCandidates
	s.HeaderOnlyRejects += other.HeaderOnlyRejects
	s.BoxScreened += other.BoxScreened
	s.SpanRejected += other.SpanRejected
	s.ShardsSearched += other.ShardsSearched
	s.ShardsSkipped += other.ShardsSkipped
	s.ShardsFailed += other.ShardsFailed
	s.BytesDecoded += other.BytesDecoded
	s.ResultCacheHits += other.ResultCacheHits
	s.ResultCacheMisses += other.ResultCacheMisses
}
