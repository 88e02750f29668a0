package gat

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/geo"
	"activitytraj/internal/grid"
	"activitytraj/internal/invindex"
	"activitytraj/internal/matcher"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// Engine wraps an Index with the per-query machinery. It implements
// query.Engine and is safe for concurrent use: each search checks a
// searcher — evaluator, matcher and retrieval scratch, reused across
// searches so the hot path allocates nothing — out of the engine's free
// list and returns it when done, while the index, its HICL cache, the
// trajectory store and its APL cache are shared.
type Engine struct {
	idx *Index
	// ov, when non-nil, merges a mutable delta layer into every search; see
	// DeltaOverlay and NewEngineWithOverlay.
	ov      DeltaOverlay
	scratch query.FreeList[*searcher]
}

// NewEngine returns a search engine over a built index.
func NewEngine(idx *Index) *Engine { return NewEngineWithOverlay(idx, nil) }

// newSearcher builds one scratch set for the free list.
func (e *Engine) newSearcher() *searcher {
	ev := evaluate.NewEvaluator(e.idx.ts)
	if e.ov != nil {
		ev.SetDelta(e.ov)
	}
	return &searcher{e: e, ev: ev}
}

// Name implements query.Engine.
func (e *Engine) Name() string { return "GAT" }

// MemBytes implements query.Engine.
func (e *Engine) MemBytes() int64 { return e.idx.MemBytes() }

// searcher is GAT's evaluate.Source: the best-first cell expansion of
// Algorithm 1 (Section V-A) and the Algorithm-2 lower bound, and the unit of
// scratch an Engine checks out per search: it carries the search's
// evaluator and the matcher of the lower bound beside the per-query state,
// all recycled across searches:
//
//   - pqs merges the paper's global cell priority queue with the per-point
//     cellsn structures — one hand-rolled heap per query point, no
//     interface{} boxing;
//   - seen replaces the per-search map[TrajID]struct{} with a dense
//     generation-stamped array: seen[id] == gen marks id as retrieved this
//     search, and bumping gen invalidates the whole array in O(1);
//   - handles resolves the HICL once per search: entry (query point,
//     activity bit, level) holds the cell sets — the base list, then one
//     per delta layer that has any — whose union says which cells of that
//     level carry the activity. A pop is then table lookups and Mask4
//     probes; the map lookups and the shared cache's lock, LRU bump and
//     page decode happen when an entry is first needed, not on every pop;
//   - elig screens containment once, in retrieval: Begin stamps every base
//     trajectory carrying all the query's activities (see screen), and
//     emit drops the others before they reach the evaluator.
type searcher struct {
	e  *Engine
	ev *evaluate.Evaluator
	m  matcher.Matcher
	q  query.Query
	// stats is the running search's accounting (see evaluate.Source.Begin).
	stats *query.SearchStats
	// ov is the engine's overlay for the duration of one search, nil when
	// absent or currently empty — probing an empty delta on every cell
	// expansion would tax the static hot path for nothing.
	ov DeltaOverlay
	// region mirrors the request's spatial filter for the duration of one
	// search: cells disjoint from it never enter a frontier and leaves
	// disjoint from it are skipped inside a pulled subtree, so only
	// trajectories with a relevant point in an in-region leaf are
	// retrieved — exact under the filter's semantics because the evaluator
	// drops out-of-region points from every candidate row before matching.
	region *geo.Rect
	pqs    []pointQueue
	seen   []uint32
	gen    uint32
	// handles is indexed (actOff[qi]+b)*Depth + level-1; an entry's sets
	// alias setBuf. Both are wiped by Begin, so no set outlives its search.
	handles []hiclHandle
	actOff  []int
	setBuf  []*invindex.Set
	// spans is the ITL side of the handle table: entry actOff[qi]+b is the
	// arena span of query point qi's b-th activity, resolved by Begin so a
	// pop bisects its own activities' leaves and nothing else. ranges is one
	// pop's scratch, a range per masked activity: the mask is a uint32.
	spans  []entRange
	ranges [32]entRange
	// elig[id] == want marks base trajectory id as carrying every query
	// activity. Stamps rise monotonically across searches, stamp being the
	// last one handed out, so no earlier search's stamp can equal want;
	// distinct is Begin's scratch of the query's distinct activity spans.
	elig     []uint32
	stamp    uint32
	want     uint32
	distinct []entRange
	cands    []trajectory.TrajID
	virtual  []matcher.WeightedPoint
	nearBuf  []nearCell
	deltaBuf []uint32
	// retrieved counts the IDs the running batch has retrieved, screened
	// ones included: they count toward λ, so the batches, and the bound's
	// checkpoints between them, are those of an unscreened retrieval. Begin
	// sets it to -1: a search no batch has run in is not exhausted.
	retrieved int
	overflown bool
}

// hiclHandle is one HICL entry; sets stays empty if no layer has a list.
type hiclHandle struct {
	sets     []*invindex.Set
	resolved bool
}

// Begin implements evaluate.Source: it readies the scratch for req and
// seeds the frontiers.
func (s *searcher) Begin(req query.Request, stats *query.SearchStats) {
	q := req.Query
	s.q = q
	s.stats = stats
	s.region = req.Region
	s.ov = s.e.ov
	if s.ov != nil && s.ov.Empty() {
		s.ov = nil
	}
	n := s.e.idx.ts.NumTrajs()
	if ov := s.ov; ov != nil {
		if m := ov.IDSpace(); m > n {
			n = m
		}
	}
	if len(s.seen) < n {
		s.seen = make([]uint32, n)
		s.gen = 0
	}
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could collide, wipe them
		clear(s.seen)
		s.gen = 1
	}
	if cap(s.pqs) < len(q.Pts) {
		grown := make([]pointQueue, len(q.Pts))
		copy(grown, s.pqs)
		s.pqs = grown
	}
	s.pqs = s.pqs[:len(q.Pts)]
	for i := range s.pqs {
		s.pqs[i].reset()
	}
	s.actOff, s.spans = s.actOff[:0], s.spans[:0]
	for _, p := range q.Pts {
		s.actOff = append(s.actOff, len(s.spans))
		for _, a := range p.Acts {
			s.spans = append(s.spans, s.e.idx.itl.span(a))
		}
	}
	nActs := len(s.spans)
	nHandles := nActs * s.e.idx.cfg.Depth
	s.handles = slices.Grow(s.handles[:0], nHandles)[:nHandles]
	clear(s.handles)
	clear(s.setBuf)
	s.setBuf = s.setBuf[:0]
	s.screen()
	s.cands = s.cands[:0]
	s.overflown = false
	s.retrieved = -1
	s.initQueue()
}

// screen stamps the base trajectories that carry every query activity.
// The distinct query activities' arena spans are walked in turn: the first
// stamps every trajectory it posts with base, and the i-th promotes
// base+i-1 to base+i, so a trajectory ends at want = base+n-1 exactly when
// each of the n activities posts it somewhere — the store's activity
// directory's answer, read off postings the ITL already holds. An activity
// the index lacks has an empty span and promotes nobody, and once a step
// promotes nobody no trajectory can reach want. Stamps are wiped only when
// they would wrap.
func (s *searcher) screen() {
	if n := s.e.idx.ts.NumTrajs(); len(s.elig) != n {
		s.elig, s.stamp = make([]uint32, n), 0
	}
	s.distinct = s.distinct[:0]
	for _, sp := range s.spans {
		if !slices.Contains(s.distinct, sp) {
			s.distinct = append(s.distinct, sp)
		}
	}
	n := uint32(len(s.distinct))
	if s.stamp > math.MaxUint32-n {
		clear(s.elig)
		s.stamp = 0
	}
	base := s.stamp + 1
	s.stamp += n
	s.want = s.stamp
	itl := &s.e.idx.itl
	for i, sp := range s.distinct {
		posts := itl.posts[itl.postOff[sp.lo]:itl.postOff[sp.hi]]
		if i == 0 {
			for _, tid := range posts {
				s.elig[tid] = base
			}
			continue
		}
		from, to, promoted := base+uint32(i)-1, base+uint32(i), false
		for _, tid := range posts {
			if s.elig[tid] == from {
				s.elig[tid] = to
				promoted = true
			}
		}
		if !promoted {
			return
		}
	}
}

// Search implements query.Engine: the shared search loop over a searcher
// checked out for this search (see evaluate.Evaluator.Search for how the
// request's options, ctx and cancellation are honored).
func (e *Engine) Search(ctx context.Context, req query.Request) (query.Response, error) {
	return e.SearchShared(ctx, req, nil)
}

// SearchShared is Search with a bound shared between cooperating searches
// (nil shares nothing): every scored result is offered to sink, and the
// search prunes against min(local k-th distance, sink.Threshold()) — both
// for the per-candidate scoring threshold and for the Algorithm-2
// termination test. Because the sink's threshold is an upper bound on the
// final global k-th distance (the global top-k over a superset can only be
// tighter than any shard-local one), pruning stays exact: any candidate or
// unseen trajectory pruned by the shared bound is strictly farther than the
// final global k-th result. The sink must be safe for the concurrent use
// the cooperating searches make of it.
func (e *Engine) SearchShared(ctx context.Context, req query.Request, sink query.BoundSink) (query.Response, error) {
	s := e.scratch.Get()
	defer e.scratch.Put(s)
	return s.ev.Search(ctx, req, s, sink)
}

// MatchesFor re-derives the per-query-point matched trajectory point
// indexes for a single known result of req's query — the hook the sharded
// engine uses to answer WithMatches after its scatter-gather merge, with id
// local to this engine's index. The request's Region and span options are
// installed first so the covers match what the search scored. Fetch
// traffic is added to stats.
func (e *Engine) MatchesFor(req query.Request, id trajectory.TrajID, stats *query.SearchStats) ([][]int32, error) {
	s := e.scratch.Get()
	defer e.scratch.Put(s)
	s.ev.Install(req)
	return s.ev.MatchSets(req.Query, id, req.Ordered, stats)
}

// ScoreFor scores a single trajectory against req's query under an exact
// pruning threshold — the single-candidate core of the search loop, used by
// the subscription hub to test one freshly inserted trajectory against a
// standing query. The request's Region and span options are installed
// first, so the outcome is exactly what a full search would compute for
// this candidate: a distance with evaluate.Scored when d <= threshold holds
// finitely (the matcher abandons only STRICTLY above threshold, so a
// candidate at exactly the bound still scores fully), a non-Scored outcome
// otherwise. Fetch traffic is added to stats.
func (e *Engine) ScoreFor(req query.Request, id trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, evaluate.Outcome, error) {
	s := e.scratch.Get()
	defer e.scratch.Put(s)
	s.ev.Install(req)
	return s.ev.Score(req.Query, req.Ordered, id, threshold, stats)
}

// cellVisible reports whether the request's region filter (if any) lets a
// cell contribute matches: a cell disjoint from the region holds no point
// that may match, so its whole subtree is pruned from the frontier.
func (s *searcher) cellVisible(cell grid.Cell) bool {
	return s.region == nil || s.e.idx.g.CellRect(cell).Intersects(*s.region)
}

// initQueue seeds each query point's frontier with every level-1 cell
// containing any of its activities (the "highest level of HICL"): the
// expansion of the root cell under the full activity mask.
func (s *searcher) initQueue() {
	for qi, qp := range s.q.Pts {
		s.expand(qi, nearCell{mask: 1<<uint(len(qp.Acts)) - 1})
	}
}

// expand pushes onto query point qi's frontier the children of c's cell
// that carry any of c.mask's activities and that the region filter admits.
func (s *searcher) expand(qi int, c nearCell) {
	g, loc := s.e.idx.g, s.q.Pts[qi].Loc
	masks := s.childMasks(qi, c)
	for ci, child := range c.cell.Children() {
		if masks[ci] != 0 && s.cellVisible(child) {
			s.pqs[qi].push(nearCell{dist: g.MinDist(loc, child), cell: child, mask: masks[ci]})
		}
	}
}

// minQueue returns the index of the query point whose frontier head is the
// globally nearest cell (ties: lowest level, Z, then query point), or -1
// when every frontier is empty.
func (s *searcher) minQueue() int {
	best := -1
	for i := range s.pqs {
		if s.pqs[i].Len() == 0 {
			continue
		}
		if best < 0 || nearLess(s.pqs[i].head(), s.pqs[best].head()) {
			best = i
		}
	}
	return best
}

// hicl returns the resolved cell sets of query point qi's b-th activity at
// level, resolving them on first use.
func (s *searcher) hicl(qi, b, level int) []*invindex.Set {
	h := &s.handles[(s.actOff[qi]+b)*s.e.idx.cfg.Depth+level-1]
	if !h.resolved {
		a := s.q.Pts[qi].Acts[b]
		start := len(s.setBuf)
		if set := s.baseHICL(level, a); set != nil {
			s.setBuf = append(s.setBuf, set)
		}
		if s.ov != nil {
			s.setBuf = s.ov.AppendCellSets(s.setBuf, level, a)
		}
		h.sets, h.resolved = s.setBuf[start:len(s.setBuf):len(s.setBuf)], true
	}
	return h.sets
}

// baseHICL fetches the index's HICL cell set for (level, act): the
// in-memory levels are consulted directly; disk-level sets go through the
// index's shared decoded-set cache, so across queries (concurrent ones
// included) each set is read and decoded once while resident. Page and cache
// traffic is charged to the engine's stats at the point of the fetch so
// per-search accounting stays exact under concurrent serving; absent lists
// are cached as nil so repeated probes stay cheap.
func (s *searcher) baseHICL(level int, a trajectory.ActivityID) *invindex.Set {
	idx := s.e.idx
	if level <= len(idx.hiclMem)-1 {
		return idx.hiclMem[level][a]
	}
	key := hiclKey{level: uint8(level), act: a}
	if set, ok := idx.hicl.Get(key); ok {
		s.stats.CacheHits++
		return set
	}
	s.stats.CacheMisses++
	// The store is sealed and append-only; a read or decode failure means
	// corruption, which Build would have surfaced. Treat as absent.
	var set *invindex.Set
	if ref, ok := idx.hiclDir[key]; ok {
		s.stats.PageReads += ref.PageSpan()
		if blob, err := idx.hiclStore.Read(ref); err == nil {
			if decoded, _, err := invindex.DecodeSet(blob); err == nil {
				set = decoded
				s.stats.BytesDecoded += int64(len(blob))
			}
		}
	}
	idx.hicl.Put(key, set)
	return set
}

// childMasks returns, for each of the four children of c's cell, the
// bitmask of query point qi's activities present (0 when the child can be
// pruned). Only the activities in c.mask are probed: every layer lists a
// cell for an activity exactly when it lists one of its children, so a
// child cannot carry what its parent lacks. The four siblings share one
// container (and in bitmap form one word), so each activity costs one
// Mask4 probe per layer.
func (s *searcher) childMasks(qi int, c nearCell) [4]uint32 {
	var masks [4]uint32
	base := c.cell.Z << 2
	childLevel := int(c.cell.Level) + 1
	for m := c.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros32(m)
		var m4 uint32
		for _, set := range s.hicl(qi, b, childLevel) {
			m4 |= set.Mask4(base)
		}
		bit := uint32(1) << uint(b)
		for ci := uint32(0); m4 != 0; ci, m4 = ci+1, m4>>1 {
			if m4&1 != 0 {
				masks[ci] |= bit
			}
		}
	}
	return masks
}

// emit retrieves every trajectory of tids that is neither tombstoned
// (tombs pre-computes whether any tombstones exist this search) nor already
// retrieved — the one candidate-emission rule shared by the overflow,
// base-ITL and delta-ITL paths — and appends to out those that pass the
// containment screen. A base trajectory lacking a query activity is charged
// here as the candidate prepare would have rejected on the directory alone;
// delta trajectories are not screened and take prepare's screen.
func (s *searcher) emit(out []trajectory.TrajID, tids []uint32, tombs bool) []trajectory.TrajID {
	for _, tid := range tids {
		if tombs && s.ov.Tombstoned(trajectory.TrajID(tid)) {
			continue
		}
		if s.seen[tid] == s.gen {
			continue
		}
		s.seen[tid] = s.gen
		s.retrieved++
		if int(tid) < len(s.elig) && s.elig[tid] != s.want {
			s.stats.Candidates++
			s.stats.APLRejected++
			s.stats.HeaderOnlyRejects++
			continue
		}
		out = append(out, trajectory.TrajID(tid))
	}
	return out
}

// bucketLists is the number of base ITL lists of the popped mask up to which
// a popped cell's whole subtree is pulled out of the arena in that one pop
// instead of being descended: rtree-style bucketing, with the bucket read
// off the arena's Z order rather than stored, and counted in the unit the
// query pays for — a leaf carrying none of the query point's activities
// costs nothing, however built-up the city. Regions sparse in what is asked
// for then cost one pop, not one per leaf plus the internal cells above
// them, while dense cells keep splitting so the frontier stays fine where
// the candidates are. Chosen by the sweep in ARCHITECTURE.md §5; at least
// 32, so that a leaf — a list per masked activity — is always pulled.
const (
	bucketLists = 64
	_           = uint(bucketLists - 32)
)

// NextBatch implements evaluate.Source: it runs the best-first expansion
// until at least λ new trajectories are retrieved (Section V-A) or every
// frontier empties, and returns those that pass the containment screen.
// The returned slice aliases searcher scratch.
//
// Unlike Algorithm 1 the descent does not always reach the leaf level: a
// popped cell with at most bucketLists base lists of its mask below it is
// pulled whole (see pull). That keeps the search exact — a pulled subtree
// leaves no trajectory of the popped mask unseen, so LowerBound over the
// remaining frontier still bounds every unseen trajectory; a cell's MinDist
// is no greater than any leaf's below it, so pops stay in best-first order;
// and a candidate retrieved early is scored exactly, the top-k under
// (distance, ID) being independent of arrival order.
//
// With a delta overlay, pulls merge the overlay's trajectory lists with the
// base ITL, tombstoned trajectories are dropped here (keeping the merged
// search exact without inflating k), and overlay trajectories that fall
// outside the grid region — whose clamped cells cannot bound their true
// distance — are retrieved unconditionally in the first batch.
func (s *searcher) NextBatch() []trajectory.TrajID {
	depth, lambda := s.e.idx.cfg.Depth, s.e.idx.cfg.Lambda
	itl, ov := &s.e.idx.itl, s.ov
	tombs := ov != nil && ov.HasTombstones()
	out := s.cands[:0]
	s.retrieved = 0
	if ov != nil && !s.overflown {
		s.overflown = true
		s.deltaBuf = ov.AppendOverflow(s.deltaBuf[:0])
		out = s.emit(out, s.deltaBuf, tombs)
	}
	for s.retrieved < lambda {
		qi := s.minQueue()
		if qi < 0 {
			break
		}
		c := s.pqs[qi].pop()
		s.stats.PQPops++
		// The leaves under c are the Z interval [zlo, zlast], and each masked
		// activity's lists there one range of its span. Only base lists count
		// towards the bucket: a subtree holding nothing but delta cells has
		// empty ranges and is pulled like any sparse one.
		shift := 2 * uint(depth-int(c.cell.Level))
		zlo := c.cell.Z << shift
		zlast := zlo | (1<<shift - 1)
		ranges, lists := s.ranges[:0], 0
		for m := c.mask; m != 0 && lists <= bucketLists; m &= m - 1 {
			r := itl.within(s.spans[s.actOff[qi]+bits.TrailingZeros32(m)], zlo, zlast, bucketLists-lists)
			ranges = append(ranges, r)
			lists += int(r.hi - r.lo)
		}
		if lists > bucketLists {
			s.expand(qi, c)
			continue
		}
		out = s.pull(out, qi, c.mask, ranges, zlo, zlast, tombs)
	}
	s.cands = out
	s.stats.Batches++
	return out
}

// pull emits the trajectories of every (leaf, activity) list under one
// popped cell: the base lists are the arena entry ranges, one per activity
// of mask — query point qi's, present somewhere below the cell per the HICL
// — and the overlay's are whatever its layers hold in the same Z interval
// [zlo, zlast]. A range's lists are one run of the posting slab, emitted as
// such unless a region filter has to look at each entry's leaf.
func (s *searcher) pull(out []trajectory.TrajID, qi int, mask uint32, ranges []entRange, zlo, zlast uint32, tombs bool) []trajectory.TrajID {
	itl := &s.e.idx.itl
	leaf := grid.Cell{Level: uint8(s.e.idx.cfg.Depth)}
	for _, r := range ranges {
		if s.region == nil {
			out = s.emit(out, itl.posts[itl.postOff[r.lo]:itl.postOff[r.hi]], tombs)
			continue
		}
		for e := r.lo; e < r.hi; e++ {
			if leaf.Z = itl.entZ[e]; s.cellVisible(leaf) {
				out = s.emit(out, itl.list(e), tombs)
			}
		}
	}
	if s.ov != nil {
		qacts := s.q.Pts[qi].Acts
		for m := mask; m != 0; m &= m - 1 {
			a := qacts[bits.TrailingZeros32(m)]
			s.deltaBuf = s.ov.AppendRangeTrajs(s.deltaBuf[:0], zlo, zlast, a, s.region)
			out = s.emit(out, s.deltaBuf, tombs)
		}
	}
	return out
}

// LowerBound implements evaluate.Source: Dlb for all unseen trajectories.
// With the loose option it is the frontier's head distance; otherwise
// Algorithm 2: per query point, the better of (a) the minimum point match
// distance over virtual points standing in for the m nearest unvisited
// cells and (b) the distance of the (m+1)-th unvisited cell, summed over
// query points. An exhausted query point contributes +Inf — every
// trajectory containing its activities has been seen.
func (s *searcher) LowerBound() float64 {
	if s.e.idx.cfg.LooseLowerBound {
		qi := s.minQueue()
		if qi < 0 {
			return math.Inf(1)
		}
		return s.pqs[qi].head().dist
	}
	m := s.e.idx.cfg.NearCells
	var sum float64
	for qi := range s.q.Pts {
		qp := s.q.Pts[qi]
		cells := s.pqs[qi].firstM(s.nearBuf[:0], m+1)
		s.nearBuf = cells[:0]
		if len(cells) == 0 {
			return math.Inf(1)
		}
		s.virtual = s.virtual[:0]
		for _, c := range cells[:min(m, len(cells))] {
			s.virtual = append(s.virtual, matcher.WeightedPoint{Dist: c.dist, Mask: c.mask})
		}
		dvirt := s.m.MinPointMatchSorted(len(qp.Acts), s.virtual)
		bound := dvirt
		if len(cells) > m && cells[m].dist < bound {
			bound = cells[m].dist
		}
		if math.IsInf(bound, 1) {
			return math.Inf(1)
		}
		sum += bound
	}
	return sum
}

// Threshold implements evaluate.Source: GAT prunes against the k-th
// distance capped by the request's bound.
func (s *searcher) Threshold(kth, bound float64) float64 { return min(kth, bound) }

// Exhausted implements evaluate.Source: the last batch retrieved nothing,
// so every frontier has emptied. A batch whose retrievals were all screened
// out is empty without being the last.
func (s *searcher) Exhausted() bool { return s.retrieved == 0 }

// ResetCaches empties the index's shared decoded-HICL cache so cold-cache
// measurements are fair across engines and workloads (the harness calls
// this alongside TrajStore.ResetPool).
func (e *Engine) ResetCaches() { e.idx.ResetCache() }
