package evaluate

import (
	"slices"

	"activitytraj/internal/geo"
	"activitytraj/internal/matcher"
	"activitytraj/internal/query"
	"activitytraj/internal/sketch"
	"activitytraj/internal/trajectory"
)

// DeltaSource supplies in-memory trajectory data for IDs beyond the base
// TrajStore — freshly ingested trajectories that have not been compacted
// into the immutable store yet. Implementations must be safe to read for
// the duration of a search (the dynamic index holds its write lock off
// while searches run).
type DeltaSource interface {
	// TAS returns the activity sketch of trajectory id (nil when the
	// trajectory is unknown or has no activities).
	TAS(id trajectory.TrajID) sketch.Sketch
	// Postings returns the ascending point indexes of trajectory id that
	// carry activity a, nil when absent.
	Postings(id trajectory.TrajID, a trajectory.ActivityID) []uint32
	// Coords returns the point locations of trajectory id.
	Coords(id trajectory.TrajID) []geo.Point
}

// Outcome classifies what happened to a candidate during evaluation.
type Outcome int

const (
	// Scored: the candidate passed validation and its distance was computed
	// (the distance may still be +Inf if it exceeded the pruning threshold
	// or, for OATSQ, no order-compliant match exists).
	Scored Outcome = iota
	// RejectedSketch: the TAS did not cover the query activities.
	RejectedSketch
	// RejectedAPL: the fetched APL is missing a query activity.
	RejectedAPL
	// RejectedOrder: the MIB filter proved no order-sensitive match exists.
	RejectedOrder
)

// Evaluator validates candidate trajectories and computes their match
// distances, charging disk reads to the shared TrajStore. It owns matcher,
// row-building and decode scratch space — reused across candidates so the
// scoring hot path allocates nothing once warm — and is not safe for
// concurrent use; each search goroutine owns one.
type Evaluator struct {
	ts *TrajStore
	m  matcher.Matcher
	// UseSketch enables the TAS pre-filter (GAT and the tree baselines use
	// it; IL's candidates come pre-validated by construction).
	UseSketch bool

	// delta, when set, serves candidates whose ID is at or beyond the base
	// store's trajectory count from memory instead of disk. deltaID and
	// deltaFn adapt DeltaSource.Postings to RowBuilder's per-activity
	// callback without allocating a closure per candidate.
	delta   DeltaSource
	deltaID trajectory.TrajID
	deltaFn func(a trajectory.ActivityID) []uint32

	// curAPL and aplFn adapt the current candidate's lazily-decoded APL to
	// RowBuilder's per-activity callback without a per-candidate closure;
	// prepare pre-decodes every query activity, so aplFn only reads
	// memoized blocks.
	curAPL *APL
	aplFn  func(a trajectory.ActivityID) []uint32

	// region, when non-nil, restricts matching spatially: candidate rows
	// are filtered to trajectory points inside it right after row build, so
	// out-of-region points can never satisfy a query activity. Install sets
	// it per request.
	region *geo.Rect

	// sub/minSpan/maxSpan select subtrajectory scoring: a candidate's
	// distance becomes the minimum over contiguous point spans of the
	// allowed length instead of the whole trajectory. Install sets them per
	// request.
	sub              bool
	minSpan, maxSpan int

	// sink, when non-nil, shares Search's top-k bound with cooperating
	// searches over sibling shards (SetBoundSink).
	sink query.BoundSink
	// stats is the running search's accounting. It lives here rather than
	// on Search's stack because the Source holds a pointer to it across an
	// interface call, which would otherwise cost a heap allocation per
	// search.
	stats query.SearchStats

	rb        matcher.RowBuilder
	coordsBuf []geo.Point
	blobBuf   []byte
	actLists  [][]uint32 // per query activity: decoded postings (scratch)
	mergePos  []int      // k-way merge cursors (scratch)
	needIdx   []uint32   // union of needed point indexes (scratch)
	sortKeys  []uint64   // batch locality sort keys (scratch)
	// allActs memoizes q.AllActs() for the query whose Pts backing array is
	// allActsPts: engines score many candidates against one query, and the
	// union does not change between them.
	allActsPts []query.Point
	allActs    trajectory.ActivitySet
}

// NewEvaluator returns an evaluator over ts with the sketch filter enabled.
func NewEvaluator(ts *TrajStore) *Evaluator {
	return &Evaluator{ts: ts, UseSketch: true}
}

// Store returns the underlying TrajStore.
func (e *Evaluator) Store() *TrajStore { return e.ts }

// SetDelta attaches a delta source: candidates with IDs at or beyond the
// base store's trajectory count are validated and scored from it, entirely
// in memory. Pass nil to detach.
func (e *Evaluator) SetDelta(d DeltaSource) {
	e.delta = d
	if d != nil && e.deltaFn == nil {
		e.deltaFn = func(a trajectory.ActivityID) []uint32 {
			return e.delta.Postings(e.deltaID, a)
		}
	}
}

// SetRegion attaches (nil detaches) the spatial match filter for the next
// candidates: only trajectory points inside r may match query points.
func (e *Evaluator) SetRegion(r *geo.Rect) { e.region = r }

// SetSpan installs (sub=false clears) subtrajectory scoring for the next
// searches: candidate distances become the minimum over contiguous point
// spans with minSpan <= length <= maxSpan (0 = unlimited).
func (e *Evaluator) SetSpan(sub bool, minSpan, maxSpan int) {
	e.sub, e.minSpan, e.maxSpan = sub, minSpan, maxSpan
}

// filterRegion drops out-of-region points from every row, in place. coords
// is indexable by the rows' trajectory point indexes.
func (e *Evaluator) filterRegion(rows []matcher.QueryRow, coords []geo.Point) {
	for ri := range rows {
		row := &rows[ri]
		w := 0
		for i, idx := range row.Idx {
			if !e.region.ContainsPoint(coords[idx]) {
				continue
			}
			row.Idx[w] = idx
			row.Dist[w] = row.Dist[i]
			row.Mask[w] = row.Mask[i]
			w++
		}
		row.Idx = row.Idx[:w]
		row.Dist = row.Dist[:w]
		row.Mask = row.Mask[:w]
	}
}

// ScoreATSQ validates candidate id against q and, if valid, returns its
// minimum match distance Dmm (computations abandoning past threshold return
// +Inf). The stats argument is updated with the outcome.
func (e *Evaluator) ScoreATSQ(q query.Query, id trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, Outcome, error) {
	rows, n, out, err := e.prepare(q, id, stats)
	if out != Scored || err != nil {
		return matcher.Inf, out, err
	}
	stats.Scored++
	if e.sub {
		return e.m.MinMatchSpan(n, rows, e.minSpan, e.maxSpan, threshold), Scored, nil
	}
	return e.m.MinMatch(rows, threshold), Scored, nil
}

// ScoreOATSQ is ScoreATSQ for the order-sensitive distance Dmom. Before the
// dynamic program it applies the MIB order filter of Section VI-B and the
// Lemma 3 bound: Dmm lower-bounds Dmom, so a candidate whose (much cheaper)
// minimum match distance already exceeds the pruning threshold cannot enter
// the top-k and skips Algorithm 4 entirely.
func (e *Evaluator) ScoreOATSQ(q query.Query, id trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, Outcome, error) {
	rows, n, out, err := e.prepare(q, id, stats)
	if out != Scored || err != nil {
		return matcher.Inf, out, err
	}
	if !matcher.CheckMIB(rows) {
		stats.OrderRejected++
		return matcher.Inf, RejectedOrder, nil
	}
	if e.sub {
		// The span-unordered distance lower-bounds the span-ordered one
		// (Lemma 3 applies window by window), so it is the prefilter here.
		if e.m.MinMatchSpan(n, rows, e.minSpan, e.maxSpan, threshold) == matcher.Inf {
			stats.Scored++
			return matcher.Inf, Scored, nil
		}
		stats.Scored++
		return e.m.MinOrderMatchSpan(n, rows, e.minSpan, e.maxSpan, threshold), Scored, nil
	}
	if e.m.MinMatch(rows, threshold) == matcher.Inf {
		stats.Scored++
		return matcher.Inf, Scored, nil
	}
	stats.Scored++
	return e.m.MinOrderMatch(n, rows, threshold), Scored, nil
}

// prepare runs the shared validation pipeline: TAS check (memory), APL
// header fetch + containment check (cached/disk, header pages only),
// lazy posting-block decode for the query activities, sparse coordinate
// fetch (only pages holding needed points), row build. It returns the
// candidate rows and the trajectory length. The rows alias evaluator
// scratch and are valid until the next prepare.
//
// Disk and cache traffic is attributed to stats here, at the point of the
// fetch, rather than by diffing the shared pool/cache counters: local
// attribution stays exact when many searches run concurrently over the
// same store.
func (e *Evaluator) prepare(q query.Query, id trajectory.TrajID, stats *query.SearchStats) ([]matcher.QueryRow, int, Outcome, error) {
	all := e.queryActs(q)
	if e.delta != nil && int(id) >= e.ts.NumTrajs() {
		return e.prepareDelta(q, id, all, stats)
	}
	if e.UseSketch {
		if !e.ts.TAS(id).CoversAll(all) {
			stats.SketchRejected++
			return nil, 0, RejectedSketch, nil
		}
	}
	apl, blob, err := e.ts.fetchAPL(id, stats, e.blobBuf)
	e.blobBuf = blob
	if err != nil {
		return nil, 0, Scored, err
	}
	// Containment over the header's activity set: a reject never reads or
	// decodes a posting block.
	for _, a := range all {
		if !apl.Has(a) {
			stats.APLRejected++
			stats.HeaderOnlyRejects++
			return nil, 0, RejectedAPL, nil
		}
	}
	// Decode exactly the query activities' blocks (memoized on the shared
	// APL) and collect the union of point indexes the rows will touch.
	e.actLists = e.actLists[:0]
	for _, a := range all {
		list, err := apl.postings(a, stats)
		if err != nil {
			return nil, 0, Scored, err
		}
		e.actLists = append(e.actLists, list)
	}
	e.needIdx = mergeUnique(e.needIdx[:0], e.actLists, &e.mergePos)
	coords, scratch, err := e.ts.fetchCoordsSparse(id, e.needIdx, e.coordsBuf, stats)
	e.coordsBuf = scratch
	if err != nil {
		return nil, 0, Scored, err
	}
	e.curAPL = apl
	if e.aplFn == nil {
		e.aplFn = func(a trajectory.ActivityID) []uint32 {
			return e.curAPL.cachedPostings(a)
		}
	}
	rows := e.rb.Build(q.Pts, e.aplFn, coords)
	if e.region != nil {
		e.filterRegion(rows, coords)
	}
	return rows, e.ts.NumPoints(id), Scored, nil
}

// MatchSets re-derives, for an already-scored result, which trajectory
// points of id form its minimal match: one ascending index list per query
// point. It re-runs the candidate pipeline (fetch traffic is charged to
// stats), so it is meant for the final top-k only, never per candidate. The
// returned slices are freshly allocated. A candidate that no longer
// validates (it should not happen for a trajectory a search just scored)
// returns nil.
func (e *Evaluator) MatchSets(q query.Query, id trajectory.TrajID, ordered bool, stats *query.SearchStats) ([][]int32, error) {
	rows, n, out, err := e.prepare(q, id, stats)
	if out != Scored || err != nil {
		return nil, err
	}
	var covers [][]int32
	switch {
	case e.sub && ordered:
		_, covers = e.m.MinOrderMatchSpanCover(n, rows, e.minSpan, e.maxSpan)
	case e.sub:
		_, covers = e.m.MinMatchSpanCover(n, rows, e.minSpan, e.maxSpan)
	case ordered:
		_, covers = e.m.MinOrderMatchCover(n, rows)
	default:
		_, covers = e.m.MinMatchCover(rows)
	}
	return covers, nil
}

// mergeUnique appends the ascending union of the ascending lists to dst.
// pos is cursor scratch, grown as needed.
func mergeUnique(dst []uint32, lists [][]uint32, pos *[]int) []uint32 {
	p := (*pos)[:0]
	for range lists {
		p = append(p, 0)
	}
	*pos = p
	for {
		min := uint32(0)
		found := false
		for b, l := range lists {
			if c := p[b]; c < len(l) && (!found || l[c] < min) {
				min = l[c]
				found = true
			}
		}
		if !found {
			return dst
		}
		for b, l := range lists {
			if c := p[b]; c < len(l) && l[c] == min {
				p[b]++
			}
		}
		dst = append(dst, min)
	}
}

// PrefetchBatch reorders ids in place so candidates are scored in APL page
// order (delta-resident candidates, which cost no disk, go last in ID
// order) and warms the buffer pool with the header pages of the APLs that
// are not already decoded in the cache — one ascending readahead sweep
// instead of heap-pop-order point reads. Scoring order does not affect
// results: the top-k set under (distance, ID) is order-independent, so
// engines are free to batch for locality.
func (e *Evaluator) PrefetchBatch(ids []trajectory.TrajID) {
	if len(ids) < 2 {
		if len(ids) == 1 && int(ids[0]) < e.ts.NumTrajs() && !e.ts.APLCached(ids[0]) {
			e.ts.PrefetchAPLHeader(ids[0])
		}
		return
	}
	e.sortByAPLPage(ids)
	e.prefetchHeadersSorted(ids)
}

// PrefetchHeaders warms the buffer pool with the APL header pages of ids —
// the cross-query superbatch variant of PrefetchBatch: the caller passes
// the union of several co-located queries' likely candidates, and the
// shared pages fault once here instead of once per query. ids is reordered
// in place (page order, delta candidates last) and may contain duplicates;
// the readahead is purely a pool hint and changes no search's results or
// accounting.
func (e *Evaluator) PrefetchHeaders(ids []trajectory.TrajID) {
	if len(ids) == 0 {
		return
	}
	if len(ids) == 1 {
		if int(ids[0]) < e.ts.NumTrajs() && !e.ts.APLCached(ids[0]) {
			e.ts.PrefetchAPLHeader(ids[0])
		}
		return
	}
	e.sortByAPLPage(ids)
	e.prefetchHeadersSorted(ids)
}

// sortByAPLPage reorders ids in place into APL page order, with
// delta-resident candidates (which cost no disk) last in ID order. It
// reuses the evaluator's sort-key scratch.
func (e *Evaluator) sortByAPLPage(ids []trajectory.TrajID) {
	baseN := e.ts.NumTrajs()
	keys := e.sortKeys[:0]
	for _, id := range ids {
		page := ^uint32(0) // delta candidates sort last
		if int(id) < baseN {
			page = e.ts.APLPage(id)
		}
		keys = append(keys, uint64(page)<<32|uint64(uint32(id)))
	}
	e.sortKeys = keys
	slices.Sort(keys)
	for i, k := range keys {
		ids[i] = trajectory.TrajID(uint32(k))
	}
}

// prefetchHeadersSorted issues readahead over the header pages of the
// to-be-fetched APLs among ids, which must already be in page order. It
// coalesces adjacent ranges so the pool sees few, ascending hints.
func (e *Evaluator) prefetchHeadersSorted(ids []trajectory.TrajID) {
	baseN := e.ts.NumTrajs()
	var first, past uint32
	started := false
	for _, id := range ids {
		if int(id) >= baseN {
			break
		}
		if e.ts.APLCached(id) {
			continue
		}
		f, p := e.ts.aplRefs[id].PageRange(0, e.ts.aplHdrLens[id])
		if p == f {
			continue // empty segment
		}
		switch {
		case !started:
			first, past, started = f, p, true
		case f <= past:
			if p > past {
				past = p
			}
		default:
			e.ts.store.Prefetch(first, past)
			first, past = f, p
		}
	}
	if started {
		e.ts.store.Prefetch(first, past)
	}
}

// prepareDelta is prepare for a candidate served by the delta layer: the
// same TAS → containment → row-build pipeline, but every input is already
// in memory, so no disk or cache traffic is charged.
func (e *Evaluator) prepareDelta(q query.Query, id trajectory.TrajID, all trajectory.ActivitySet, stats *query.SearchStats) ([]matcher.QueryRow, int, Outcome, error) {
	if e.UseSketch {
		if !e.delta.TAS(id).CoversAll(all) {
			stats.SketchRejected++
			return nil, 0, RejectedSketch, nil
		}
	}
	for _, a := range all {
		if e.delta.Postings(id, a) == nil {
			stats.APLRejected++
			return nil, 0, RejectedAPL, nil
		}
	}
	coords := e.delta.Coords(id)
	e.deltaID = id
	rows := e.rb.Build(q.Pts, e.deltaFn, coords)
	if e.region != nil {
		e.filterRegion(rows, coords)
	}
	return rows, len(coords), Scored, nil
}

// queryActs returns q.AllActs(), memoized on the query points' slice
// identities so per-candidate calls within one search reuse the union. The
// memo is refreshed whenever any point's Acts slice is replaced; mutating
// an ActivitySet's elements in place between searches is not supported
// (normalized sets are treated as immutable throughout the library).
func (e *Evaluator) queryActs(q query.Query) trajectory.ActivitySet {
	if e.sameQueryPts(q.Pts) {
		return e.allActs
	}
	e.allActsPts = append(e.allActsPts[:0], q.Pts...)
	e.allActs = q.AllActs()
	return e.allActs
}

func (e *Evaluator) sameQueryPts(pts []query.Point) bool {
	if len(pts) != len(e.allActsPts) {
		return false
	}
	for i := range pts {
		a, b := pts[i].Acts, e.allActsPts[i].Acts
		if len(a) != len(b) {
			return false
		}
		if len(a) > 0 && &a[0] != &b[0] {
			return false
		}
	}
	return true
}
