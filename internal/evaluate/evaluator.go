package evaluate

import (
	"math/bits"
	"slices"

	"activitytraj/internal/geo"
	"activitytraj/internal/invindex"
	"activitytraj/internal/matcher"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// DeltaSource supplies in-memory trajectory data for IDs beyond the base
// TrajStore — freshly ingested trajectories that have not been compacted
// into the immutable store yet. Implementations must be safe to read for
// the duration of a search (the dynamic index holds its write lock off
// while searches run).
type DeltaSource interface {
	// Entry returns everything scoring needs of trajectory id in one
	// lookup; the zero DeltaEntry when the trajectory is unknown.
	Entry(id trajectory.TrajID) DeltaEntry
}

// DeltaEntry is one delta-resident trajectory as the evaluator reads it —
// the in-memory counterpart of a directory entry, an APL and a coordinate
// segment. The slices are shared with the source and must not be modified.
type DeltaEntry struct {
	// Acts is the trajectory's ascending activity set and Lists[i] the
	// ascending indexes of the points carrying Acts[i].
	Acts   trajectory.ActivitySet
	Lists  []invindex.PostingList
	Coords []geo.Point
}

// Outcome classifies what happened to a candidate during evaluation.
type Outcome int

const (
	// Scored: the candidate passed validation and was decided against the
	// pruning threshold — its distance was computed, or it was abandoned at
	// +Inf because it exceeded the threshold (on its activity boxes alone,
	// SearchStats.BoxScreened, or in the matcher), or, with a Region, no
	// match survives the region's filter.
	Scored Outcome = iota
	// RejectedAPL: the trajectory's exact activity set (the store's
	// directory, a delta entry's Acts) is missing a query activity.
	RejectedAPL
	// RejectedOrder: no order-sensitive match exists — decided on the
	// posting lists (matcher.OrderFeasible), or, with a Region, by the MIB
	// filter on the region-filtered rows.
	RejectedOrder
	// RejectedSpan: no window of the allowed span length holds every query
	// activity (matcher.RowBuilder.SpanFeasible), so the candidate has no
	// subtrajectory match.
	RejectedSpan

	// boxScreened is prepare's report of a Scored candidate whose box lower
	// bound exceeded the threshold: it has no rows and scores +Inf.
	boxScreened
)

// Evaluator validates candidate trajectories and computes their match
// distances, charging disk reads to the shared TrajStore. It owns matcher,
// row-building and decode scratch space — reused across candidates so the
// scoring hot path allocates nothing once warm — and is not safe for
// concurrent use: an engine keeps one in each scratch set it checks out
// per search.
type Evaluator struct {
	ts *TrajStore
	m  matcher.Matcher

	// delta, when set, serves candidates whose ID is at or beyond the base
	// store's trajectory count from memory instead of disk.
	delta DeltaSource

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

	// stats is the running search's accounting. It lives here rather than
	// on Search's stack because the Source holds a pointer to it across an
	// interface call, which would otherwise cost a heap allocation per
	// search.
	stats query.SearchStats

	rb        matcher.RowBuilder
	coordsBuf coordScratch
	blobBuf   []byte
	actPos    []int      // per query activity: its position in the candidate's activity set (scratch)
	actLists  [][]uint32 // per query activity: the candidate's postings (scratch)
	needBits  []uint64   // union of needed point indexes, as a bitmap (scratch)
	needIdx   []uint32   // the same union read back ascending (scratch)
	// The query plan, memoized for the query whose Pts backing array is
	// planPts (engines score many candidates against one query): allActs is
	// q.AllActs(), and slots holds, query point by query point and in the
	// order of each point's Acts, the position of that activity in allActs —
	// so a candidate's activity lists are resolved once per distinct
	// activity and shared by every query point that asks for it.
	planPts []query.Point
	allActs trajectory.ActivitySet
	slots   []int
}

// NewEvaluator returns an evaluator over ts.
func NewEvaluator(ts *TrajStore) *Evaluator {
	return &Evaluator{ts: ts}
}

// SetDelta attaches a delta source: candidates with IDs at or beyond the
// base store's trajectory count are validated and scored from it, entirely
// in memory. Pass nil to detach.
func (e *Evaluator) SetDelta(d DeltaSource) { e.delta = d }

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
	rows, n, out, err := e.prepare(q, id, false, threshold, stats)
	if out, ok := decided(out, err, stats); !ok {
		return matcher.Inf, out, err
	}
	if e.sub {
		return e.m.MinMatchSpan(n, rows, e.minSpan, e.maxSpan, threshold), Scored, nil
	}
	return e.m.MinMatch(rows, threshold), Scored, nil
}

// ScoreOATSQ is ScoreATSQ for the order-sensitive distance Dmom. prepare
// has already rejected a candidate without an order-sensitive match (the
// exact position test that replaces the MIB filter of Section VI-B);
// before the dynamic program comes the Lemma 3 bound: Dmm lower-bounds
// Dmom, so a candidate whose (much cheaper) minimum match distance already
// exceeds the pruning threshold cannot enter the top-k and skips
// Algorithm 4 entirely.
func (e *Evaluator) ScoreOATSQ(q query.Query, id trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, Outcome, error) {
	rows, n, out, err := e.prepare(q, id, true, threshold, stats)
	if out, ok := decided(out, err, stats); !ok {
		return matcher.Inf, out, err
	}
	if e.sub {
		// The span-unordered distance lower-bounds the span-ordered one
		// (Lemma 3 applies window by window), so it is the prefilter here.
		if e.m.MinMatchSpan(n, rows, e.minSpan, e.maxSpan, threshold) == matcher.Inf {
			return matcher.Inf, Scored, nil
		}
		return e.m.MinOrderMatchSpan(n, rows, e.minSpan, e.maxSpan, threshold), Scored, nil
	}
	if e.m.MinMatch(rows, threshold) == matcher.Inf {
		return matcher.Inf, Scored, nil
	}
	return e.m.MinOrderMatch(n, rows, threshold), Scored, nil
}

// decided turns prepare's outcome into the one a Score method reports, and
// whether the matcher still has to run: a candidate that passed validation
// counts as Scored, and one box-screened is Scored with nothing left to do.
func decided(out Outcome, err error, stats *query.SearchStats) (Outcome, bool) {
	if err != nil || (out != Scored && out != boxScreened) {
		return out, false
	}
	stats.Scored++
	return Scored, out == Scored
}

// prepare runs the shared validation pipeline, the same for every mode:
//
//  1. exact containment against the candidate's activity set (in memory: a
//     candidate lacking a query activity touches no cache, pool or decoder);
//  2. the box screen: a base candidate whose distance lower bound
//     (TrajStore.boxBound) strictly exceeds threshold is decided as
//     boxScreened, before anything is fetched;
//  3. APL fetch (cached, or one read of the whole segment) and lazy
//     posting-block decode for the query activities;
//  4. the exact position test on the decoded lists (positions): a
//     candidate with no match of the requested kind at any threshold is
//     RejectedOrder or RejectedSpan;
//  5. sparse coordinate fetch (only pages holding needed points) and row
//     build — and, with a Region, the region filter and the MIB filter on
//     the filtered rows.
//
// It returns the candidate rows and the trajectory length. The rows alias
// evaluator scratch and are valid until the next prepare.
//
// The candidate's activity set — the store's directory entry, or a delta
// entry's Acts — is resolved against the query's activities once
// (locateActs); from there on lists are addressed by that position (a base
// candidate's header position: decodeAPLHeader holds the header to the
// directory) and query points by slot, so no activity is looked up twice.
//
// Disk and cache traffic is attributed to stats here, at the point of the
// fetch, rather than by diffing the shared pool/cache counters: local
// attribution stays exact when many searches run concurrently over the
// same store.
func (e *Evaluator) prepare(q query.Query, id trajectory.TrajID, ordered bool, threshold float64, stats *query.SearchStats) ([]matcher.QueryRow, int, Outcome, error) {
	all := e.queryActs(q)
	pos, lists := e.actPos[:len(all)], e.actLists[:len(all)]

	if e.delta != nil && int(id) >= e.ts.NumTrajs() {
		return e.prepareDelta(q, e.delta.Entry(id), ordered, stats)
	}
	if !locateActs(e.ts.activities(id), all, pos) {
		stats.APLRejected++
		stats.HeaderOnlyRejects++ // rejected without reading a block
		return nil, 0, RejectedAPL, nil
	}
	if e.ts.boxBound(id, q.Pts, e.slots, pos) > threshold {
		stats.BoxScreened++
		return nil, 0, boxScreened, nil
	}

	apl, blob, err := e.ts.fetchAPL(id, stats, e.blobBuf)
	e.blobBuf = blob
	if err != nil {
		return nil, 0, Scored, err
	}
	// Decode exactly the query activities' blocks (memoized on the shared
	// APL) and fetch the points the rows will touch.
	for i, p := range pos {
		if lists[i], err = apl.postingsAt(p, stats); err != nil {
			return nil, 0, Scored, err
		}
	}
	n := e.ts.NumPoints(id)
	if out := e.positions(q, n, ordered, lists, stats); out != Scored {
		return nil, 0, out, nil
	}
	e.unionIdx(lists, n)
	coords, err := e.ts.fetchCoordsSparse(id, e.needIdx, &e.coordsBuf, stats)
	if err != nil {
		return nil, 0, Scored, err
	}
	rows, out := e.build(q, ordered, lists, coords, stats)
	return rows, len(coords), out, nil
}

// prepareDelta is prepare for a delta-resident candidate, built from its
// in-memory entry with no disk or cache traffic to charge. It takes the
// same containment check, position test and Region filter but no box
// screen: a shard holds at most its compaction threshold of delta
// trajectories, and they are in memory already, so a screen would save no
// fetch.
func (e *Evaluator) prepareDelta(q query.Query, ent DeltaEntry, ordered bool, stats *query.SearchStats) ([]matcher.QueryRow, int, Outcome, error) {
	all := e.allActs
	pos, lists := e.actPos[:len(all)], e.actLists[:len(all)]
	if !locateActs(ent.Acts, all, pos) {
		stats.APLRejected++
		return nil, 0, RejectedAPL, nil
	}
	for i, p := range pos {
		lists[i] = ent.Lists[p]
	}
	if out := e.positions(q, len(ent.Coords), ordered, lists, stats); out != Scored {
		return nil, 0, out, nil
	}
	rows, out := e.build(q, ordered, lists, ent.Coords, stats)
	return rows, len(ent.Coords), out, nil
}

// positions is the exact position test of a candidate of n points whose
// query-activity lists are lists: an ordered candidate without an
// order-sensitive match is RejectedOrder, and under subtrajectory scoring a
// candidate with no window of the allowed length holding every query
// activity is RejectedSpan. Both read postings only, so they run before any
// coordinate is fetched. A Region only removes points, so a candidate the
// test rejects has no match inside the region either.
func (e *Evaluator) positions(q query.Query, n int, ordered bool, lists [][]uint32, stats *query.SearchStats) Outcome {
	if ordered && !matcher.OrderFeasible(q.Pts, e.slots, lists) {
		stats.OrderRejected++
		return RejectedOrder
	}
	if e.sub && !e.rb.SpanFeasible(n, e.minSpan, e.maxSpan, lists) {
		stats.SpanRejected++
		return RejectedSpan
	}
	return Scored
}

// build makes the candidate's rows from its lists and coordinates. With a
// Region the rows are filtered to it, and an ordered candidate is then held
// to the MIB filter on the filtered rows: the position test saw the points
// the region drops.
func (e *Evaluator) build(q query.Query, ordered bool, lists [][]uint32, coords []geo.Point, stats *query.SearchStats) ([]matcher.QueryRow, Outcome) {
	rows := e.rb.Build(q.Pts, e.slots, lists, coords)
	if e.region == nil {
		return rows, Scored
	}
	e.filterRegion(rows, coords)
	if ordered && !matcher.CheckMIB(rows) {
		stats.OrderRejected++
		return nil, RejectedOrder
	}
	return rows, Scored
}

// unionIdx leaves in e.needIdx the ascending union of lists, whose elements
// all lie below n: the lists are OR-ed into a bitmap over the trajectory's
// points and the set bits read back in order.
func (e *Evaluator) unionIdx(lists [][]uint32, n int) {
	nw := (n + 63) / 64
	if cap(e.needBits) < nw {
		e.needBits = make([]uint64, nw)
	}
	words := e.needBits[:nw]
	for _, l := range lists {
		for _, p := range l {
			words[p>>6] |= 1 << (p & 63)
		}
	}
	need := e.needIdx[:0]
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			need = append(need, uint32(w<<6|bits.TrailingZeros64(word)))
		}
		words[w] = 0
	}
	e.needIdx = need
}

// MatchSets re-derives, for an already-scored result, which trajectory
// points of id form its minimal match: one ascending index list per query
// point. It re-runs the candidate pipeline (fetch traffic is charged to
// stats), so it is meant for the final top-k only, never per candidate. The
// returned slices are freshly allocated. A candidate that no longer
// validates (it should not happen for a trajectory a search just scored)
// returns nil.
func (e *Evaluator) MatchSets(q query.Query, id trajectory.TrajID, ordered bool, stats *query.SearchStats) ([][]int32, error) {
	rows, n, out, err := e.prepare(q, id, ordered, matcher.Inf, stats)
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

// queryActs returns q.AllActs() and refreshes the slot plan beside it,
// memoized on the query points' slice identities so per-candidate calls
// within one search reuse both. The memo is refreshed whenever any point's
// Acts slice is replaced; mutating an ActivitySet's elements in place
// between searches is not supported (normalized sets are treated as
// immutable throughout the library).
func (e *Evaluator) queryActs(q query.Query) trajectory.ActivitySet {
	if e.sameQueryPts(q.Pts) {
		return e.allActs
	}
	e.planPts = append(e.planPts[:0], q.Pts...)
	e.allActs = q.AllActs()
	if cap(e.actPos) < len(e.allActs) {
		e.actPos = make([]int, len(e.allActs))
		e.actLists = make([][]uint32, len(e.allActs))
	}
	e.slots = e.slots[:0]
	for _, p := range q.Pts {
		for _, a := range p.Acts {
			slot, _ := slices.BinarySearch(e.allActs, a)
			e.slots = append(e.slots, slot)
		}
	}
	return e.allActs
}

func (e *Evaluator) sameQueryPts(pts []query.Point) bool {
	if len(pts) != len(e.planPts) {
		return false
	}
	for i := range pts {
		a, b := pts[i].Acts, e.planPts[i].Acts
		if len(a) != len(b) {
			return false
		}
		if len(a) > 0 && &a[0] != &b[0] {
			return false
		}
	}
	return true
}
