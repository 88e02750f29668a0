// Package baseline implements the paper's three comparison methods
// (Section III): IL (inverted lists over activities only), RT (an R-tree
// over all trajectory points, pruning spatially only), and IRT (an IR-tree,
// pruning spatially and skipping nodes without query activities). Each is
// an evaluate.Source behind the evaluate package's one search loop, so
// measured differences isolate candidate retrieval — the paper's
// experimental contract.
package baseline

import (
	"context"
	"math"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/invindex"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// IL is the inverted-list baseline: one posting list of trajectory IDs per
// activity; a query intersects the lists of all its activities and scores
// every surviving trajectory. It is safe for concurrent use: each search
// checks an evaluator and source out of the engine's free list.
type IL struct {
	inv     *invindex.Index
	scratch query.FreeList[*ilSource]
}

// BuildIL aggregates each trajectory's activities and builds the lists.
func BuildIL(ts *evaluate.TrajStore) *IL {
	inv := invindex.NewIndex()
	ds := ts.Dataset()
	for ti := range ds.Trajs {
		tr := &ds.Trajs[ti]
		for _, a := range tr.ActivityUnion() {
			inv.Add(a, uint32(tr.ID))
		}
	}
	inv.Freeze()
	e := &IL{inv: inv}
	e.scratch.New = func() *ilSource {
		return &ilSource{ev: evaluate.NewEvaluator(ts), inv: inv}
	}
	return e
}

// Name implements query.Engine.
func (e *IL) Name() string { return "IL" }

// MemBytes implements query.Engine.
func (e *IL) MemBytes() int64 { return e.inv.MemBytes() }

// Search implements query.Engine through the shared search loop (see
// evaluate.Evaluator.Search); a region filter post-filters candidate rows
// in the evaluator pipeline.
func (e *IL) Search(ctx context.Context, req query.Request) (query.Response, error) {
	s := e.scratch.Get()
	defer e.scratch.Put(s)
	return s.ev.Search(ctx, req, s, nil)
}

// ilSource is IL's evaluate.Source (Section III-A): the whole candidate set
// is one list intersection computed up front, handed to the search loop in
// λ-sized slices so cancellation is polled as often as for the incremental
// methods. It charges no λ-batches: the method has no retrieval rounds. It
// carries the evaluator that drives it: the two are one search's scratch.
type ilSource struct {
	ev      *evaluate.Evaluator
	inv     *invindex.Index
	ordered bool
	cands   []trajectory.TrajID
	pos     int
}

// candidates intersects the per-activity sets for every activity in Q.Φ —
// shortest set first, whole containers skipped, dense runs ANDed word-wide.
func (s *ilSource) candidates(q query.Query) []trajectory.TrajID {
	all := q.AllActs()
	sets := make([]*invindex.Set, 0, len(all))
	for _, a := range all {
		set := s.inv.Get(a)
		if set.Empty() {
			return nil
		}
		sets = append(sets, set)
	}
	ids := invindex.IntersectSets(sets)
	out := make([]trajectory.TrajID, len(ids))
	for i, id := range ids {
		out[i] = trajectory.TrajID(id)
	}
	return out
}

func (s *ilSource) Begin(req query.Request, _ *query.SearchStats) {
	s.ordered = req.Ordered
	s.cands, s.pos = s.candidates(req.Query), 0
}

func (s *ilSource) NextBatch() []trajectory.TrajID {
	end := min(s.pos+DefaultLambda, len(s.cands))
	batch := s.cands[s.pos:end]
	s.pos = end
	return batch
}

// LowerBound knows nothing about the candidates still to come, and that no
// trajectory outside the intersection can match at all.
func (s *ilSource) LowerBound() float64 {
	if s.Exhausted() {
		return math.Inf(1)
	}
	return 0
}

func (s *ilSource) Exhausted() bool { return s.pos >= len(s.cands) }

// Threshold: per Section III-A the ATSQ minimum match distance is computed
// in full for every candidate (no top-k threshold pruning, which is why
// IL's cost is flat in k); only the request's explicit InitialBound, when
// set, caps it. OATSQ threads the k-th smallest Dmom into Algorithm 4's
// early termination for every method alike.
func (s *ilSource) Threshold(kth, bound float64) float64 {
	if s.ordered {
		return min(kth, bound)
	}
	return bound
}
