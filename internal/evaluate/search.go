package evaluate

import (
	"context"
	"errors"
	"runtime"

	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// Source is the candidate-retrieval half of a search — the only part in
// which the paper's methods differ (Section III: all four share validation
// and scoring). Search drives one through Algorithm 1's loop; the GAT
// searcher, the RT/IRT nearest-point streams and IL's list intersection
// each implement it. A source serves one search at a time and is reusable:
// Begin resets it for the next request, so an engine keeps one per
// scratch set.
type Source interface {
	// Begin readies the source for req. The retrieval work of the whole
	// search — priority-queue pops, index pages, tree nodes, λ-batches — is
	// charged to stats, which stays valid until the search returns.
	Begin(req query.Request, stats *query.SearchStats)
	// NextBatch returns the next candidates, none of which it has returned
	// before; the slice may alias source scratch and is valid until the
	// next call.
	NextBatch() []trajectory.TrajID
	// LowerBound returns a lower bound on the distance of every trajectory
	// NextBatch has not returned yet (+Inf when none can match).
	LowerBound() float64
	// Exhausted reports that retrieval has run dry: an empty batch from an
	// exhausted source ends the search.
	Exhausted() bool
	// Threshold returns the distance beyond which a candidate may be
	// abandoned and the search may stop, given the current k-th distance
	// and the request's bound. Every incremental source answers
	// min(kth, bound); IL answers bound alone for ATSQ because Section
	// III-A scores every candidate in full, which keeps its cost flat in k.
	Threshold(kth, bound float64) float64
}

// Install sets the evaluator's per-request scoring knobs from req. It is
// the one place a Request option reaches the scoring pipeline — Search and
// the single-trajectory entry points (gat.Engine.ScoreFor / MatchesFor) all
// come through here — so a previous request's filter or mode can never
// leak, and a new knob is installed by adding one line.
func (e *Evaluator) Install(req query.Request) {
	e.SetRegion(req.Region)
	e.SetSpan(req.Subtrajectory, req.MinSpanPoints, req.MaxSpanPoints)
}

// Score validates and scores candidate id under the installed knobs with
// the distance ordered selects (Dmom when set, Dmm otherwise).
func (e *Evaluator) Score(q query.Query, ordered bool, id trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, Outcome, error) {
	if ordered {
		return e.ScoreOATSQ(q, id, threshold, stats)
	}
	return e.ScoreATSQ(q, id, threshold, stats)
}

// threshold is the tightest exact pruning bound available: the source's
// choice between the local k-th distance and the request's bound, tightened
// by the shared global bound when the search has a sink. All of them are
// upper bounds on the distance any reportable result may have, so the
// minimum prunes exactly (the matcher abandons only when a partial sum
// strictly exceeds the threshold, so candidates at exactly the bound still
// score fully and tie-break by ID).
func threshold(src Source, topk *query.TopK, bound float64, sink query.BoundSink) float64 {
	th := src.Threshold(topk.Threshold(), bound)
	if sink != nil {
		if g := sink.Threshold(); g < th {
			th = g
		}
	}
	return th
}

// Search is the search loop every engine shares — Algorithm 1 with the
// candidate retrieval and the unseen-trajectory lower bound delegated to
// src: validate, install the request's knobs, then per λ-batch retrieve,
// score (Dmm, or with req.Ordered Dmom behind the same retrieval and bound,
// Lemma 3), offer to the top-k, and stop once the pruning threshold falls
// below the lower bound or the source runs dry. Cancellation is honored
// between batches (the per-candidate hot path never reads the context), and
// an already cancelled or expired ctx returns before the source is touched.
// On cancellation the partial top-k collected so far is returned with
// Response.Truncated set, alongside ctx's error.
//
// A non-nil sink shares the bound with cooperating searches over sibling
// shards: every scored result is offered to it, and pruning runs against
// min(source threshold, sink.Threshold()). The sink's threshold is an upper
// bound on the final global k-th distance, so pruning stays exact.
func (e *Evaluator) Search(ctx context.Context, req query.Request, src Source, sink query.BoundSink) (query.Response, error) {
	q := req.Query
	if err := q.Validate(); err != nil {
		return query.Response{}, err
	}
	if err := req.ValidateSpan(); err != nil {
		return query.Response{}, err
	}
	if err := ctx.Err(); err != nil {
		return query.Response{Truncated: true}, err
	}
	// Subtrajectory mode changes only the scoring: every source's lower
	// bound is on the whole-trajectory Dmm of the unseen trajectories, which
	// in turn lower-bounds their span-constrained distance (restricting a
	// match to a window can only raise its cost). The bound therefore stays
	// admissible for D_sub, and a shared sink threshold remains an upper
	// bound on the final k-th D_sub — pruning stays exact.
	e.Install(req)
	e.stats = query.SearchStats{}
	stats := &e.stats
	src.Begin(req, stats)
	bound := req.Bound()
	baseN := e.ts.NumTrajs()
	topk := query.NewTopK(req.K)
	for {
		if err := ctx.Err(); err != nil {
			return query.Response{Results: topk.Results(), Stats: *stats, Truncated: true}, err
		}
		cands := src.NextBatch()
		dlb := src.LowerBound()
		for _, tid := range cands {
			stats.Candidates++
			if int(tid) >= baseN {
				stats.DeltaCandidates++
			}
			d, out, err := e.Score(q, req.Ordered, tid, threshold(src, topk, bound, sink), stats)
			if err != nil {
				return query.Response{Stats: *stats}, err
			}
			if out == Scored {
				topk.Offer(query.Result{ID: tid, Dist: d})
				if sink != nil {
					sink.Offer(query.Result{ID: tid, Dist: d})
				}
			}
		}
		if threshold(src, topk, bound, sink) < dlb {
			break
		}
		if src.Exhausted() && len(cands) == 0 {
			break
		}
		if sink != nil {
			// A leg sharing its bound with sibling legs never blocks, so on
			// fewer processors than legs it would run to completion against
			// a bound only the legs already running have tightened. Yielding
			// once per batch makes the legs advance round-robin, and every
			// leg's next batch is pruned by what the others scored in theirs
			// — as in one best-first search. A single-engine search never
			// has a sink and never yields.
			runtime.Gosched()
		}
	}
	resp := query.Response{Results: topk.Results(), Stats: *stats}
	if req.WithMatches {
		// The evaluator re-reads each result trajectory once and the
		// matcher re-derives the argmin covers behind the reported
		// distance; the fetch traffic is part of the request.
		if err := e.fillMatches(ctx, req, &resp); err != nil {
			return resp, err
		}
	}
	return resp, nil
}

// fillMatches is Search's WithMatches epilogue: one MatchSets call per
// result, honoring ctx between results, installed on resp with the updated
// stats. When the context expires or is cancelled mid-fill the response is
// marked Truncated, so partially-filled matches are never presented as a
// complete answer.
func (e *Evaluator) fillMatches(ctx context.Context, req query.Request, resp *query.Response) error {
	ms := make([][][]int32, len(resp.Results))
	var err error
	for i := range resp.Results {
		if err = ctx.Err(); err != nil {
			break
		}
		if ms[i], err = e.MatchSets(req.Query, resp.Results[i].ID, req.Ordered, &e.stats); err != nil {
			break
		}
	}
	resp.Matches = ms
	if e.sub {
		resp.Spans = query.SpansFromMatches(ms)
	}
	resp.Stats = e.stats
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		resp.Truncated = true
	}
	return err
}
