package baseline

import (
	"context"
	"math"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// DefaultLambda is the candidate batch size used by the baselines between
// termination tests, mirroring GAT's λ so batching is comparable.
const DefaultLambda = 32

// Spatial is the engine behind both tree baselines, RT (Section III-B) and
// IRT (Section III-C): they differ only in the nearest-point stream each
// query location consumes, so one type carries either tree (see BuildRT and
// BuildIRT). Everything downstream of retrieval is shared with the other
// methods. It is safe for concurrent use: each search checks an evaluator
// and source out of the engine's free list.
type Spatial struct {
	name    string
	mem     int64
	scratch query.FreeList[*spatialSource]
}

func newSpatial(name string, mem int64, ts *evaluate.TrajStore, lambda int, newIter func(query.Point) pointIter) *Spatial {
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	e := &Spatial{name: name, mem: mem}
	e.scratch.New = func() *spatialSource {
		return &spatialSource{ev: evaluate.NewEvaluator(ts), newIter: newIter, lambda: lambda}
	}
	return e
}

// Name implements query.Engine.
func (e *Spatial) Name() string { return e.name }

// MemBytes implements query.Engine.
func (e *Spatial) MemBytes() int64 { return e.mem }

// Search implements query.Engine through the shared search loop (see
// evaluate.Evaluator.Search); a region filter post-filters candidate rows
// in the evaluator pipeline.
func (e *Spatial) Search(ctx context.Context, req query.Request) (query.Response, error) {
	s := e.scratch.Get()
	defer e.scratch.Put(s)
	return s.ev.Search(ctx, req, s, nil)
}

// pointIter is the incremental nearest-point stream one query location
// consumes; the R-tree and IR-tree iterators both satisfy it (see rt.go and
// irt.go adapters).
type pointIter interface {
	// next returns the payload of the next nearest point and its distance.
	next() (int64, float64, bool)
	// peek returns a lower bound on every unreturned point's distance.
	peek() (float64, bool)
	// nodesVisited reports expanded index nodes.
	nodesVisited() int
}

// encodePayload packs (trajectory, point index) into an int64 payload.
func encodePayload(tid trajectory.TrajID, pi int) int64 {
	return int64(tid)<<32 | int64(uint32(pi))
}

func decodeTraj(payload int64) trajectory.TrajID {
	return trajectory.TrajID(payload >> 32)
}

// spatialSource is the evaluate.Source of the RT and IRT baselines — the
// k-BCT style retrieval of Section III-B/C, adapting Chen et al.: each
// query point runs an incremental nearest-point iterator and every
// trajectory surfacing becomes a candidate. It carries the evaluator that
// drives it: the two are one search's scratch.
type spatialSource struct {
	ev *evaluate.Evaluator
	// newIter opens one query point's stream over the shared tree.
	newIter func(qp query.Point) pointIter
	lambda  int

	stats     *query.SearchStats
	its       []pointIter
	seen      map[trajectory.TrajID]struct{}
	exhausted bool
}

func (s *spatialSource) Begin(req query.Request, stats *query.SearchStats) {
	s.stats = stats
	s.its = s.its[:0]
	for _, qp := range req.Query.Pts {
		s.its = append(s.its, s.newIter(qp))
	}
	s.seen = make(map[trajectory.TrajID]struct{})
	s.exhausted = false
}

// NextBatch collects the next λ candidate trajectories, always popping from
// the iterator with the nearest frontier (global best-first).
func (s *spatialSource) NextBatch() []trajectory.TrajID {
	var cands []trajectory.TrajID
	for len(cands) < s.lambda {
		bestI, bestD := -1, math.Inf(1)
		for i, it := range s.its {
			if d, ok := it.peek(); ok && d < bestD {
				bestI, bestD = i, d
			}
		}
		if bestI < 0 {
			s.exhausted = true
			break
		}
		payload, _, ok := s.its[bestI].next()
		if !ok {
			continue
		}
		tid := decodeTraj(payload)
		if _, dup := s.seen[tid]; !dup {
			s.seen[tid] = struct{}{}
			cands = append(cands, tid)
		}
	}
	s.stats.Batches++
	// Only next expands tree nodes, so the count is current after every
	// batch, whichever way the search ends.
	s.stats.NodesVisited = 0
	for _, it := range s.its {
		s.stats.NodesVisited += it.nodesVisited()
	}
	return cands
}

// LowerBound is Σ_i r_i, the sum of the iterators' frontier distances: it
// lower-bounds the best match distance — and hence, by Lemma 2, the minimum
// match distance — of every unseen trajectory. An exhausted iterator means
// every trajectory with a point (matching, for IRT) near q_i has been seen,
// so the bound is +Inf.
func (s *spatialSource) LowerBound() float64 {
	dlb := 0.0
	for _, it := range s.its {
		d, ok := it.peek()
		if !ok {
			return math.Inf(1)
		}
		dlb += d
	}
	return dlb
}

func (s *spatialSource) Exhausted() bool { return s.exhausted }

func (s *spatialSource) Threshold(kth, bound float64) float64 { return min(kth, bound) }
