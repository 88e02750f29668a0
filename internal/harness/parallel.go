package harness

import (
	"context"
	"time"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/query"
)

// RunWorkloadParallel executes qs across a ParallelEngine with the given
// worker count and aggregates the outcome. Total wall time divided by the
// query count gives effective throughput, not per-query latency.
func RunWorkloadParallel(ts *evaluate.TrajStore, e query.CloneableEngine, qs []query.Query, k int, ordered bool, workers int) (WorkloadResult, error) {
	if workers < 1 {
		workers = 1
	}
	resetCaches(ts, e)
	pe := query.NewParallelEngine(e, workers)
	res := WorkloadResult{Method: e.Name(), Queries: len(qs)}
	reqs := make([]query.Request, len(qs))
	for i, q := range qs {
		reqs[i] = query.Request{Query: q, K: k, Ordered: ordered}
	}
	start := time.Now()
	resps, err := pe.SearchAll(context.Background(), reqs)
	res.TotalTime = time.Since(start)
	for _, r := range resps {
		res.Stats.Add(r.Stats)
	}
	return res, err
}
