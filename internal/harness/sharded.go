package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
)

// ShardWorkers converts a total worker budget into the engine-clone pool
// size for a K-shard router: every search already fans out across up to K
// shard goroutines, so the pool gets workers/K clones (at least one). This
// is the division the sharded experiment applies so K shards × W workers
// never oversubscribes the host — a 1-core CI runner with K=4, W=4 runs one
// in-flight search fanned over 4 shards, not 16 goroutines.
func ShardWorkers(workers, shards int) int {
	if shards < 1 {
		shards = 1
	}
	clones := workers / shards
	if clones < 1 {
		clones = 1
	}
	return clones
}

// ShardedPool is a router's scatter-gather engine behind a pool of
// ShardWorkers(workers, K) engine clones (see ShardWorkers for why the
// budget divides). Building it is set-up — per-shard engines, their scratch,
// the clone pool — so it is done once, outside whatever a caller times.
type ShardedPool struct {
	eng *shard.Engine
	pe  *query.ParallelEngine
}

// NewShardedPool builds the serving pool over r for a total worker budget.
func NewShardedPool(r *shard.Router, workers int) *ShardedPool {
	eng := r.NewEngine()
	return &ShardedPool{eng: eng, pe: query.NewParallelEngine(eng, ShardWorkers(workers, r.NumShards()))}
}

// ResetCaches puts every shard's caches and buffer pool in the cold state;
// engine scratch stays warm.
func (p *ShardedPool) ResetCaches() { p.eng.ResetCaches() }

// RunShardedWorkload executes qs through p.
func RunShardedWorkload(p *ShardedPool, qs []query.Query, k int, ordered bool) (WorkloadResult, error) {
	res := WorkloadResult{Method: p.eng.Name(), Queries: len(qs)}
	reqs := make([]query.Request, len(qs))
	for i, q := range qs {
		reqs[i] = query.Request{Query: q, K: k, Ordered: ordered}
	}
	start := time.Now()
	resps, err := p.pe.SearchAll(context.Background(), reqs)
	res.TotalTime = time.Since(start)
	for _, rp := range resps {
		res.Stats.Add(rp.Stats)
	}
	return res, err
}

// Sharded measures the sharded serving layer: the same ATSQ workload runs
// against spatially partitioned GAT routers at each shard count of
// Options.Shards, under every worker budget of Options.Workers (budgets
// divide across shards — see ShardWorkers). Alongside throughput it reports
// the planner's behaviour — how many shards an average query touched versus
// skipped — and the per-search page traffic. On the presets every shard's
// rectangle covers most of the city, so "shards hit" reads K and "skipped"
// 0: a far shard is not skipped, it only terminates earlier on the shared
// global bound, which is what the page column shows.
func (s *Suite) Sharded(w io.Writer) error {
	for _, dsName := range s.opts.Datasets {
		ds, err := s.Dataset(dsName)
		if err != nil {
			return err
		}
		qs, err := s.workload(ds, queries.Config{Seed: s.opts.Seed + 83})
		if err != nil {
			return err
		}
		// Repeat the workload so multi-worker pools stay busy.
		reps := qs
		for len(reps) < 64 {
			reps = append(reps, qs...)
		}
		tab := NewTable(
			fmt.Sprintf("Sharded serving — ATSQ on %s (%d queries, worker budget divides across shards)", dsName, len(reps)),
			"shards", "workers", "clones", "qps", "ms/query", "shards hit", "skipped", "pages/search")
		for _, k := range s.opts.Shards {
			r, err := shard.NewRouter(ds, shard.Config{Shards: k})
			if err != nil {
				return fmt.Errorf("harness: %d-shard router for %s: %w", k, dsName, err)
			}
			for _, workers := range s.opts.Workers {
				pool := NewShardedPool(r, workers)
				pool.ResetCaches() // the router is shared across worker budgets
				res, err := RunShardedWorkload(pool, reps, s.opts.K, false)
				if err != nil {
					return err
				}
				nq := float64(res.Queries)
				tab.AddRow(
					fmt.Sprint(k),
					fmt.Sprint(workers),
					fmt.Sprint(ShardWorkers(workers, k)),
					fmt.Sprintf("%.0f", nq/res.TotalTime.Seconds()),
					ms(res.AvgMs()),
					cnt(float64(res.Stats.ShardsSearched)/nq),
					cnt(float64(res.Stats.ShardsSkipped)/nq),
					cnt(res.AvgPageReads()),
				)
			}
		}
		tab.Write(w)
	}
	return nil
}
