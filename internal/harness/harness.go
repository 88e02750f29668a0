// Package harness reproduces the paper's evaluation: it builds the four
// engine line-up, runs query workloads against it with wall-clock and
// statistics accounting, and renders the tables and figures as text. Every
// experiment of Section VII (Figures 3–8, Tables IV–V) and the design-choice
// ablations have a runner here, behind the atsqbench command; the
// repository's testing.B benches share Setup and RunWorkload. How fast the
// served system is belongs to ./bench, not here — the one exception is the
// cluster experiment, which stays until ./bench covers the process cluster.
package harness

import (
	"context"
	"fmt"
	"time"

	"activitytraj/internal/baseline"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// Setup is one dataset with the four engines built over a shared store.
type Setup struct {
	DS      *trajectory.Dataset
	TS      *evaluate.TrajStore
	Engines []query.Engine // IL, RT, IRT, GAT — the paper's ordering
	GATIdx  *gat.Index
}

// MethodNames lists engine names in presentation order.
var MethodNames = []string{"IL", "RT", "IRT", "GAT"}

// BuildSetup constructs the shared trajectory store and all four engines.
func BuildSetup(ds *trajectory.Dataset, gatCfg gat.Config) (*Setup, error) {
	ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
	if err != nil {
		return nil, fmt.Errorf("harness: trajstore for %s: %w", ds.Name, err)
	}
	idx, err := gat.Build(ts, gatCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: gat for %s: %w", ds.Name, err)
	}
	return &Setup{
		DS: ds,
		TS: ts,
		Engines: []query.Engine{
			baseline.BuildIL(ts),
			baseline.BuildRT(ts, 0, 0),
			baseline.BuildIRT(ts, 0, 0),
			gat.NewEngine(idx),
		},
		GATIdx: idx,
	}, nil
}

// Engine returns the engine with the given name.
func (s *Setup) Engine(name string) query.Engine {
	for _, e := range s.Engines {
		if e.Name() == name {
			return e
		}
	}
	return nil
}

// WorkloadResult aggregates one engine's run over a workload.
type WorkloadResult struct {
	Method    string
	Queries   int
	TotalTime time.Duration
	Stats     query.SearchStats // summed over queries
}

// AvgMs returns the mean per-query latency in milliseconds.
func (w WorkloadResult) AvgMs() float64 {
	if w.Queries == 0 {
		return 0
	}
	return float64(w.TotalTime.Microseconds()) / 1000 / float64(w.Queries)
}

// AvgCandidates returns the mean candidates per query.
func (w WorkloadResult) AvgCandidates() float64 {
	if w.Queries == 0 {
		return 0
	}
	return float64(w.Stats.Candidates) / float64(w.Queries)
}

// AvgPageReads returns the mean simulated disk pages touched per query.
func (w WorkloadResult) AvgPageReads() float64 {
	if w.Queries == 0 {
		return 0
	}
	return float64(w.Stats.PageReads) / float64(w.Queries)
}

// AvgKBDecoded returns the mean kibibytes of segment data decoded per query
// (posting blocks, coordinate points).
func (w WorkloadResult) AvgKBDecoded() float64 {
	if w.Queries == 0 {
		return 0
	}
	return float64(w.Stats.BytesDecoded) / 1024 / float64(w.Queries)
}

// RunWorkload executes qs against e and aggregates timing and statistics.
// The shared buffer pool and decoded caches are reset first so engines are
// measured from a cold cache regardless of run order; no engine keeps a
// cache of its own.
func RunWorkload(ts *evaluate.TrajStore, e query.Engine, qs []query.Query, k int, ordered bool) (WorkloadResult, error) {
	ts.ResetPool()
	ctx := context.Background()
	res := WorkloadResult{Method: e.Name(), Queries: len(qs)}
	for qi, q := range qs {
		start := time.Now()
		resp, err := e.Search(ctx, query.Request{Query: q, K: k, Ordered: ordered})
		res.TotalTime += time.Since(start)
		if err != nil {
			return res, fmt.Errorf("harness: %s query %d: %w", e.Name(), qi, err)
		}
		res.Stats.Add(resp.Stats)
	}
	return res, nil
}
