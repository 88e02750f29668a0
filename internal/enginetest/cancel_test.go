package enginetest

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activitytraj/internal/delta"
	"activitytraj/internal/gat"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
)

// countdownCtx is a deterministic mid-search cancellation driver: Err()
// returns nil for the first budget calls and context.Canceled afterwards.
// Engines poll Err() at every batch boundary, so a budget larger than the
// number of pre-loop checks but smaller than the total cancels the search
// provably mid-flight — no sleeps, no races. Done() flips with the budget
// for any selector watching it.
type countdownCtx struct {
	context.Context
	budget    atomic.Int64
	done      chan struct{}
	closeOnce sync.Once
}

func newCountdownCtx(budget int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.budget.Store(budget)
	return c
}

func (c *countdownCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		c.closeOnce.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

// expiredCtx returns a context whose deadline passed long ago.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	t.Cleanup(cancel)
	return ctx
}

// TestGATCancelledMidSearch drives the GAT engine with a countdown context:
// the search must return context.Canceled at a batch boundary, flag the
// response Truncated, and keep the partial work it had done (at least one
// batch ran before the cancellation tripped).
func TestGATCancelledMidSearch(t *testing.T) {
	ds := testDataset(t)
	// Lambda 1 maximizes batch boundaries, so the countdown trips well
	// before the search would naturally finish.
	_, engines := buildEngines(t, ds, gat.Config{Depth: 6, Lambda: 1})
	e := engines[3] // GAT
	qs := workload(t, ds, 3)
	for qi, q := range qs {
		// Budget 3: the pre-loop check and two loop-top checks pass; the
		// third loop iteration is cancelled — after two batches of work.
		ctx := newCountdownCtx(3)
		resp, err := e.Search(ctx, query.Request{Query: q, K: 9})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("q%d: want context.Canceled, got %v", qi, err)
		}
		if !resp.Truncated {
			t.Fatalf("q%d: cancelled response not marked Truncated", qi)
		}
		if resp.Stats.Batches != 2 {
			t.Fatalf("q%d: want exactly 2 batches before the countdown tripped, got %d", qi, resp.Stats.Batches)
		}
	}
}

// TestExpiredDeadlineTouchesNoPage: a context that is already past its
// deadline must fail fast from every engine family WITHOUT touching a
// single disk page (or retrieving any candidate) — the pre-work check the
// latency-bounded serving path depends on.
func TestExpiredDeadlineTouchesNoPage(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gatCfgDefault())
	qs := workload(t, ds, 1)

	d, err := delta.NewDynamic(ds, delta.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	r, err := shard.NewRouter(ds, shard.Config{Shards: 4})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	all := append([]query.Engine{}, engines...)
	all = append(all, d.NewEngine(), r.NewEngine())
	pe := query.NewParallelEngine(r.NewEngine(), 2)
	all = append(all, pe)

	for _, e := range all {
		resp, err := e.Search(expiredCtx(t), query.Request{Query: qs[0], K: 9})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: want DeadlineExceeded, got %v", e.Name(), err)
		}
		if !resp.Truncated {
			t.Fatalf("%s: expired-deadline response not marked Truncated", e.Name())
		}
		if resp.Stats.PageReads != 0 || resp.Stats.Candidates != 0 || resp.Stats.CacheMisses != 0 {
			t.Fatalf("%s: expired deadline touched storage: %+v", e.Name(), resp.Stats)
		}
		if len(resp.Results) != 0 {
			t.Fatalf("%s: expired deadline returned results: %v", e.Name(), resp.Results)
		}
	}
}

// TestShardedCancelledMidSearch: the scatter-gather search shares one
// countdown context across its concurrent shard searches; once it trips,
// in-flight sibling searches are cancelled and the call reports
// context.Canceled with Truncated set.
func TestShardedCancelledMidSearch(t *testing.T) {
	ds := testDataset(t)
	r, err := shard.NewRouter(ds, shard.Config{
		Shards: 4,
		Delta:  delta.Config{GAT: gat.Config{Depth: 6, Lambda: 1}},
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	eng := r.NewEngine()
	qs := workload(t, ds, 3)
	for qi, q := range qs {
		// The fan-out polls the context at the planner plus at every batch
		// boundary of every shard search (Lambda 1 again); a 4-shard
		// search makes far more than 6 checks, so the countdown reliably
		// trips while shards are in flight.
		ctx := newCountdownCtx(6)
		resp, err := eng.Search(ctx, query.Request{Query: q, K: 9})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("q%d: want context.Canceled, got %v", qi, err)
		}
		if !resp.Truncated {
			t.Fatalf("q%d: cancelled response not marked Truncated", qi)
		}
	}
}

// TestParallelEngineAbortsBatchOnCancellation: SearchAll must stop handing
// out new requests once the shared context cancels mid-batch — workers
// abandon the remaining queue instead of draining it.
func TestParallelEngineAbortsBatchOnCancellation(t *testing.T) {
	ds := testDataset(t)
	r, err := shard.NewRouter(ds, shard.Config{Shards: 2})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	pe := query.NewParallelEngine(r.NewEngine(), 2)
	qs := workload(t, ds, 6)
	reqs := make([]query.Request, 0, len(qs)*8)
	for i := 0; i < 8; i++ {
		for _, q := range qs {
			reqs = append(reqs, query.Request{Query: q, K: 9})
		}
	}
	ctx := newCountdownCtx(10)
	resps, err := pe.SearchAll(ctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("got %d response slots, want %d", len(resps), len(reqs))
	}
	abandoned := 0
	for _, resp := range resps {
		if resp.Results == nil && !resp.Truncated {
			abandoned++
		}
	}
	if abandoned == 0 {
		t.Fatal("cancellation mid-batch abandoned no request — the batch ran to completion")
	}

	// A pre-cancelled context never borrows an engine at all.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := pe.Search(cctx, query.Request{Query: qs[0], K: 9})
	if !errors.Is(err, context.Canceled) || !resp.Truncated {
		t.Fatalf("pre-cancelled single search: %+v %v", resp, err)
	}
}

// TestDynamicEngineCancelled pins the delta engine path: cancellation flows
// through to the inner GAT search across the generation indirection.
func TestDynamicEngineCancelled(t *testing.T) {
	ds := testDataset(t)
	d, err := delta.NewDynamic(ds, delta.Config{
		GAT:              gat.Config{Depth: 6, Lambda: 1},
		CompactThreshold: -1,
	})
	if err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	eng := d.NewEngine()
	q := workload(t, ds, 1)[0]
	ctx := newCountdownCtx(3)
	resp, err := eng.Search(ctx, query.Request{Query: q, K: 9})
	if !errors.Is(err, context.Canceled) || !resp.Truncated {
		t.Fatalf("delta engine: err=%v truncated=%v", err, resp.Truncated)
	}
	if resp.Stats.Batches != 2 {
		t.Fatalf("delta engine: want 2 batches before cancellation, got %d", resp.Stats.Batches)
	}
}
