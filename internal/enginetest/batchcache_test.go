package enginetest

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"activitytraj/internal/delta"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// skewedRequests builds a batch with heavy duplication — the skewed
// workload the cross-query planner targets: few distinct queries, many
// repetitions, shuffled so duplicates are NOT adjacent on input (the
// planner must bring them together itself).
func skewedRequests(t *testing.T, ds *trajectory.Dataset, distinct, total int) []query.Request {
	t.Helper()
	qs := workload(t, ds, distinct)
	reqs := make([]query.Request, total)
	for i := range reqs {
		q := qs[(i*7+i/distinct)%distinct] // deterministic non-adjacent shuffle
		reqs[i] = query.Request{Query: q, K: 5, WithMatches: i%3 == 0}
	}
	return reqs
}

// TestSuperbatchByteIdentical pins the planner's exactness invariant:
// SearchAll with cross-query grouping must answer every request — results,
// match covers, truncation marker — byte-identical to serial single-query
// execution on the same engine. Grouping reorders which worker runs which
// request; it must never change an answer.
func TestSuperbatchByteIdentical(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gatCfgDefault())
	gatEng := engines[3]
	reqs := skewedRequests(t, ds, 6, 48)

	// Serial reference: every request through Search on one engine.
	want := make([]query.Response, len(reqs))
	for i, req := range reqs {
		resp, err := gatEng.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("serial request %d: %v", i, err)
		}
		want[i] = resp
	}

	check := func(t *testing.T, got []query.Response) {
		t.Helper()
		for i := range got {
			if !reflect.DeepEqual(got[i].Results, want[i].Results) {
				t.Fatalf("request %d results differ:\n got %+v\nwant %+v", i, got[i].Results, want[i].Results)
			}
			if !reflect.DeepEqual(got[i].Matches, want[i].Matches) {
				t.Fatalf("request %d matches differ", i)
			}
			if got[i].Truncated != want[i].Truncated {
				t.Fatalf("request %d truncation differs", i)
			}
		}
	}

	t.Run("planned", func(t *testing.T) {
		pe := query.NewParallelEngine(gatEng, 4)
		got, err := pe.SearchAll(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})

	t.Run("planned with result cache", func(t *testing.T) {
		pe := query.NewParallelEngine(gatEng, 4)
		pe.SetResultCache(query.NewResultCache(64, query.StaticEpoch{}))
		got, err := pe.SearchAll(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
		var hits, misses int
		for _, r := range got {
			hits += r.Stats.ResultCacheHits
			misses += r.Stats.ResultCacheMisses
		}
		if hits == 0 {
			t.Fatal("no result-cache hits on a workload of 48 requests over 6 distinct queries")
		}
		if hits+misses != len(reqs) {
			t.Fatalf("hits %d + misses %d != %d requests", hits, misses, len(reqs))
		}
	})

	t.Run("planning disabled", func(t *testing.T) {
		pe := query.NewParallelEngine(gatEng, 4)
		pe.SetBatchPlanning(false)
		got, err := pe.SearchAll(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})
}

// TestSuperbatchCancellation: cancelling mid-batch must abandon the
// remaining requests promptly (including within a planned group), return
// the context error, and leave the pool fully serviceable for the next
// batch.
func TestSuperbatchCancellation(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gatCfgDefault())
	gatEng := engines[3]
	reqs := skewedRequests(t, ds, 6, 64)
	pe := query.NewParallelEngine(gatEng, 2)

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := pe.SearchAll(ctx, reqs); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("mid-batch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(200 * time.Microsecond)
			cancel()
		}()
		resps, err := pe.SearchAll(ctx, reqs)
		// The race may legally finish the whole batch first; what is pinned
		// is that a cancelled run reports it and a finished run is complete.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
		if err == nil {
			for i, r := range resps {
				if len(r.Results) == 0 {
					t.Fatalf("request %d empty on a nil-error batch", i)
				}
			}
		}
	})

	// The pool must be intact afterwards: a fresh batch succeeds.
	if _, err := pe.SearchAll(context.Background(), reqs[:8]); err != nil {
		t.Fatalf("batch after cancellation: %v", err)
	}
}

// TestResultCacheMutationInvalidation is the cache's correctness gate under
// mutation: searches served through an epoch-invalidated cache must equal a
// cache-free engine over the same dynamic index at every quiesced point,
// across inserts, deletes and explicit compactions. A stale entry surviving
// an epoch flip would surface as a divergence after the mutation that
// obsoleted it.
func TestResultCacheMutationInvalidation(t *testing.T) {
	ds := testDataset(t)
	baseN := len(ds.Trajs) * 2 / 3
	base := ds.Sample(baseN)
	base.Name = ds.Name
	d, err := delta.NewDynamic(base, delta.Config{
		GAT:              gatCfgDefault(),
		CompactThreshold: -1, // explicit compactions only: keep rounds deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := workload(t, ds, 8)
	reqs := make([]query.Request, len(qs))
	for i, q := range qs {
		reqs[i] = query.Request{Query: q, K: 5}
	}

	cached := query.NewParallelEngine(d.NewEngine(), 2)
	cached.SetResultCache(query.NewResultCache(128, d))
	plain := d.NewEngine()

	compare := func(round string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // second pass serves from the cache
			for i, req := range reqs {
				got, err := cached.Search(context.Background(), req)
				if err != nil {
					t.Fatalf("%s pass %d request %d (cached): %v", round, pass, i, err)
				}
				want, err := plain.Search(context.Background(), req)
				if err != nil {
					t.Fatalf("%s pass %d request %d (plain): %v", round, pass, i, err)
				}
				if !reflect.DeepEqual(got.Results, want.Results) {
					t.Fatalf("%s pass %d request %d: cached results %+v != plain %+v",
						round, pass, i, got.Results, want.Results)
				}
			}
		}
	}

	compare("initial")
	next := baseN
	insertOne := func() {
		t.Helper()
		if next >= len(ds.Trajs) {
			return
		}
		if _, err := d.Insert(trajectory.Trajectory{Pts: ds.Trajs[next].Pts}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 6; i++ {
			insertOne()
		}
		compare("insert")
		if err := d.Delete(trajectory.TrajID(round*11 + 2)); err != nil {
			t.Fatal(err)
		}
		compare("delete")
		if round%2 == 1 {
			if err := d.CompactNow(); err != nil {
				t.Fatal(err)
			}
			compare("compact")
		}
	}
	if rc := cached.ResultCache(); rc.Stats().Hits == 0 {
		t.Fatal("differential run never hit the cache — the test is not exercising it")
	}
}

// TestResultCacheConcurrentMutation races cached searches against writers
// (run under -race): no torn responses, no errors, and after the writers
// quiesce the cache must agree with a cache-free engine — any entry pinned
// to a pre-mutation epoch would diverge here.
func TestResultCacheConcurrentMutation(t *testing.T) {
	ds := testDataset(t)
	baseN := len(ds.Trajs) / 2
	base := ds.Sample(baseN)
	base.Name = ds.Name
	d, err := delta.NewDynamic(base, delta.Config{
		GAT:              gatCfgDefault(),
		CompactThreshold: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := workload(t, ds, 6)
	reqs := make([]query.Request, len(qs))
	for i, q := range qs {
		reqs[i] = query.Request{Query: q, K: 5}
	}
	cached := query.NewParallelEngine(d.NewEngine(), 3)
	cached.SetResultCache(query.NewResultCache(64, d))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tr := range ds.Trajs[baseN:] {
			if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		for id := 1; id < baseN; id += 9 {
			if err := d.Delete(trajectory.TrajID(id)); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	for r := 0; ; r++ {
		select {
		case <-done:
		default:
			if _, err := cached.SearchAll(context.Background(), reqs); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			continue
		}
		break
	}
	if t.Failed() {
		return
	}
	// Quiesced: the cache and a plain engine must now agree exactly.
	plain := d.NewEngine()
	for pass := 0; pass < 2; pass++ {
		for i, req := range reqs {
			got, err := cached.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("pass %d request %d: cached %+v != plain %+v", pass, i, got.Results, want.Results)
			}
		}
	}
}
