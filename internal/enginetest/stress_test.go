package enginetest

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"activitytraj/internal/harness"
	"activitytraj/internal/query"
)

// TestParallelEngineStress hammers one ParallelEngine — and through it the
// sharded buffer pool, the shared HICL cache and the shared APL cache —
// from many client goroutines at once, mixing single searches and batches,
// ATSQ and OATSQ. Run with -race this is the concurrency-safety gate for
// the whole serving stack; the result checks catch scratch shared between searches.
func TestParallelEngineStress(t *testing.T) {
	ds := testDataset(t)
	st, err := harness.BuildSetup(ds, gatCfgDefault())
	if err != nil {
		t.Fatal(err)
	}
	qs := workload(t, ds, 16)
	gat := st.Engine("GAT")

	// Reference answers from sequential searches on the same engine.
	want := make([][]query.Result, len(qs))
	for i, q := range qs {
		want[i] = mustSearch(t, gat, query.Request{Query: q, K: 5}).Results
	}

	pe := query.NewParallelEngine(gat, 4)
	const clients = 6
	const rounds = 8
	var wg sync.WaitGroup
	var candidates atomic.Int64 // summed over every response's in-band stats
	ctx := context.Background()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (c + r) % 3 {
				case 0: // whole batch
					got, err := pe.SearchAll(ctx, requests(qs, 5))
					if err != nil {
						t.Errorf("client %d round %d: %v", c, r, err)
						return
					}
					for i := range qs {
						candidates.Add(int64(got[i].Stats.Candidates))
						if !sameResults(got[i].Results, want[i]) {
							t.Errorf("client %d round %d query %d: %v != %v", c, r, i, got[i].Results, want[i])
							return
						}
					}
				case 1: // single searches
					for i := c % len(qs); i < len(qs); i += clients {
						got, err := pe.Search(ctx, query.Request{Query: qs[i], K: 5})
						if err != nil {
							t.Errorf("client %d round %d: %v", c, r, err)
							return
						}
						candidates.Add(int64(got.Stats.Candidates))
						if !sameResults(got.Results, want[i]) {
							t.Errorf("client %d round %d query %d: %v != %v", c, r, i, got.Results, want[i])
							return
						}
					}
				case 2: // ordered variant, results just need to not error
					if _, err := pe.Search(ctx, query.Request{Query: qs[c%len(qs)], K: 5, Ordered: true}); err != nil {
						t.Errorf("client %d round %d OATSQ: %v", c, r, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	if candidates.Load() == 0 {
		t.Fatal("no work recorded")
	}
}

func sameResults(a, b []query.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
