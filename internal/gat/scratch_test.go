package gat

import (
	"context"
	"math"
	"testing"

	"activitytraj/internal/queries"
	"activitytraj/internal/query"
)

// mustSearch answers req on e, failing the test on error.
func mustSearch(t testing.TB, e *Engine, req query.Request) query.Response {
	t.Helper()
	resp, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// peekScratch returns the searcher the next search on e checks out: the
// free list is LIFO, so on an engine searched serially that is always the
// one the last search used.
func peekScratch(e *Engine) *searcher {
	s := e.scratch.Get()
	e.scratch.Put(s)
	return s
}

// TestScratchReuseMatchesFresh: an engine's recycled searcher scratch
// (generation-stamped seen array, per-point heaps, candidate buffer) must
// be invisible in results — searching many different queries on one engine
// gives exactly what a fresh engine gives for each.
func TestScratchReuseMatchesFresh(t *testing.T) {
	ds, _, idx := buildSmall(t, Config{Depth: 6})
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 12, NumPoints: 3, ActsPerPoint: 2, DiameterKm: 8, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	reused := NewEngine(idx)
	for round := 0; round < 2; round++ { // second round exercises fully warm scratch
		for qi, q := range qs {
			gotResp := mustSearch(t, reused, query.Request{Query: q, K: 5})
			got, gotStats := gotResp.Results, gotResp.Stats
			wantResp := mustSearch(t, NewEngine(idx), query.Request{Query: q, K: 5})
			want, wantStats := wantResp.Results, wantResp.Stats
			if len(got) != len(want) {
				t.Fatalf("round %d q%d: %d results vs %d", round, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d q%d result %d: %+v vs %+v", round, qi, i, got[i], want[i])
				}
			}
			if gotStats.Candidates != wantStats.Candidates || gotStats.PQPops != wantStats.PQPops {
				t.Fatalf("round %d q%d: reused stats %+v vs fresh %+v", round, qi, gotStats, wantStats)
			}
		}
	}
}

// TestGenerationWraparound: when the 32-bit search generation wraps, stale
// stamps from ~4 billion searches ago must not alias the new generation —
// Begin wipes the array and restarts at 1.
func TestGenerationWraparound(t *testing.T) {
	ds, _, idx := buildSmall(t, Config{Depth: 6})
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 4, NumPoints: 2, ActsPerPoint: 2, DiameterKm: 8, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(idx)
	// Warm up so the seen array exists and carries stamps.
	mustSearch(t, e, query.Request{Query: qs[0], K: 5})
	// Force the wrap: two searches from now gen overflows to 0.
	s := peekScratch(e)
	s.gen = math.MaxUint32 - 1
	// Poison the array with the post-wrap generation value: if Begin did
	// not wipe on wrap, these entries would mask every trajectory as seen.
	for i := range s.seen {
		s.seen[i] = 1
	}
	fresh := NewEngine(idx)
	for round := 0; round < 3; round++ { // spans gen = MaxUint32, wrap, 2
		for qi, q := range qs {
			gotResp := mustSearch(t, e, query.Request{Query: q, K: 5})
			wantResp := mustSearch(t, fresh, query.Request{Query: q, K: 5})
			got, want := gotResp.Results, wantResp.Results
			if len(got) != len(want) {
				t.Fatalf("round %d q%d: %d results vs %d (gen %d)", round, qi, len(got), len(want), s.gen)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d q%d result %d: %+v vs %+v (gen %d)", round, qi, i, got[i], want[i], s.gen)
				}
			}
			if gotResp.Stats.Candidates != wantResp.Stats.Candidates {
				t.Fatalf("round %d q%d: candidates %d vs %d (gen %d)", round, qi, gotResp.Stats.Candidates, wantResp.Stats.Candidates, s.gen)
			}
		}
	}
	if s.gen == 0 || s.gen > 16 {
		t.Fatalf("generation did not restart after wrap: %d", s.gen)
	}
}
