package evaluate

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// scriptedSource replays fixed batches and lower bounds, counting the calls
// the search loop makes on it.
type scriptedSource struct {
	batches [][]trajectory.TrajID
	bounds  []float64 // LowerBound after batch i
	// exhaustAfter is the number of NextBatch calls after which Exhausted
	// turns true.
	exhaustAfter int

	next    int // NextBatch calls so far
	touched int // calls of any method
}

func (s *scriptedSource) Begin(query.Request, *query.SearchStats) { s.touched++ }

func (s *scriptedSource) NextBatch() []trajectory.TrajID {
	s.touched++
	s.next++
	if s.next > len(s.batches) {
		return nil
	}
	return s.batches[s.next-1]
}

func (s *scriptedSource) LowerBound() float64 {
	s.touched++
	return s.bounds[min(s.next, len(s.bounds))-1]
}

func (s *scriptedSource) Exhausted() bool {
	s.touched++
	return s.next >= s.exhaustAfter
}

func (s *scriptedSource) Threshold(kth, bound float64) float64 {
	s.touched++
	return min(kth, bound)
}

// countdown is a context whose Err turns context.Canceled after budget
// polls — a deterministic cancellation between two chosen batches.
type countdown struct {
	context.Context
	budget int
}

func (c *countdown) Err() error {
	if c.budget--; c.budget < 0 {
		return context.Canceled
	}
	return nil
}

// TestSearchLoop pins the shared loop's control flow over a scripted
// source. Trajectory i is a single point at distance i+1 from the query
// carrying the one query activity, so a candidate's distance is its ID + 1.
func TestSearchLoop(t *testing.T) {
	ds := &trajectory.Dataset{Name: "line"}
	for i := 0; i < 6; i++ {
		ds.Trajs = append(ds.Trajs, trajectory.Trajectory{
			ID:  trajectory.TrajID(i),
			Pts: []trajectory.Point{{Loc: geo.Point{X: float64(i + 1)}, Acts: trajectory.NewActivitySet(0)}},
		})
	}
	q := query.Query{Pts: []query.Point{{Acts: trajectory.NewActivitySet(0)}}}
	ids := func(v ...trajectory.TrajID) []trajectory.TrajID { return v }
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()

	cases := []struct {
		name         string
		src          scriptedSource
		k            int
		initialBound float64
		ctx          context.Context
		corrupt      int // trajectory whose APL segment is made unreadable, -1 for none

		wantIDs        []trajectory.TrajID
		wantBatches    int // NextBatch calls
		wantCandidates int
		wantTruncated  bool
		wantErr        error // matched with errors.Is; errAny for any non-nil
	}{
		{
			// k-th = 2 after the first batch; a bound equal to it must not
			// stop the search (an unseen tie could still win on ID), the
			// first bound strictly above it must.
			name:        "stops exactly when k-th < lower bound",
			src:         scriptedSource{batches: [][]trajectory.TrajID{ids(0, 1), ids(2, 3), ids(4, 5)}, bounds: []float64{2, 2.5, 9}, exhaustAfter: 3},
			k:           2,
			corrupt:     -1,
			wantIDs:     ids(0, 1),
			wantBatches: 2, wantCandidates: 4,
		},
		{
			// The empty second batch comes from a source that is not
			// exhausted yet and must not end the search; the empty fourth
			// one does.
			name:        "stops on exhausted and empty batch only",
			src:         scriptedSource{batches: [][]trajectory.TrajID{ids(3), nil, ids(1)}, bounds: []float64{0, 0, 0, 0}, exhaustAfter: 3},
			k:           5,
			corrupt:     -1,
			wantIDs:     ids(1, 3),
			wantBatches: 4, wantCandidates: 2,
		},
		{
			// Budget 2: the pre-check and the first loop-top poll pass, the
			// second loop-top poll cancels — after exactly one batch.
			name:        "cancel between batches keeps the partial top-k",
			src:         scriptedSource{batches: [][]trajectory.TrajID{ids(4, 2), ids(0)}, bounds: []float64{0, 0, 0}, exhaustAfter: 2},
			k:           3,
			ctx:         &countdown{Context: context.Background(), budget: 2},
			corrupt:     -1,
			wantIDs:     ids(2, 4),
			wantBatches: 1, wantCandidates: 2,
			wantTruncated: true, wantErr: context.Canceled,
		},
		{
			name:          "expired context touches no source method",
			src:           scriptedSource{batches: [][]trajectory.TrajID{ids(0)}, bounds: []float64{0, 0}, exhaustAfter: 1},
			k:             3,
			ctx:           expired,
			corrupt:       -1,
			wantTruncated: true, wantErr: context.DeadlineExceeded,
		},
		{
			// Distances 3 and 4 lie beyond the bound and are dropped even
			// though k = 4 has room; the bound also ends the search as soon
			// as the unseen are provably beyond it.
			name:         "InitialBound excludes farther results",
			src:          scriptedSource{batches: [][]trajectory.TrajID{ids(3, 1, 0, 2), ids(4)}, bounds: []float64{2.6, 9}, exhaustAfter: 2},
			k:            4,
			initialBound: 2.5,
			corrupt:      -1,
			wantIDs:      ids(0, 1),
			wantBatches:  1, wantCandidates: 4,
		},
		{
			name:        "scoring error returns stats without results",
			src:         scriptedSource{batches: [][]trajectory.TrajID{ids(0, 1, 2)}, bounds: []float64{0, 0}, exhaustAfter: 1},
			k:           3,
			corrupt:     1,
			wantBatches: 1, wantCandidates: 2,
			wantErr: errAny,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts, err := BuildTrajStore(ds, TrajStoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()
			if c.corrupt >= 0 { // the APL segment starts past the store's end
				ts.aplRefs[c.corrupt].Page = ts.store.Pages() + 1
			}
			ctx := c.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			src := c.src
			resp, err := NewEvaluator(ts).Search(ctx, query.Request{Query: q, K: c.k, InitialBound: c.initialBound}, &src, nil)
			switch {
			case c.wantErr == nil && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.wantErr == errAny && err == nil:
				t.Fatal("want an error, got none")
			case c.wantErr != nil && c.wantErr != errAny && !errors.Is(err, c.wantErr):
				t.Fatalf("error = %v, want %v", err, c.wantErr)
			}
			var got []trajectory.TrajID
			for _, r := range resp.Results {
				if want := float64(r.ID + 1); math.Abs(r.Dist-want) > 1e-12 {
					t.Fatalf("result %d at distance %v, want %v", r.ID, r.Dist, want)
				}
				got = append(got, r.ID)
			}
			if !slices.Equal(got, c.wantIDs) {
				t.Fatalf("results = %v, want %v", got, c.wantIDs)
			}
			if src.next != c.wantBatches {
				t.Fatalf("source served %d batches, want %d", src.next, c.wantBatches)
			}
			if c.wantBatches == 0 && src.touched != 0 {
				t.Fatalf("source touched %d times, want none", src.touched)
			}
			if resp.Stats.Candidates != c.wantCandidates {
				t.Fatalf("Candidates = %d, want %d", resp.Stats.Candidates, c.wantCandidates)
			}
			if resp.Truncated != c.wantTruncated {
				t.Fatalf("Truncated = %v, want %v", resp.Truncated, c.wantTruncated)
			}
		})
	}
}

// errAny marks a case that wants some error, whichever it is.
var errAny = errors.New("any error")
