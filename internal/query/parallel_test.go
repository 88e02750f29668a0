package query

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"activitytraj/internal/geo"
)

// fakeEngine answers query i (encoded in the X coordinate) with a single
// result whose distance is i, and fails on X == failAt.
type fakeEngine struct {
	calls  *atomic.Int64
	failAt float64
}

func (f *fakeEngine) Name() string    { return "fake" }
func (f *fakeEngine) MemBytes() int64 { return 1 }
func (f *fakeEngine) Search(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{Truncated: true}, err
	}
	f.calls.Add(1)
	x := req.Query.Pts[0].Loc.X
	if f.failAt != 0 && x == f.failAt {
		return Response{}, fmt.Errorf("query %v failed", x)
	}
	return Response{Results: []Result{{ID: 0, Dist: x}}, Stats: SearchStats{Candidates: 1, Scored: 1}}, nil
}

func fakeRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Query: Query{Pts: []Point{{Loc: geo.Point{X: float64(i + 1)}}}}, K: 1}
	}
	return reqs
}

func TestSearchBatchOrderAndStats(t *testing.T) {
	var calls atomic.Int64
	pe := NewParallelEngine(&fakeEngine{calls: &calls}, 4)
	reqs := fakeRequests(37)
	out, err := pe.SearchAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("got %d result slots", len(out))
	}
	var st SearchStats
	for i, resp := range out {
		if rs := resp.Results; len(rs) != 1 || rs[0].Dist != float64(i+1) {
			t.Fatalf("slot %d = %+v", i, rs)
		}
		st.Add(resp.Stats)
	}
	if got := calls.Load(); got != int64(len(reqs)) {
		t.Fatalf("engine ran %d times, want %d", got, len(reqs))
	}
	if st.Candidates != len(reqs) || st.Scored != len(reqs) {
		t.Fatalf("aggregate stats = %+v", st)
	}
}

func TestSearchBatchError(t *testing.T) {
	var calls atomic.Int64
	pe := NewParallelEngine(&fakeEngine{calls: &calls, failAt: 5}, 3)
	_, err := pe.SearchAll(context.Background(), fakeRequests(20))
	if err == nil {
		t.Fatal("expected error")
	}
	// The failure is attributed to its query index.
	if !strings.HasPrefix(err.Error(), "query 4:") {
		t.Fatalf("err = %v", err)
	}
}

func TestSearchBatchEmptyAndSingleWorker(t *testing.T) {
	var calls atomic.Int64
	pe := NewParallelEngine(&fakeEngine{calls: &calls}, 1)
	out, err := pe.SearchAll(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v %v", out, err)
	}
	if pe.Workers() != 1 {
		t.Fatalf("workers = %d", pe.Workers())
	}
	reqs := fakeRequests(5)
	for i := range reqs {
		reqs[i].Ordered = true
	}
	out, err = pe.SearchAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out[4].Results[0].Dist != 5 {
		t.Fatalf("single worker batch wrong: %+v", out)
	}
}

func TestParallelEngineSingleSearch(t *testing.T) {
	var calls atomic.Int64
	pe := NewParallelEngine(&fakeEngine{calls: &calls}, 2)
	resp, err := pe.Search(context.Background(), fakeRequests(1)[0])
	if rs := resp.Results; err != nil || len(rs) != 1 || rs[0].Dist != 1 {
		t.Fatalf("single search: %v %v", rs, err)
	}
	if st := resp.Stats; st.Scored != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if pe.Name() != "fake" || pe.MemBytes() != 1 {
		t.Fatal("identity not forwarded")
	}
}

func TestNewParallelEngineDefaultWorkers(t *testing.T) {
	var calls atomic.Int64
	pe := NewParallelEngine(&fakeEngine{calls: &calls}, 0)
	if pe.Workers() < 1 {
		t.Fatalf("workers = %d", pe.Workers())
	}
}
