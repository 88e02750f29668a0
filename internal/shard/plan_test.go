package shard

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// fakeLeg is a scripted Leg: a rectangle at a chosen distance from the
// origin, results to offer, and a way to fail. No engine, no network.
type fakeLeg struct {
	bounds  Bounds
	results []query.Result
	err     error
	// hook runs inside Search after the results were offered.
	hook func()
	// block parks Search until its context is cancelled.
	block bool

	ran       atomic.Bool
	cancelled atomic.Bool
	gotK      atomic.Int64
}

func (l *fakeLeg) Bounds() *Bounds { return &l.bounds }

func (l *fakeLeg) Search(ctx context.Context, req query.Request, shared *query.SharedTopK) (query.SearchStats, error) {
	l.ran.Store(true)
	l.gotK.Store(int64(req.K))
	for _, r := range l.results {
		shared.Offer(r)
	}
	if l.hook != nil {
		l.hook()
	}
	if l.block {
		<-ctx.Done()
		l.cancelled.Store(true)
		return query.SearchStats{}, ctx.Err()
	}
	return query.SearchStats{Candidates: 1}, l.err
}

// legAt returns a leg whose bounds lie at distance d from the origin (the
// planner's lower bound for the single-point test query), or an empty leg
// for d < 0.
func legAt(d float64, results ...query.Result) *fakeLeg {
	l := &fakeLeg{results: results}
	if d >= 0 {
		l.bounds.ExtendRect(geo.NewRect(d, -1, d+1, 1))
	}
	return l
}

func (l *fakeLeg) failing(err error) *fakeLeg { l.err = err; return l }
func (l *fakeLeg) blocking() *fakeLeg         { l.block = true; return l }

func TestPlannerTable(t *testing.T) {
	q := query.Query{Pts: []query.Point{{Loc: geo.Point{}, Acts: trajectory.NewActivitySet(1)}}}
	res := func(id int, dist float64) query.Result {
		return query.Result{ID: trajectory.TrajID(id), Dist: dist}
	}
	permanent := errors.New("bad request")
	down := &LegDownError{Cause: errors.New("connection refused")}
	region := geo.NewRect(-1, -1, 3, 1)

	type want struct {
		ran       []int // legs that must have run, ascending
		results   []query.Result
		failed    int
		partial   bool
		truncated bool
		err       func(error) bool
		cancelled []int // blocked legs that must have seen the cancel
	}
	cases := []struct {
		name string
		req  query.Request
		legs []*fakeLeg
		// prep wires hooks that need the caller's cancel func.
		prep func(legs []*fakeLeg, cancel context.CancelFunc)
		want want
	}{
		{
			name: "wave 1 runs exactly the min-bound legs",
			req:  query.Request{Query: q, K: 1},
			legs: []*fakeLeg{legAt(5, res(3, 5.5)), legAt(0, res(1, 1)), legAt(9), legAt(0, res(2, 2))},
			want: want{ran: []int{1, 3}, results: []query.Result{res(1, 1)}},
		},
		{
			name: "wave 2 stops at the first bound over the threshold",
			req:  query.Request{Query: q, K: 1},
			legs: []*fakeLeg{legAt(0, res(1, 6)), legAt(5, res(2, 5.5)), legAt(9, res(3, 0.1))},
			want: want{ran: []int{0, 1}, results: []query.Result{res(2, 5.5)}},
		},
		{
			name: "empty and region-disjoint legs never run",
			req:  query.Request{Query: q, K: 5, Region: &region},
			legs: []*fakeLeg{legAt(0, res(1, 1)), legAt(-1, res(2, 0.1)), legAt(4, res(3, 0.2))},
			want: want{ran: []int{0}, results: []query.Result{res(1, 1)}},
		},
		{
			name: "initial bound below the min bound runs nothing",
			req:  query.Request{Query: q, K: 5, InitialBound: 2},
			legs: []*fakeLeg{legAt(3, res(1, 3)), legAt(4, res(2, 4))},
			want: want{results: []query.Result{}},
		},
		{
			name: "K below 1 is 1",
			req:  query.Request{Query: q, K: 0},
			legs: []*fakeLeg{legAt(0, res(1, 2), res(2, 1))},
			want: want{ran: []int{0}, results: []query.Result{res(2, 1)}},
		},
		{
			name: "a down leg degrades to an exact partial answer",
			req:  query.Request{Query: q, K: 2},
			legs: []*fakeLeg{legAt(0, res(1, 1)), legAt(0).failing(down), legAt(0, res(2, 2))},
			want: want{ran: []int{0, 1, 2}, results: []query.Result{res(1, 1), res(2, 2)}, failed: 1, partial: true},
		},
		{
			name: "RequireComplete fails closed and cancels siblings",
			req:  query.Request{Query: q, K: 2, RequireComplete: true},
			legs: []*fakeLeg{legAt(0).failing(down), legAt(0).blocking()},
			want: want{ran: []int{0, 1}, failed: 1, cancelled: []int{1}, err: func(err error) bool {
				var inc *IncompleteError
				return errors.As(err, &inc) && inc.Shard == 0 && errors.Is(err, down.Cause)
			}},
		},
		{
			name: "a permanent leg error aborts the search",
			req:  query.Request{Query: q, K: 2},
			legs: []*fakeLeg{legAt(0, res(1, 1)).failing(permanent), legAt(0).blocking()},
			want: want{ran: []int{0, 1}, cancelled: []int{1}, err: func(err error) bool { return errors.Is(err, permanent) }},
		},
		{
			name: "a caller cancel between waves truncates",
			req:  query.Request{Query: q, K: 1},
			legs: []*fakeLeg{legAt(0, res(1, 6)), legAt(5, res(2, 5.5))},
			prep: func(legs []*fakeLeg, cancel context.CancelFunc) { legs[0].hook = cancel },
			want: want{ran: []int{0}, results: []query.Result{res(1, 6)}, truncated: true,
				err: func(err error) bool { return errors.Is(err, context.Canceled) }},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.prep != nil {
				tc.prep(tc.legs, cancel)
			}
			legs := make([]Leg, len(tc.legs))
			for i, l := range tc.legs {
				legs[i] = l
			}
			var p Planner
			resp, err := p.Search(ctx, tc.req, legs)
			switch {
			case tc.want.err == nil && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.want.err != nil && !tc.want.err(err):
				t.Fatalf("wrong error: %v", err)
			}
			var ran []int
			for i, l := range tc.legs {
				if l.ran.Load() {
					ran = append(ran, i)
					if k := l.gotK.Load(); k < 1 {
						t.Errorf("leg %d searched with K = %d", i, k)
					}
				}
			}
			if !slices.Equal(ran, tc.want.ran) {
				t.Errorf("legs run = %v, want %v", ran, tc.want.ran)
			}
			for _, i := range tc.want.cancelled {
				if !tc.legs[i].cancelled.Load() {
					t.Errorf("sibling leg %d was not cancelled", i)
				}
			}
			if !slices.Equal(resp.Results, tc.want.results) {
				t.Errorf("results = %v, want %v", resp.Results, tc.want.results)
			}
			st := resp.Stats
			if st.ShardsSearched != len(ran) || st.ShardsSearched+st.ShardsSkipped != len(legs) {
				t.Errorf("searched %d + skipped %d over %d legs (%d ran)", st.ShardsSearched, st.ShardsSkipped, len(legs), len(ran))
			}
			if st.ShardsFailed != tc.want.failed || resp.Partial != tc.want.partial || resp.Truncated != tc.want.truncated {
				t.Errorf("failed=%d partial=%v truncated=%v, want %d %v %v",
					st.ShardsFailed, resp.Partial, resp.Truncated, tc.want.failed, tc.want.partial, tc.want.truncated)
			}
		})
	}
}

// TestPlannerRejectsBadRequests: validation happens once, before any leg.
func TestPlannerRejectsBadRequests(t *testing.T) {
	leg := legAt(0)
	var p Planner
	if _, err := p.Search(context.Background(), query.Request{K: 1}, []Leg{leg}); err == nil {
		t.Error("empty query accepted")
	}
	q := query.Query{Pts: []query.Point{{Acts: trajectory.NewActivitySet(1)}}}
	if _, err := p.Search(context.Background(), query.Request{Query: q, K: 1, MaxSpanPoints: 3}, []Leg{leg}); err == nil {
		t.Error("span limit without Subtrajectory accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := p.Search(ctx, query.Request{Query: q, K: 1}, []Leg{leg})
	if !errors.Is(err, context.Canceled) || !resp.Truncated {
		t.Errorf("cancelled before planning: resp %+v err %v", resp, err)
	}
	if leg.ran.Load() {
		t.Error("a leg ran for a rejected request")
	}
}
