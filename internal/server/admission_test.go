package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"activitytraj/internal/queries"
	"activitytraj/internal/query"
)

// TestAdmissionBound pins the backpressure of Options.Workers: with one
// slot a second search waits until the first has returned, a waiting
// search whose budget expires answers 504 without ever running, a
// result-cache hit replies while the slot is held, and /v1/stats reports
// the bound.
func TestAdmissionBound(t *testing.T) {
	t.Run("second search waits for the first", func(t *testing.T) {
		a := NewAdmission(1)
		started, release := make(chan struct{}), make(chan struct{})
		var firstReturned atomic.Bool
		firstDone := make(chan struct{})
		go func() {
			defer close(firstDone)
			a.Search(context.Background(), query.Request{}, func(context.Context, query.Request) (query.Response, error) {
				close(started)
				<-release
				firstReturned.Store(true)
				return query.Response{}, nil
			})
		}()
		<-started
		secondDone := make(chan bool)
		go func() {
			_, err := a.Search(context.Background(), query.Request{}, func(context.Context, query.Request) (query.Response, error) {
				secondDone <- firstReturned.Load()
				return query.Response{}, nil
			})
			if err != nil {
				t.Errorf("second search: %v", err)
			}
		}()
		select {
		case <-secondDone:
			t.Fatal("second search ran while the only slot was held")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		if !<-secondDone {
			t.Fatal("second search ran before the first returned")
		}
		<-firstDone
	})

	t.Run("expired wait never runs", func(t *testing.T) {
		a := NewAdmission(1)
		a <- struct{}{} // a search holds the only slot
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		resp, err := a.Search(ctx, query.Request{}, func(context.Context, query.Request) (query.Response, error) {
			t.Error("search ran without a slot")
			return query.Response{}, nil
		})
		if !errors.Is(err, context.DeadlineExceeded) || !resp.Truncated {
			t.Fatalf("waiting search: %+v %v, want Truncated and DeadlineExceeded", resp, err)
		}
	})

	t.Run("http", func(t *testing.T) {
		s, ds := testServerOpts(t, 2, Options{Workers: 1, ResultCacheEntries: 16})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if st := get[StatsResponse](t, ts, "/v1/stats"); st.Workers != 1 {
			t.Fatalf("/v1/stats workers = %d, want 1", st.Workers)
		}
		qs, err := queries.Generate(ds, queries.Config{NumQueries: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		cached, other := searchReqOf(qs[0], 5, false), searchReqOf(qs[1], 5, false)
		want := post[SearchResponse](t, ts, "/v1/search", cached, http.StatusOK)

		admit := s.backend.(*shardedBackend).admit
		admit <- struct{}{} // a search holds the only slot
		hit := post[SearchResponse](t, ts, "/v1/search", cached, http.StatusOK)
		if hit.Stats.ResultCacheHits != 1 || len(hit.Results) != len(want.Results) {
			t.Fatalf("cache hit behind a held slot: %+v", hit)
		}
		late := post[SearchResponse](t, ts, "/v1/search?timeout=20ms", other, http.StatusGatewayTimeout)
		if !late.Truncated || late.Stats.Candidates != 0 || late.Stats.PageReads != 0 {
			t.Fatalf("expired wait: %+v, want Truncated with no search work", late)
		}
		<-admit
		post[SearchResponse](t, ts, "/v1/search", other, http.StatusOK)
	})
}
