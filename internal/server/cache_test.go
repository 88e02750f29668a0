package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/queries"
	"activitytraj/internal/shard"
)

// TestSearchResultCache drives the server-side result cache end to end: a
// repeated search hits (identical results, stats reduced to the hit
// marker), a mutation through the HTTP API invalidates every cached entry,
// and the post-mutation answer reflects the new corpus.
func TestSearchResultCache(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Name:            "srvcache",
		Seed:            3,
		NumTrajectories: 200,
		NumVenues:       400,
		VocabSize:       150,
		RegionW:         30,
		RegionH:         30,
		Clusters:        5,
		TrajLenMean:     10,
		TrajLenStd:      4,
	})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	r, err := shard.NewRouter(ds, shard.Config{Shards: 4})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	s := New(r, Options{Workers: 2, Vocab: ds.Vocab, ResultCacheEntries: 64})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	qs, err := queries.Generate(ds, queries.Config{NumQueries: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	wire := searchReqOf(qs[0], 9, false)

	first := post[SearchResponse](t, ts, "/v1/search", wire, http.StatusOK)
	if first.Stats.ResultCacheHits != 0 || first.Stats.ResultCacheMisses != 1 {
		t.Fatalf("first search stats %+v, want one recorded miss", first.Stats)
	}
	second := post[SearchResponse](t, ts, "/v1/search", wire, http.StatusOK)
	if second.Stats.ResultCacheHits != 1 {
		t.Fatalf("repeat search stats %+v, want a cache hit", second.Stats)
	}
	if second.Stats.Candidates != 0 || second.Stats.PageReads != 0 {
		t.Fatalf("hit stats %+v claim search work that was not performed", second.Stats)
	}
	if !reflect.DeepEqual(second.Results, first.Results) {
		t.Fatalf("cached results differ: %+v vs %+v", second.Results, first.Results)
	}

	// A mutation must invalidate: delete the top result and re-search.
	if len(first.Results) == 0 {
		t.Fatal("test query returned no results")
	}
	victim := first.Results[0].ID
	post[DeleteResponse](t, ts, "/v1/delete", DeleteRequest{ID: victim}, http.StatusOK)
	third := post[SearchResponse](t, ts, "/v1/search", wire, http.StatusOK)
	if third.Stats.ResultCacheHits != 0 {
		t.Fatalf("post-delete search served from cache: %+v", third.Stats)
	}
	for _, res := range third.Results {
		if res.ID == victim {
			t.Fatalf("deleted trajectory %d still in post-delete results", victim)
		}
	}
	// And the fresh answer caches again.
	fourth := post[SearchResponse](t, ts, "/v1/search", wire, http.StatusOK)
	if fourth.Stats.ResultCacheHits != 1 {
		t.Fatalf("post-delete repeat stats %+v, want a cache hit", fourth.Stats)
	}
	if !reflect.DeepEqual(fourth.Results, third.Results) {
		t.Fatal("post-delete cached results differ from their miss")
	}
}
