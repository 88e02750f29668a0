package query

import (
	"reflect"
	"testing"

	"activitytraj/internal/geo"
	"activitytraj/internal/trajectory"
)

func cacheReq(x float64, k int) Request {
	return Request{
		Query: New(Point{Loc: geo.Point{X: x, Y: 2}, Acts: trajectory.NewActivitySet(1, 4)}),
		K:     k,
	}
}

// TestResultCacheRoundTrip: a Put at an epoch is visible to a Get at the
// same epoch, invisible at any other, and the hit carries only the hit
// marker in its stats plus copies of the stored result slices.
func TestResultCacheRoundTrip(t *testing.T) {
	rc := NewResultCache(8, StaticEpoch{})
	req := cacheReq(1, 5)
	resp := Response{
		Results: []Result{{ID: 3, Dist: 0.5}, {ID: 9, Dist: 1.25}},
		Matches: [][][]int32{{{0, 2}}, {{1}}},
		Stats:   SearchStats{Candidates: 42, PageReads: 7},
	}
	if _, ok := rc.Get(0, req); ok {
		t.Fatal("empty cache reported a hit")
	}
	rc.Put(0, req, resp)
	got, ok := rc.Get(0, req)
	if !ok {
		t.Fatal("stored response not found at its epoch")
	}
	if !reflect.DeepEqual(got.Results, resp.Results) || !reflect.DeepEqual(got.Matches, resp.Matches) {
		t.Fatalf("cached payload differs: %+v vs %+v", got, resp)
	}
	if got.Stats != (SearchStats{ResultCacheHits: 1}) {
		t.Fatalf("hit stats = %+v, want only the hit marker", got.Stats)
	}
	if _, ok := rc.Get(1, req); ok {
		t.Fatal("entry from epoch 0 served at epoch 1")
	}
	// The returned top-level slices are fresh: mutating them must not
	// corrupt the cached copy.
	got.Results[0].ID = 999
	again, _ := rc.Get(0, req)
	if again.Results[0].ID != 3 {
		t.Fatal("mutating a hit's Results corrupted the cached entry")
	}
}

// TestResultCacheSkipsTruncated: cancellation artifacts must never be
// cached as answers.
func TestResultCacheSkipsTruncated(t *testing.T) {
	rc := NewResultCache(8, StaticEpoch{})
	req := cacheReq(1, 5)
	rc.Put(0, req, Response{Results: []Result{{ID: 1}}, Truncated: true})
	if _, ok := rc.Get(0, req); ok {
		t.Fatal("truncated response was cached")
	}
}

// TestEncodeRequestKeyDistinct: every field of the canonical key must
// separate requests — two requests differing in any response-affecting
// field encode differently, and re-encoding the same request is stable.
func TestEncodeRequestKeyDistinct(t *testing.T) {
	base := cacheReq(1, 5)
	if encodeRequestKey(base) != encodeRequestKey(cacheReq(1, 5)) {
		t.Fatal("identical requests encode differently")
	}
	region := geo.NewRect(0, 0, 1, 1)
	region2 := geo.NewRect(0, 0, 1, 2)
	variants := []Request{
		cacheReq(2, 5), // location
		cacheReq(1, 6), // K
		cacheReq(1, 5+1<<32),
		{Query: base.Query, K: 5, Ordered: true},
		{Query: base.Query, K: 5, WithMatches: true},
		{Query: base.Query, K: 5, InitialBound: 1.5},
		{Query: base.Query, K: 5, Region: &region},
		{Query: base.Query, K: 5, Region: &region2},
		{Query: base.Query, K: 5, RequireComplete: true},
		{Query: base.Query, K: 5, Subtrajectory: true},
		{Query: base.Query, K: 5, Subtrajectory: true, MinSpanPoints: 2},
		{Query: base.Query, K: 5, Subtrajectory: true, MaxSpanPoints: 3},
		{Query: base.Query, K: 5, Subtrajectory: true, MaxSpanPoints: 3 + 1<<32},
		{Query: New(base.Query.Pts[0], base.Query.Pts[0]), K: 5},                                  // point count
		{Query: New(Point{Loc: base.Query.Pts[0].Loc, Acts: trajectory.NewActivitySet(1)}), K: 5}, // acts
	}
	seen := map[string]int{encodeRequestKey(base): -1}
	for i, v := range variants {
		k := encodeRequestKey(v)
		if j, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d", i, j)
		}
		seen[k] = i
	}
}

// planKeyerFunc adapts a function to BatchKeyer for tests.
type planKeyerFunc func(q Query) uint64

func (f planKeyerFunc) BatchKey(q Query) uint64 { return f(q) }

// TestPlanGroupsPartition: planGroups must emit every request index exactly
// once, keep same-ancestor-cell requests together, and respect the group
// size cap.
func TestPlanGroupsPartition(t *testing.T) {
	reqs := make([]Request, 40)
	keyer := planKeyerFunc(func(q Query) uint64 {
		// Key by the X coordinate: three spatial clusters, one oversized.
		switch x := q.Pts[0].Loc.X; {
		case x < 10:
			return 0 // 1<<planGroupShift per-cluster spacing keeps clusters apart
		case x < 20:
			return 1 << planGroupShift
		default:
			return 2 << planGroupShift
		}
	})
	for i := range reqs {
		x := float64(i % 3 * 10) // clusters of ~13 each
		if i < 20 {
			x = 0 // first half all in cluster 0: exceeds planMaxGroup
		}
		reqs[i] = cacheReq(x, 5)
	}
	groups := planGroups(reqs, keyer)
	seen := make([]bool, len(reqs))
	for _, g := range groups {
		if len(g) == 0 || len(g) > planMaxGroup {
			t.Fatalf("group size %d outside (0, %d]", len(g), planMaxGroup)
		}
		key := keyer.BatchKey(reqs[g[0]].Query) >> planGroupShift
		for _, qi := range g {
			if seen[qi] {
				t.Fatalf("request %d scheduled twice", qi)
			}
			seen[qi] = true
			if k := keyer.BatchKey(reqs[qi].Query) >> planGroupShift; k != key {
				t.Fatalf("group mixes ancestor cells %d and %d", key, k)
			}
		}
	}
	for qi, ok := range seen {
		if !ok {
			t.Fatalf("request %d never scheduled", qi)
		}
	}
}
