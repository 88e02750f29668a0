package shard

import (
	"context"
	"math"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/geo"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

func testDataset(t testing.TB, n int) *trajectory.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name:            "mini",
		Seed:            99,
		NumTrajectories: n,
		NumVenues:       max(2*n, 60),
		VocabSize:       120,
		RegionW:         40,
		RegionH:         40,
		Clusters:        6,
		TrajLenMean:     10,
		TrajLenStd:      4,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds
}

func workload(t testing.TB, ds *trajectory.Dataset, n int) []query.Query {
	t.Helper()
	qs, err := queries.Generate(ds, queries.Config{
		NumQueries:   n,
		NumPoints:    3,
		ActsPerPoint: 2,
		DiameterKm:   8,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	return qs
}

// firstActPoint returns the trajectory's first point carrying activities.
func firstActPoint(tr trajectory.Trajectory) (trajectory.Point, bool) {
	for _, p := range tr.Pts {
		if len(p.Acts) > 0 {
			return p, true
		}
	}
	return trajectory.Point{}, false
}

// singleEngine builds the unpartitioned oracle over the same corpus.
func singleEngine(t testing.TB, ds *trajectory.Dataset) *delta.Engine {
	t.Helper()
	d, err := delta.NewDynamic(ds, delta.Config{})
	if err != nil {
		t.Fatalf("single dynamic: %v", err)
	}
	return d.NewEngine()
}

// mustSearch answers req on e, failing the test on error.
func mustSearch(t testing.TB, e query.Engine, req query.Request) query.Response {
	t.Helper()
	resp, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// requireIdentical asserts bit-identical results (IDs and distances).
func requireIdentical(t *testing.T, label string, want, got []query.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs single-index %d\nwant %v\ngot  %v", label, len(got), len(want), want, got)
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Dist != got[i].Dist {
			t.Fatalf("%s: result %d differs\nwant %v\ngot  %v", label, i, want, got)
		}
	}
}

// TestPartitionShape checks the Z-range partition invariants: every
// trajectory lands in exactly one shard, shard ranges tile the curve, and
// local IDs ascend in global ID order.
func TestPartitionShape(t *testing.T) {
	ds := testDataset(t, 300)
	r, err := NewRouter(ds, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumShards() != 4 {
		t.Fatalf("NumShards = %d", r.NumShards())
	}
	seen := make(map[trajectory.TrajID]bool)
	total := 0
	var prevHi uint32
	for si := 0; si < r.NumShards(); si++ {
		sh := r.Shard(si)
		lo, hi := sh.ZRange()
		if si == 0 && lo != 0 {
			t.Fatalf("shard 0 starts at %d", lo)
		}
		if si > 0 && lo != prevHi {
			t.Fatalf("shard %d range [%d,%d) does not abut previous end %d", si, lo, hi, prevHi)
		}
		if hi < lo {
			t.Fatalf("shard %d inverted range [%d,%d)", si, lo, hi)
		}
		prevHi = hi
		var prev trajectory.TrajID
		for li, gid := range sh.globalIDs {
			if seen[gid] {
				t.Fatalf("trajectory %d in two shards", gid)
			}
			seen[gid] = true
			if li > 0 && gid <= prev {
				t.Fatalf("shard %d: local order not ascending in global IDs (%d after %d)", si, gid, prev)
			}
			prev = gid
			total++
		}
	}
	if total != len(ds.Trajs) {
		t.Fatalf("partition covers %d of %d trajectories", total, len(ds.Trajs))
	}
	if prevHi != uint32(1)<<(2*uint(DefaultPartitionDepth)) {
		t.Fatalf("last shard ends at %d, want full curve", prevHi)
	}
}

// TestShardedMatchesSingle is the package-local differential gate (the
// full-preset version lives in internal/enginetest): K-shard scatter-gather
// results must be identical to the unpartitioned engine's for ATSQ and
// OATSQ across shard counts, including K larger than the corpus spread.
func TestShardedMatchesSingle(t *testing.T) {
	ds := testDataset(t, 300)
	oracle := singleEngine(t, ds)
	qs := workload(t, ds, 20)
	for _, k := range []int{1, 2, 4, 7} {
		r, err := NewRouter(ds, Config{Shards: k})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		e := r.NewEngine()
		for qi, q := range qs {
			for _, ordered := range []bool{false, true} {
				req := query.Request{Query: q, K: 9, Ordered: ordered}
				want, err1 := oracle.Search(context.Background(), req)
				got, err2 := e.Search(context.Background(), req)
				if err1 != nil || err2 != nil {
					t.Fatalf("K=%d q%d: %v / %v", k, qi, err1, err2)
				}
				requireIdentical(t, "K="+string(rune('0'+k)), want.Results, got.Results)
				st := got.Stats
				if st.ShardsSearched+st.ShardsSkipped != k {
					t.Fatalf("K=%d q%d: searched %d + skipped %d != %d", k, qi, st.ShardsSearched, st.ShardsSkipped, k)
				}
			}
		}
	}
}

// TestBoundaryStraddlingQuery pins the router edge case of a query whose
// points straddle a shard boundary: both neighbouring shards must be
// searched (their bounds both contain query points) and the merge must be
// exact.
func TestBoundaryStraddlingQuery(t *testing.T) {
	ds := testDataset(t, 300)
	oracle := singleEngine(t, ds)
	r, err := NewRouter(ds, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := r.NewEngine()
	// Build a query from points of trajectories owned by two different
	// shards, so its envelope necessarily spans the shard boundary.
	s0, s1 := r.Shard(0), r.Shard(3)
	if len(s0.globalIDs) == 0 || len(s1.globalIDs) == 0 {
		t.Skip("partition left an end shard empty")
	}
	p0, ok0 := firstActPoint(ds.Trajs[s0.globalIDs[0]])
	p1, ok1 := firstActPoint(ds.Trajs[s1.globalIDs[0]])
	if !ok0 || !ok1 {
		t.Skip("boundary trajectories carry no activities")
	}
	q := query.Query{Pts: []query.Point{
		{Loc: p0.Loc, Acts: p0.Acts},
		{Loc: p1.Loc, Acts: p1.Acts},
	}}
	if err := q.Validate(); err != nil {
		t.Skipf("constructed query invalid: %v", err)
	}
	want := mustSearch(t, oracle, query.Request{Query: q, K: 9}).Results
	got := mustSearch(t, e, query.Request{Query: q, K: 9})
	requireIdentical(t, "straddle", want, got.Results)
	if st := got.Stats; st.ShardsSearched < 2 {
		t.Fatalf("straddling query searched only %d shard(s)", st.ShardsSearched)
	}
}

// TestEmptyShard: more shards than distinct cells leaves empty shards;
// they must be planned around (skipped), accept inserts into their region,
// and stay exact.
func TestEmptyShard(t *testing.T) {
	ds := testDataset(t, 3)
	r, err := NewRouter(ds, Config{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	empty := -1
	for si := 0; si < r.NumShards(); si++ {
		if _, has := r.Shard(si).Bounds(); !has {
			empty = si
			break
		}
	}
	if empty < 0 {
		t.Fatal("expected at least one empty shard with K=5 over 3 trajectories")
	}
	oracle := singleEngine(t, ds)
	e := r.NewEngine()
	qs := workload(t, ds, 5)
	for qi, q := range qs {
		want := mustSearch(t, oracle, query.Request{Query: q, K: 5}).Results
		got := mustSearch(t, e, query.Request{Query: q, K: 5})
		requireIdentical(t, "empty-shard", want, got.Results)
		if st := got.Stats; st.ShardsSearched+st.ShardsSkipped != 5 {
			t.Fatalf("q%d: plan does not cover all shards: %+v", qi, st)
		}
	}
}

// TestAllTombstonedShard deletes every trajectory of one shard and checks
// searches stay exact (the shard is searched — its stale bounds still
// attract the planner — but contributes nothing).
func TestAllTombstonedShard(t *testing.T) {
	ds := testDataset(t, 200)
	r, err := NewRouter(ds, Config{Shards: 4, Delta: delta.Config{CompactThreshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle with the same deletes applied.
	od, err := delta.NewDynamic(ds, delta.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	victim := r.Shard(1)
	if len(victim.globalIDs) == 0 {
		t.Fatal("shard 1 unexpectedly empty")
	}
	for _, gid := range victim.globalIDs {
		if err := r.Delete(gid); err != nil {
			t.Fatalf("router delete %d: %v", gid, err)
		}
		if err := od.Delete(gid); err != nil {
			t.Fatalf("oracle delete %d: %v", gid, err)
		}
	}
	oracle := od.NewEngine()
	e := r.NewEngine()
	for _, q := range workload(t, ds, 10) {
		want := mustSearch(t, oracle, query.Request{Query: q, K: 9}).Results
		got := mustSearch(t, e, query.Request{Query: q, K: 9}).Results
		requireIdentical(t, "tombstoned", want, got)
	}
}

// TestKLargerThanShardCorpus: k above any single shard's trajectory count
// must return the union's matches, identically to the single index.
func TestKLargerThanShardCorpus(t *testing.T) {
	ds := testDataset(t, 120)
	oracle := singleEngine(t, ds)
	r, err := NewRouter(ds, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := r.NewEngine()
	for _, q := range workload(t, ds, 6) {
		want := mustSearch(t, oracle, query.Request{Query: q, K: 10_000}).Results
		got := mustSearch(t, e, query.Request{Query: q, K: 10_000}).Results
		requireIdentical(t, "bigk", want, got)
	}
}

// TestInsertRoutingAndGlobalIDs: inserts route to the shard owning their
// first point's cell, receive dense global IDs identical to a single
// index's, and become searchable with those IDs.
func TestInsertRoutingAndGlobalIDs(t *testing.T) {
	ds := testDataset(t, 150)
	base := ds.Sample(100)
	base.Name = ds.Name
	r, err := NewRouter(base, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	od, err := delta.NewDynamic(base, delta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range ds.Trajs[100:] {
		gid, err := r.Insert(trajectory.Trajectory{Pts: tr.Pts})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		oid, err := od.Insert(trajectory.Trajectory{Pts: tr.Pts})
		if err != nil {
			t.Fatalf("oracle insert %d: %v", i, err)
		}
		if gid != oid {
			t.Fatalf("insert %d: router assigned %d, single index %d", i, gid, oid)
		}
		// The insert landed in the shard owning its first point's cell.
		wantShard := r.layout.Route(tr.Pts)
		if o := r.owners[gid]; int(o.shard) != wantShard {
			t.Fatalf("insert %d routed to shard %d, want %d", i, o.shard, wantShard)
		}
	}
	oracle := od.NewEngine()
	e := r.NewEngine()
	for _, q := range workload(t, ds, 10) {
		want := mustSearch(t, oracle, query.Request{Query: q, K: 9}).Results
		got := mustSearch(t, e, query.Request{Query: q, K: 9}).Results
		requireIdentical(t, "insert", want, got)
	}
	st := r.Stats()
	if st.NextID != 150 {
		t.Fatalf("NextID = %d, want 150", st.NextID)
	}
}

// TestDeleteUnknown mirrors the dynamic index's delete contract.
func TestDeleteUnknown(t *testing.T) {
	ds := testDataset(t, 20)
	r, err := NewRouter(ds, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(999); err == nil {
		t.Fatal("deleting unknown ID succeeded")
	}
	if err := r.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(3); err != nil {
		t.Fatalf("re-delete not idempotent: %v", err)
	}
}

// TestQueryLB sanity-checks the planner's bound: zero inside a shard's
// bounds, positive outside, +Inf for an empty shard.
func TestQueryLB(t *testing.T) {
	ds := testDataset(t, 100)
	r, err := NewRouter(ds, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sh := r.Shard(0)
	b, has := sh.Bounds()
	if !has {
		t.Fatal("shard 0 empty")
	}
	inside := b.Center()
	if lb := sh.bounds.QueryLB([]geo.Point{inside}); lb != 0 {
		t.Fatalf("inside point LB = %v", lb)
	}
	outside := geo.Point{X: b.MaxX + 10, Y: b.MaxY + 10}
	if lb := sh.bounds.QueryLB([]geo.Point{outside}); lb <= 0 {
		t.Fatalf("outside point LB = %v", lb)
	}
	var empty Bounds
	if lb := empty.QueryLB([]geo.Point{inside}); !math.IsInf(lb, 1) {
		t.Fatalf("empty shard LB = %v", lb)
	}
}

// TestCompactAllKeepsResults compacts every shard and re-checks exactness.
func TestCompactAllKeepsResults(t *testing.T) {
	ds := testDataset(t, 150)
	base := ds.Sample(120)
	base.Name = ds.Name
	r, err := NewRouter(base, Config{Shards: 3, Delta: delta.Config{CompactThreshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	od, err := delta.NewDynamic(base, delta.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Trajs[120:] {
		if _, err := r.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			t.Fatal(err)
		}
		if _, err := od.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := od.CompactNow(); err != nil {
		t.Fatal(err)
	}
	oracle := od.NewEngine()
	e := r.NewEngine()
	for _, q := range workload(t, ds, 10) {
		want := mustSearch(t, oracle, query.Request{Query: q, K: 9}).Results
		got := mustSearch(t, e, query.Request{Query: q, K: 9}).Results
		requireIdentical(t, "compacted", want, got)
	}
}

// countingLeg records the stats its wrapped leg reports for one search.
type countingLeg struct {
	Leg
	st query.SearchStats
}

func (l *countingLeg) Search(ctx context.Context, req query.Request, shared *query.SharedTopK) (query.SearchStats, error) {
	st, err := l.Leg.Search(ctx, req, shared)
	l.st = st
	return st, err
}

// TestRouterBoxScreenedSumsLegs: a sharded search reports as box-screened,
// order-rejected and span-rejected exactly the candidates its legs did,
// summed, and the legs do screen and reject.
func TestRouterBoxScreenedSumsLegs(t *testing.T) {
	ds := testDataset(t, 600)
	r, err := NewRouter(ds, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := r.NewEngine().scratch.New()
	legs := make([]Leg, len(f.legs))
	counting := make([]*countingLeg, len(f.legs))
	for i, l := range f.legs {
		counting[i] = &countingLeg{Leg: l}
		legs[i] = counting[i]
	}
	reqs := []query.Request{
		{K: 5},
		{K: 5, Ordered: true},
		{K: 5, Subtrajectory: true, MaxSpanPoints: 3},
	}
	var total query.SearchStats
	for qi, q := range workload(t, ds, 12) {
		for _, req := range reqs {
			req.Query = q
			for _, l := range counting {
				l.st = query.SearchStats{}
			}
			resp, err := f.planner.Search(context.Background(), req, legs)
			if err != nil {
				t.Fatal(err)
			}
			var sum query.SearchStats
			for _, l := range counting {
				sum.Add(l.st)
			}
			got := resp.Stats
			if got.BoxScreened != sum.BoxScreened || got.OrderRejected != sum.OrderRejected || got.SpanRejected != sum.SpanRejected || got.BoxScreened > got.Scored {
				t.Fatalf("q%d ordered=%v sub=%v: router BoxScreened %d, OrderRejected %d, SpanRejected %d; legs %d, %d, %d; Scored %d",
					qi, req.Ordered, req.Subtrajectory, got.BoxScreened, got.OrderRejected, got.SpanRejected,
					sum.BoxScreened, sum.OrderRejected, sum.SpanRejected, got.Scored)
			}
			total.Add(sum)
		}
	}
	if total.BoxScreened == 0 || total.OrderRejected == 0 || total.SpanRejected == 0 {
		t.Fatalf("legs box-screened %d, order-rejected %d, span-rejected %d: each must fire", total.BoxScreened, total.OrderRejected, total.SpanRejected)
	}
}
