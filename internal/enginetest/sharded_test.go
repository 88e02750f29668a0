package enginetest

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

// requireByteIdentical asserts the two result lists agree exactly — same
// IDs, bit-identical distances. The sharded engine computes every distance
// with the same matcher over the same coordinates as the single index, so
// even float equality must hold; any divergence means the scatter-gather
// merge or the cross-shard bound sharing pruned inexactly.
func requireByteIdentical(t *testing.T, label string, want, got []query.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: sharded returned %d results, single index %d\nsingle : %v\nsharded: %v",
			label, len(got), len(want), want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d differs\nsingle : %v\nsharded: %v", label, i, want, got)
		}
	}
}

// TestShardedDifferentialLA is the acceptance gate for the sharded serving
// layer: on the LA preset, a 4-shard scatter-gather engine (with planning
// and cross-shard bound sharing active) must return byte-identical top-k
// results to the unpartitioned dynamic engine — statically, with live
// inserts and deletes applied through both, and again after compaction.
func TestShardedDifferentialLA(t *testing.T) {
	ds, err := dataset.Generate(dataset.LA(0.03))
	if err != nil {
		t.Fatalf("LA preset: %v", err)
	}
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 12, Seed: 5})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	baseN := len(ds.Trajs) * 4 / 5
	base := ds.Sample(baseN)
	base.Name = ds.Name
	stream := ds.Trajs[baseN:]

	single, err := delta.NewDynamic(base, delta.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatalf("single: %v", err)
	}
	router, err := shard.NewRouter(base, shard.Config{
		Shards: 4,
		Delta:  delta.Config{CompactThreshold: -1},
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	oracle := single.NewEngine()
	sharded := router.NewEngine()

	ctx := context.Background()
	compare := func(label string) {
		t.Helper()
		for qi, q := range qs {
			for _, ordered := range []bool{false, true} {
				req := query.Request{Query: q, K: 9, Ordered: ordered}
				want, err1 := oracle.Search(ctx, req)
				got, err2 := sharded.Search(ctx, req)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s q%d ordered=%v: single err=%v sharded err=%v", label, qi, ordered, err1, err2)
				}
				requireByteIdentical(t, label, want.Results, got.Results)
			}
			// K < 1 is K = 1 on every tier (the query.Request.K contract).
			want, err1 := oracle.Search(ctx, query.Request{Query: q, K: 1})
			got, err2 := sharded.Search(ctx, query.Request{Query: q, K: 0})
			if err1 != nil || err2 != nil {
				t.Fatalf("%s q%d k=0: single err=%v sharded err=%v", label, qi, err1, err2)
			}
			requireByteIdentical(t, label+" k=0", want.Results, got.Results)
		}
	}

	compare("static")

	// Live phase: stream the held-out trajectories through both indexes,
	// interleaving deletes of existing IDs (the same sequence on both
	// sides) and differential searches while the deltas are hot.
	rng := rand.New(rand.NewSource(11))
	for i, tr := range stream {
		gid, err := router.Insert(trajectory.Trajectory{Pts: tr.Pts})
		if err != nil {
			t.Fatalf("router insert %d: %v", i, err)
		}
		oid, err := single.Insert(trajectory.Trajectory{Pts: tr.Pts})
		if err != nil {
			t.Fatalf("single insert %d: %v", i, err)
		}
		if gid != oid {
			t.Fatalf("insert %d: router ID %d != single ID %d", i, gid, oid)
		}
		if i%7 == 3 {
			victim := trajectory.TrajID(rng.Intn(int(gid)))
			if err := router.Delete(victim); err != nil {
				t.Fatalf("router delete %d: %v", victim, err)
			}
			if err := single.Delete(victim); err != nil {
				t.Fatalf("single delete %d: %v", victim, err)
			}
		}
		if i%25 == 10 {
			compare("live")
		}
	}
	compare("post-stream")

	if err := router.CompactAll(); err != nil {
		t.Fatalf("CompactAll: %v", err)
	}
	if err := single.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	compare("compacted")
}

// TestShardedParallelStress serves a sharded engine through ParallelEngine
// while inserts and deletes stream through the router — the concurrency
// gate for the scatter-gather path (run under -race in CI). Results are
// not compared here (mutations land mid-flight); the differential test
// above owns exactness.
func TestShardedParallelStress(t *testing.T) {
	ds := testDataset(t)
	baseN := len(ds.Trajs) * 3 / 4
	base := ds.Sample(baseN)
	base.Name = ds.Name
	router, err := shard.NewRouter(base, shard.Config{
		Shards: 4,
		Delta:  delta.Config{CompactThreshold: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	pe := query.NewParallelEngine(router.NewEngine(), 4)
	qs := workload(t, ds, 16)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, tr := range ds.Trajs[baseN:] {
			if _, err := router.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			if i%5 == 2 {
				if err := router.Delete(trajectory.TrajID(i)); err != nil {
					t.Errorf("delete %d: %v", i, err)
					return
				}
			}
		}
	}()
	for round := 0; round < 4; round++ {
		reqs := requests(qs, 9)
		for i := range reqs {
			reqs[i].Ordered = round%2 == 1
		}
		if _, err := pe.SearchAll(context.Background(), reqs); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	wg.Wait()
	st := router.Stats()
	if st.NextID != len(ds.Trajs) {
		t.Fatalf("NextID = %d, want %d", st.NextID, len(ds.Trajs))
	}
}

// TestLegsInterleave pins what the shared bound buys when there are fewer
// processors than legs: a leg yields after every λ-batch, so the four legs
// of a routed search advance round-robin and each batch is pruned by what
// the others have scored — as in one best-first search over the corpus.
// With GOMAXPROCS(1) and a leg that never yields, each leg would run to
// completion on the bound of the legs before it. The pool is 100 requests
// shaped like the repository benchmark's: 20 sessions of 5 searches, each
// moving the last one's points by a short random step, one session in ten
// ordered and two in ten subtrajectory. The routed searches' summed
// Candidates must stay within 1.15x one unsharded index's, and every answer
// byte-identical to it. Not parallel: it owns GOMAXPROCS.
func TestLegsInterleave(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds, err := dataset.Generate(dataset.LA(0.125))
	if err != nil {
		t.Fatalf("LA preset: %v", err)
	}
	base := ds.Sample(len(ds.Trajs) * 4 / 5)
	base.Name = ds.Name
	anchors, err := queries.Generate(base, queries.Config{NumQueries: 20, Seed: 12})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	single, err := delta.NewDynamic(base, delta.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatalf("single: %v", err)
	}
	router, err := shard.NewRouter(base, shard.Config{Shards: 4, Delta: delta.Config{CompactThreshold: -1}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	oracle, sharded := single.NewEngine(), router.NewEngine()
	rng := rand.New(rand.NewSource(12))
	var one, routed int
	for si, q := range anchors {
		for step := 0; step < 5; step++ {
			req := query.Request{Query: q, K: queries.DefaultK}
			switch si % 10 {
			case 9:
				req.Ordered = true
			case 2, 6:
				req.Subtrajectory, req.MaxSpanPoints = true, 12
			}
			want, err1 := oracle.Search(context.Background(), req)
			got, err2 := sharded.Search(context.Background(), req)
			if err1 != nil || err2 != nil {
				t.Fatalf("session %d step %d: single err=%v sharded err=%v", si, step, err1, err2)
			}
			requireByteIdentical(t, "interleave", want.Results, got.Results)
			one += want.Stats.Candidates
			routed += got.Stats.Candidates
			next := query.Query{Pts: make([]query.Point, len(q.Pts))}
			for i, p := range q.Pts {
				p.Loc.X += rng.NormFloat64() * 0.5
				p.Loc.Y += rng.NormFloat64() * 0.5
				next.Pts[i] = p
			}
			q = next
		}
	}
	ratio := float64(routed) / float64(one)
	t.Logf("candidates: routed %d, one index %d (%.3fx)", routed, one, ratio)
	if ratio > 1.15 {
		t.Fatalf("routed searches retrieved %d candidates, %.3fx one index's %d: the legs did not interleave", routed, ratio, one)
	}
}
