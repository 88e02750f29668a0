package enginetest

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/matcher"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
)

// bruteSubDist is the O(n²) reference the subtrajectory mode is pinned
// against: enumerate EVERY legal window and score each with the
// whole-trajectory algorithms over rows restricted to it. It shares no code
// with the span DP's run enumeration or pruning (the whole-trajectory
// algorithms themselves are pinned against exponential brutes in the
// matcher's property tests).
func bruteSubDist(m *matcher.Matcher, n int, rows []matcher.QueryRow, ordered bool, minSpan, maxSpan int) float64 {
	best := matcher.Inf
	for s := 0; s < n; s++ {
		for e := s; e < n; e++ {
			length := e - s + 1
			if minSpan > 0 && length < minSpan {
				continue
			}
			if maxSpan > 0 && length > maxSpan {
				continue
			}
			sub := matcher.RestrictRows(rows, int32(s), int32(e))
			var d float64
			if ordered {
				d = m.MinOrderMatch(length, sub, matcher.Inf)
			} else {
				d = m.MinMatch(sub, matcher.Inf)
			}
			if d < best {
				best = d
			}
		}
	}
	return best
}

// TestEnginesAgreeSubtrajectory pins all four engine families against the
// brute-force window oracle across span-limit shapes, ordered and
// unordered. With no limits the subtrajectory distance degenerates to the
// whole-trajectory one, so that case doubles as a regression gate for the
// classic mode running through the new code path.
func TestEnginesAgreeSubtrajectory(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gatCfgDefault())
	qs := workload(t, ds, 8)
	spans := []struct {
		name             string
		minSpan, maxSpan int
	}{
		{"unlimited", 0, 0},
		{"max5", 0, 5},
		{"max12", 0, 12},
		{"min3max8", 3, 8},
	}
	for _, sp := range spans {
		for _, ordered := range []bool{false, true} {
			for qi, q := range qs {
				want := bruteTopK(ds.Trajs, query.Request{
					Query: q, K: 9, Ordered: ordered,
					Subtrajectory: true, MinSpanPoints: sp.minSpan, MaxSpanPoints: sp.maxSpan,
				})
				for _, e := range engines {
					resp, err := e.Search(context.Background(), query.Request{
						Query: q, K: 9, Ordered: ordered,
						Subtrajectory: true,
						MinSpanPoints: sp.minSpan, MaxSpanPoints: sp.maxSpan,
					})
					if err != nil {
						t.Fatalf("%s q%d %s ordered=%v: %v", sp.name, qi, e.Name(), ordered, err)
					}
					if !sameDists(distVector(want), distVector(resp.Results)) {
						t.Fatalf("%s q%d %s ordered=%v disagrees with brute\nbrute: %v\n%s : %v",
							sp.name, qi, e.Name(), ordered, want, e.Name(), resp.Results)
					}
				}
			}
		}
	}
}

// TestSubtrajectoryTiersByteIdenticalLA is the cross-tier acceptance gate
// on the LA preset: static GAT, the dynamic (delta) engine, and the 4-shard
// scatter-gather engine must return byte-identical subtrajectory results —
// same IDs, bit-identical distances, identical per-query-point covers AND
// identical winning spans.
func TestSubtrajectoryTiersByteIdenticalLA(t *testing.T) {
	ds, err := dataset.Generate(dataset.LA(0.03))
	if err != nil {
		t.Fatalf("LA preset: %v", err)
	}
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 10, Seed: 42})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}

	ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
	if err != nil {
		t.Fatalf("trajstore: %v", err)
	}
	idx, err := gat.Build(ts, gatCfgDefault())
	if err != nil {
		t.Fatalf("gat build: %v", err)
	}
	static := gat.NewEngine(idx)

	dyn, err := delta.NewDynamic(ds, delta.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	router, err := shard.NewRouter(ds, shard.Config{Shards: 4})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	tiers := []query.Engine{static, dyn.NewEngine(), router.NewEngine()}
	names := []string{"gat", "delta", "shard"}

	for qi, q := range qs {
		for _, ordered := range []bool{false, true} {
			req := query.Request{
				Query: q, K: 7, Ordered: ordered,
				Subtrajectory: true, MaxSpanPoints: 12,
				WithMatches: true,
			}
			var ref query.Response
			for ti, e := range tiers {
				resp, err := e.Search(context.Background(), req)
				if err != nil {
					t.Fatalf("q%d ordered=%v %s: %v", qi, ordered, names[ti], err)
				}
				if len(resp.Spans) != len(resp.Results) {
					t.Fatalf("q%d ordered=%v %s: %d spans for %d results",
						qi, ordered, names[ti], len(resp.Spans), len(resp.Results))
				}
				for i, span := range resp.Spans {
					if w := int(span[1] - span[0] + 1); span[1] >= span[0] && w > 12 {
						t.Fatalf("q%d ordered=%v %s: result %d span %v wider than 12 points",
							qi, ordered, names[ti], i, span)
					}
				}
				if ti == 0 {
					ref = resp
					continue
				}
				requireByteIdentical(t, names[ti], ref.Results, resp.Results)
				if !reflect.DeepEqual(ref.Matches, resp.Matches) {
					t.Fatalf("q%d ordered=%v: %s covers differ from gat\ngat : %v\n%s: %v",
						qi, ordered, names[ti], ref.Matches, names[ti], resp.Matches)
				}
				if !reflect.DeepEqual(ref.Spans, resp.Spans) {
					t.Fatalf("q%d ordered=%v: %s spans differ from gat\ngat : %v\n%s: %v",
						qi, ordered, names[ti], ref.Spans, names[ti], resp.Spans)
				}
			}
		}
	}
}

// TestSubtrajectoryRequestValidation: malformed span options must fail
// identically across tiers (never silently diverge into different result
// sets).
func TestSubtrajectoryRequestValidation(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gatCfgDefault())
	dyn, err := delta.NewDynamic(ds, delta.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	router, err := shard.NewRouter(ds, shard.Config{Shards: 4})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	all := append([]query.Engine{}, engines...)
	all = append(all, dyn.NewEngine(), router.NewEngine())
	q := workload(t, ds, 1)[0]

	bad := []query.Request{
		{Query: q, K: 5, Subtrajectory: true, MinSpanPoints: -1},
		{Query: q, K: 5, Subtrajectory: true, MaxSpanPoints: -2},
		{Query: q, K: 5, Subtrajectory: true, MinSpanPoints: 9, MaxSpanPoints: 3},
		{Query: q, K: 5, MaxSpanPoints: 4}, // limits without the mode
	}
	for _, e := range all {
		for bi, req := range bad {
			if _, err := e.Search(context.Background(), req); err == nil {
				t.Fatalf("%s: bad request %d accepted", e.Name(), bi)
			}
		}
	}
}

// TestSubtrajectoryCancelledMidSearch mirrors TestGATCancelledMidSearch for
// the subtrajectory path: the countdown context must stop the span-scored
// search at a deterministic batch boundary with Truncated set.
func TestSubtrajectoryCancelledMidSearch(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gat.Config{Depth: 6, Lambda: 1})
	e := engines[3] // GAT
	qs := workload(t, ds, 3)
	for qi, q := range qs {
		// Budget 3: the pre-loop check and two loop-top checks pass; the
		// third loop iteration is cancelled — after exactly two batches.
		ctx := newCountdownCtx(3)
		resp, err := e.Search(ctx, query.Request{
			Query: q, K: 9, Subtrajectory: true, MaxSpanPoints: 8,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("q%d: want context.Canceled, got %v", qi, err)
		}
		if !resp.Truncated {
			t.Fatalf("q%d: cancelled subtrajectory response not marked Truncated", qi)
		}
		if resp.Stats.Batches != 2 {
			t.Fatalf("q%d: want exactly 2 batches before the countdown tripped, got %d", qi, resp.Stats.Batches)
		}
	}
}

// FuzzSubtrajectoryVsBrute fuzzes random queries and span limits against
// the O(n²) window oracle on a small corpus — the differential CI lane for
// the subtrajectory mode (run for a bounded time in ci.yml's fuzz block).
func FuzzSubtrajectoryVsBrute(f *testing.F) {
	ds, err := dataset.Generate(dataset.Config{
		Name:            "fuzz",
		Seed:            11,
		NumTrajectories: 80,
		NumVenues:       300,
		VocabSize:       120,
		RegionW:         30,
		RegionH:         30,
		Clusters:        5,
		TrajLenMean:     12,
		TrajLenStd:      5,
	})
	if err != nil {
		f.Fatalf("generate: %v", err)
	}
	ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
	if err != nil {
		f.Fatalf("trajstore: %v", err)
	}
	idx, err := gat.Build(ts, gatCfgDefault())
	if err != nil {
		f.Fatalf("gat build: %v", err)
	}
	engine := gat.NewEngine(idx)

	f.Add(int64(1), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(0), uint8(6), true)
	f.Add(int64(3), uint8(2), uint8(9), false)
	f.Add(int64(4), uint8(1), uint8(1), true)

	f.Fuzz(func(t *testing.T, seed int64, minS, maxS uint8, ordered bool) {
		qs, err := queries.Generate(ds, queries.Config{
			NumQueries:   1,
			NumPoints:    2,
			ActsPerPoint: 2,
			DiameterKm:   10,
			Seed:         seed,
		})
		if err != nil || len(qs) == 0 {
			t.Skip()
		}
		minSpan, maxSpan := int(minS%24), int(maxS%24)
		req := query.Request{
			Query: qs[0], K: 7, Ordered: ordered,
			Subtrajectory: true,
			MinSpanPoints: minSpan, MaxSpanPoints: maxSpan,
		}
		if req.ValidateSpan() != nil {
			t.Skip() // contradictory limits are rejected, nothing to compare
		}
		resp, err := engine.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		want := bruteTopK(ds.Trajs, req)
		if !sameDists(distVector(want), distVector(resp.Results)) {
			t.Fatalf("seed=%d min=%d max=%d ordered=%v\nbrute: %v\nGAT  : %v",
				seed, minSpan, maxSpan, ordered, want, resp.Results)
		}
	})
}
