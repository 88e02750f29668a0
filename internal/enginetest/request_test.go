// Differential coverage for the per-request options of the redesigned
// Search(ctx, Request) surface: Region, InitialBound and WithMatches must
// behave identically across every engine family (IL is again the oracle),
// and the match covers must reconstruct the reported distances exactly.
package enginetest

import (
	"context"
	"math"
	"testing"

	"activitytraj/internal/delta"
	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

// allEngineFamilies builds the four classic engines plus the dynamic and
// 4-shard engines over the same dataset, so option tests sweep every
// Search implementation in the repository.
func allEngineFamilies(t testing.TB, ds *trajectory.Dataset) []query.Engine {
	t.Helper()
	_, engines := buildEngines(t, ds, gatCfgDefault())
	d, err := delta.NewDynamic(ds, delta.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	r, err := shard.NewRouter(ds, shard.Config{Shards: 4})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	return append(engines, d.NewEngine(), r.NewEngine())
}

// TestRegionAgreesAcrossEngines: a spatial match filter must produce
// identical result vectors from the cell-pruning GAT engines, the shard
// planner, and the post-filtering baselines; and a region covering the
// whole space must change nothing.
func TestRegionAgreesAcrossEngines(t *testing.T) {
	ds := testDataset(t)
	engines := allEngineFamilies(t, ds)
	qs := workload(t, ds, 12)
	ctx := context.Background()
	everywhere := geo.NewRect(-1e6, -1e6, 1e6, 1e6)

	for qi, q := range qs {
		// A region clipped around the query's envelope: large enough to
		// keep matches, small enough to actually filter.
		env := geo.BoundingRect(locsOf(q))
		region := geo.NewRect(env.MinX-3, env.MinY-3, env.MaxX+3, env.MaxY+1)

		for _, ordered := range []bool{false, true} {
			var ref, refAll []float64
			for _, e := range engines {
				resp, err := e.Search(ctx, query.Request{Query: q, K: 9, Ordered: ordered, Region: &region})
				if err != nil {
					t.Fatalf("q%d %s: %v", qi, e.Name(), err)
				}
				dv := distVector(resp.Results)
				if ref == nil {
					ref = dv
				} else if !sameDists(ref, dv) {
					t.Fatalf("q%d ordered=%v: %s region results disagree\nIL : %v\n%s: %v",
						qi, ordered, e.Name(), ref, e.Name(), dv)
				}

				all, err := e.Search(ctx, query.Request{Query: q, K: 9, Ordered: ordered, Region: &everywhere})
				if err != nil {
					t.Fatalf("q%d %s: %v", qi, e.Name(), err)
				}
				noRegion, err := e.Search(ctx, query.Request{Query: q, K: 9, Ordered: ordered})
				if err != nil {
					t.Fatalf("q%d %s: %v", qi, e.Name(), err)
				}
				if !sameDists(distVector(all.Results), distVector(noRegion.Results)) {
					t.Fatalf("q%d ordered=%v: %s all-covering region changed results", qi, ordered, e.Name())
				}
				if refAll == nil {
					refAll = distVector(noRegion.Results)
				}
			}
			// The filtered k-th distance can never beat the unrestricted
			// one (removing candidate points only raises match distances).
			if len(ref) > 0 && len(refAll) > 0 && ref[0] < refAll[0]-1e-9 {
				t.Fatalf("q%d ordered=%v: region top-1 %v beats unrestricted %v", qi, ordered, ref[0], refAll[0])
			}
		}
	}
}

func locsOf(q query.Query) []geo.Point {
	out := make([]geo.Point, len(q.Pts))
	for i, p := range q.Pts {
		out[i] = p.Loc
	}
	return out
}

// TestInitialBoundExactPrefix: seeding the threshold with B must return
// exactly the unbounded results at distance <= B — the bound prunes beyond
// it, never inside it — for every engine family.
func TestInitialBoundExactPrefix(t *testing.T) {
	ds := testDataset(t)
	engines := allEngineFamilies(t, ds)
	qs := workload(t, ds, 10)
	ctx := context.Background()
	for qi, q := range qs {
		for _, ordered := range []bool{false, true} {
			for _, e := range engines {
				full, err := e.Search(ctx, query.Request{Query: q, K: 9, Ordered: ordered})
				if err != nil {
					t.Fatalf("q%d %s: %v", qi, e.Name(), err)
				}
				if len(full.Results) < 2 {
					continue
				}
				b := full.Results[len(full.Results)/2].Dist
				if b == 0 {
					continue
				}
				bounded, err := e.Search(ctx, query.Request{Query: q, K: 9, Ordered: ordered, InitialBound: b})
				if err != nil {
					t.Fatalf("q%d %s bounded: %v", qi, e.Name(), err)
				}
				var want []query.Result
				for _, r := range full.Results {
					if r.Dist <= b {
						want = append(want, r)
					}
				}
				if len(bounded.Results) != len(want) {
					t.Fatalf("q%d ordered=%v %s: bound %v kept %d results, want %d\nfull   : %v\nbounded: %v",
						qi, ordered, e.Name(), b, len(bounded.Results), len(want), full.Results, bounded.Results)
				}
				for i := range want {
					if bounded.Results[i] != want[i] {
						t.Fatalf("q%d ordered=%v %s: bounded result %d = %v, want %v",
							qi, ordered, e.Name(), i, bounded.Results[i], want[i])
					}
				}
			}
		}
	}
}

// TestWithMatchesReconstructsDistance: the returned covers must (a) be one
// per query point per result, (b) cover each query point's activity set
// with that trajectory's points, (c) sum their point distances to exactly
// the reported match distance, and (d) comply with the query order for
// Ordered requests. Every engine family must satisfy all four.
func TestWithMatchesReconstructsDistance(t *testing.T) {
	ds := testDataset(t)
	engines := allEngineFamilies(t, ds)
	qs := workload(t, ds, 8)
	ctx := context.Background()
	for qi, q := range qs {
		for _, ordered := range []bool{false, true} {
			for _, e := range engines {
				resp, err := e.Search(ctx, query.Request{Query: q, K: 5, Ordered: ordered, WithMatches: true})
				if err != nil {
					t.Fatalf("q%d %s: %v", qi, e.Name(), err)
				}
				if len(resp.Matches) != len(resp.Results) {
					t.Fatalf("q%d %s: %d match sets for %d results", qi, e.Name(), len(resp.Matches), len(resp.Results))
				}
				for ri, r := range resp.Results {
					covers := resp.Matches[ri]
					if len(covers) != len(q.Pts) {
						t.Fatalf("q%d %s result %d: %d covers for %d query points", qi, e.Name(), ri, len(covers), len(q.Pts))
					}
					tr := &ds.Trajs[r.ID]
					var sum float64
					prevMax := int32(0)
					for pi, qp := range q.Pts {
						var acc trajectory.ActivitySet
						for _, idx := range covers[pi] {
							if int(idx) >= len(tr.Pts) {
								t.Fatalf("q%d %s result %d: match index %d out of range", qi, e.Name(), ri, idx)
							}
							p := tr.Pts[idx]
							sum += geo.Dist(qp.Loc, p.Loc)
							acc = acc.Union(p.Acts.Intersect(qp.Acts))
						}
						if len(acc) != len(qp.Acts) {
							t.Fatalf("q%d %s result %d point %d: cover %v covers %v, want %v",
								qi, e.Name(), ri, pi, covers[pi], acc, qp.Acts)
						}
						if ordered && len(covers[pi]) > 0 {
							if covers[pi][0] < prevMax {
								t.Fatalf("q%d %s result %d: cover %d starts at %d before previous end %d",
									qi, e.Name(), ri, pi, covers[pi][0], prevMax)
							}
							prevMax = covers[pi][len(covers[pi])-1]
						}
					}
					if math.Abs(sum-r.Dist) > 1e-9*(1+r.Dist) {
						t.Fatalf("q%d %s result %d: cover distance %v != reported %v", qi, e.Name(), ri, sum, r.Dist)
					}
				}
			}
		}
	}
}

// TestNonFiniteQueryLocationRejected: a query point at NaN or ±Inf in X or
// in Y has no distance to compare, so every engine family refuses it with
// the same validation error instead of answering — before the check, GAT
// and IL returned different IDs for a NaN location.
func TestNonFiniteQueryLocationRejected(t *testing.T) {
	ds := testDataset(t)
	engines := allEngineFamilies(t, ds)
	good := workload(t, ds, 1)[0]
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, axis := range []string{"X", "Y"} {
			q := query.Query{Pts: append([]query.Point(nil), good.Pts...)}
			last := &q.Pts[len(q.Pts)-1]
			if axis == "X" {
				last.Loc.X = v
			} else {
				last.Loc.Y = v
			}
			want := q.Validate()
			if want == nil {
				t.Fatalf("%s = %v: Validate accepted the query", axis, v)
			}
			for _, e := range engines {
				for _, ordered := range []bool{false, true} {
					resp, err := e.Search(context.Background(), query.Request{Query: q, K: 3, Ordered: ordered})
					if err == nil || err.Error() != want.Error() {
						t.Fatalf("%s %s = %v ordered=%v: error %v, want %v", e.Name(), axis, v, ordered, err, want)
					}
					if len(resp.Results) != 0 {
						t.Fatalf("%s %s = %v: answered %v", e.Name(), axis, v, resp.Results)
					}
				}
			}
		}
	}
}
