package enginetest

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/gat"
	"activitytraj/internal/geo"
	"activitytraj/internal/grid"
	"activitytraj/internal/matcher"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// GAT retrieval against a full scan. The searcher pulls a sparse subtree of
// the grid out of the ITL arena in one pop instead of walking it leaf by
// leaf; these tests aim at the shapes that path has to get right — a pull
// that covers the whole index, one whose every trajectory is tombstoned,
// one with only delta cells below it, one a Region cuts through — and the
// fuzz target throws random small worlds at it. The oracle shares nothing
// with retrieval: it scores every live trajectory.

// world is a small corpus held the way a dynamic index holds it: a base
// dataset, trajectories inserted into the delta on top, and tombstones
// (IDs: base first, then delta in insertion order).
type world struct {
	base, delta []trajectory.Trajectory
	dead        []trajectory.TrajID
	depth       int
}

// open builds the dynamic index and returns its engine beside the live
// corpus by ID (a tombstoned trajectory keeps its slot, without points).
func (w world) open(t testing.TB) (query.Engine, []trajectory.Trajectory) {
	t.Helper()
	ds := &trajectory.Dataset{Name: "world"}
	for _, tr := range w.base {
		ds.Trajs = append(ds.Trajs, trajectory.Trajectory{ID: trajectory.TrajID(len(ds.Trajs)), Pts: tr.Pts})
	}
	dyn, err := delta.NewDynamic(ds, delta.Config{
		GAT:              gat.Config{Depth: w.depth, MemLevels: 1 + w.depth/2},
		CompactThreshold: -1,
	})
	if err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	live := slices.Clone(ds.Trajs)
	for _, tr := range w.delta {
		id, err := dyn.Insert(trajectory.Trajectory{Pts: tr.Pts})
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		if int(id) != len(live) {
			t.Fatalf("insert got ID %d, want %d", id, len(live))
		}
		live = append(live, trajectory.Trajectory{ID: id, Pts: tr.Pts})
	}
	for _, id := range w.dead {
		if err := dyn.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		live[id].Pts = nil
	}
	return dyn.NewEngine(), live
}

// grid rebuilds the grid gat.Build fits to the base corpus.
func (w world) grid(t testing.TB) *grid.Grid {
	t.Helper()
	ds := &trajectory.Dataset{Trajs: w.base}
	origin, side := grid.FitRegion(ds.Bounds(), 0.01)
	g, err := grid.New(origin, side, w.depth)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

// bruteScan scores every trajectory against req with the matcher over rows
// built from all its points — no index, no containment screen, no shared
// bound — and returns, in ascending (Dist, ID) order, every trajectory a
// search may report: those that match at all and, with InitialBound,
// within it.
func bruteScan(trajs []trajectory.Trajectory, req query.Request) []query.Result {
	var m matcher.Matcher
	var rs []query.Result
	for i := range trajs {
		tr := &trajs[i]
		rows := matcher.BuildRowsFromPoints(req.Query.Pts, tr.Pts)
		if req.Region != nil {
			for ri := range rows {
				row := &rows[ri]
				kept := matcher.QueryRow{NumActs: row.NumActs}
				for j, pi := range row.Idx {
					if req.Region.ContainsPoint(tr.Pts[pi].Loc) {
						kept.Idx = append(kept.Idx, pi)
						kept.Dist = append(kept.Dist, row.Dist[j])
						kept.Mask = append(kept.Mask, row.Mask[j])
					}
				}
				rows[ri] = kept
			}
		}
		var d float64
		switch {
		case req.Subtrajectory:
			d = bruteSubDist(&m, len(tr.Pts), rows, req.Ordered, req.MinSpanPoints, req.MaxSpanPoints)
		case req.Ordered:
			d = m.MinOrderMatch(len(tr.Pts), rows, matcher.Inf)
		default:
			d = m.MinMatch(rows, matcher.Inf)
		}
		if math.IsInf(d, 1) || req.InitialBound > 0 && d > req.InitialBound {
			continue
		}
		rs = append(rs, query.Result{ID: tr.ID, Dist: d})
	}
	slices.SortFunc(rs, func(a, b query.Result) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return rs
}

// bruteTopK is the scan's answer to req: its first K results.
func bruteTopK(trajs []trajectory.Trajectory, req query.Request) []query.Result {
	rs := bruteScan(trajs, req)
	return rs[:min(len(rs), max(req.K, 1))]
}

// requireBrute searches req and requires the scan's top-k distances, each
// reported for a trajectory the scan gives that distance (two trajectories
// tied to within fp noise may swap places; nothing else may differ).
func requireBrute(t *testing.T, e query.Engine, live []trajectory.Trajectory, req query.Request) query.Response {
	t.Helper()
	resp, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	all := bruteScan(live, req)
	want := all[:min(len(all), max(req.K, 1))]
	ok := sameDists(distVector(want), distVector(resp.Results))
	for _, r := range resp.Results {
		ok = ok && slices.ContainsFunc(all, func(b query.Result) bool {
			return b.ID == r.ID && sameDists([]float64{b.Dist}, []float64{r.Dist})
		})
	}
	if !ok {
		t.Fatalf("request %+v\nbrute: %v\nGAT  : %v", req, want, resp.Results)
	}
	return resp
}

func pt(x, y float64, acts ...trajectory.ActivityID) trajectory.Point {
	return trajectory.Point{Loc: geo.Point{X: x, Y: y}, Acts: trajectory.NewActivitySet(acts...)}
}

func traj(pts ...trajectory.Point) trajectory.Trajectory { return trajectory.Trajectory{Pts: pts} }

// tinyBase occupies twelve leaves of a depth-6 grid over roughly
// [4, 96]², all in the SW, SE and NW quadrants: fewer than a bucket, so
// every level-1 cell is pulled whole on its first pop, and nothing in the
// NE quadrant.
var tinyBase = []trajectory.Trajectory{
	traj(pt(5, 5, 1), pt(10, 12, 2)),
	traj(pt(20, 30, 1, 2), pt(25, 35, 3)),
	traj(pt(90, 10, 1), pt(95, 5, 2)),
	traj(pt(5, 95, 1), pt(12, 90, 2)),
	traj(pt(30, 8, 1), pt(40, 12, 2)),
	traj(pt(45, 45, 1), pt(48, 40, 2)),
}

func queryAt(x1, y1, x2, y2 float64) query.Query {
	return query.Query{Pts: []query.Point{
		{Loc: geo.Point{X: x1, Y: y1}, Acts: trajectory.NewActivitySet(1)},
		{Loc: geo.Point{X: x2, Y: y2}, Acts: trajectory.NewActivitySet(2)},
	}}
}

// TestRetrievalVsBrute is the table of pointed cases; every one is compared
// with bruteTopK and may check the counters that show its path was taken.
func TestRetrievalVsBrute(t *testing.T) {
	westHalf := geo.NewRect(0, 0, 22, 100) // cuts through the SW and NW level-1 cells
	cases := []struct {
		name  string
		w     world
		req   query.Request
		check func(t *testing.T, w world, resp query.Response)
	}{
		{
			name: "whole index under the bucket size",
			w:    world{base: tinyBase, depth: 6},
			req:  query.Request{Query: queryAt(22, 28, 26, 33), K: 3},
			check: func(t *testing.T, w world, resp query.Response) {
				// Two query points, at most four level-1 cells each.
				if resp.Stats.PQPops > 8 || resp.Stats.Batches != 1 {
					t.Errorf("pops=%d batches=%d: the descent went below level 1", resp.Stats.PQPops, resp.Stats.Batches)
				}
			},
		},
		{
			name: "K larger than the corpus",
			w:    world{base: tinyBase, depth: 6},
			req:  query.Request{Query: queryAt(22, 28, 26, 33), K: 100, Ordered: true},
		},
		{
			name: "pulled subtree whose every trajectory is tombstoned",
			w:    world{base: tinyBase, dead: []trajectory.TrajID{0, 1, 4, 5}, depth: 6}, // all of SW
			req:  query.Request{Query: queryAt(22, 28, 26, 33), K: 3},
			check: func(t *testing.T, w world, resp query.Response) {
				if resp.Stats.Candidates != 2 {
					t.Errorf("candidates=%d, want the two live trajectories", resp.Stats.Candidates)
				}
			},
		},
		{
			name: "delta-only cells inside a base-empty subtree",
			w: world{base: tinyBase, depth: 6, delta: []trajectory.Trajectory{
				traj(pt(80, 80, 1), pt(85, 75, 2)),
				traj(pt(60, 90, 1), pt(62, 88, 2)),
			}},
			req: query.Request{Query: queryAt(81, 80, 84, 76), K: 2},
			check: func(t *testing.T, w world, resp query.Response) {
				if resp.Stats.DeltaCandidates != 2 {
					t.Errorf("delta candidates=%d, want both NE inserts", resp.Stats.DeltaCandidates)
				}
			},
		},
		{
			// Z = 2^32-1: an exclusive upper bound on this leaf, or on any
			// cell it is the last leaf of, does not fit a uint32.
			name: "depth 16, an insert in the grid's last leaf",
			w: world{base: tinyBase, depth: 16, delta: []trajectory.Trajectory{
				traj(pt(95.4499, 95.4499, 1), pt(95.4499, 95.4499, 2)),
			}},
			req: query.Request{Query: queryAt(95, 95, 95, 95), K: 1},
			check: func(t *testing.T, w world, resp query.Response) {
				g := w.grid(t)
				if z := g.LeafAt(geo.Point{X: 95.4499, Y: 95.4499}).Z; z != math.MaxUint32 {
					t.Fatalf("the insert sits in leaf %d, not the last one", z)
				}
				if len(resp.Results) != 1 || int(resp.Results[0].ID) != len(w.base) {
					t.Errorf("results=%v, want the insert", resp.Results)
				}
			},
		},
		{
			name: "Region cutting through pulled subtrees",
			w: world{base: tinyBase, depth: 6, delta: []trajectory.Trajectory{
				traj(pt(15, 50, 1), pt(18, 52, 2)), // in the region
				traj(pt(30, 60, 1), pt(35, 62, 2)), // same level-1 cell, outside it
			}},
			req: query.Request{Query: queryAt(22, 28, 26, 33), K: 100, Region: &westHalf},
			check: func(t *testing.T, w world, resp query.Response) {
				// K exceeds the corpus, so every visible cell is pulled: the
				// candidates are exactly the trajectories with a query
				// activity in a leaf that meets the region.
				g, want := w.grid(t), 0
				for _, tr := range slices.Concat(w.base, w.delta) {
					if slices.ContainsFunc(tr.Pts, func(p trajectory.Point) bool {
						return (p.Acts.Contains(1) || p.Acts.Contains(2)) && g.CellRect(g.LeafAt(p.Loc)).Intersects(westHalf)
					}) {
						want++
					}
				}
				if resp.Stats.Candidates != want || want >= len(w.base)+len(w.delta) {
					t.Errorf("candidates=%d, want %d of %d: out-of-region leaves contributed", resp.Stats.Candidates, want, len(w.base)+len(w.delta))
				}
			},
		},
		{
			name: "InitialBound below the first pull",
			w:    world{base: tinyBase, depth: 6},
			req:  query.Request{Query: queryAt(70, 70, 72, 72), K: 3, InitialBound: 1},
			check: func(t *testing.T, w world, resp query.Response) {
				if len(resp.Results) != 0 || resp.Stats.Batches != 1 {
					t.Errorf("results=%v batches=%d under a bound nothing meets", resp.Results, resp.Stats.Batches)
				}
			},
		},
		{
			name: "overflow trajectory arrives in batch one",
			w: world{base: tinyBase, depth: 6, delta: []trajectory.Trajectory{
				traj(pt(150, 150, 1), pt(160, 150, 2)), // outside the grid's region
			}},
			req: query.Request{Query: queryAt(150, 150, 160, 150), K: 1},
			check: func(t *testing.T, w world, resp query.Response) {
				if len(resp.Results) != 1 || int(resp.Results[0].ID) != len(w.base) || resp.Results[0].Dist != 0 || resp.Stats.Batches != 1 {
					t.Errorf("results=%v batches=%d, want the overflow insert at distance 0 after one batch", resp.Results, resp.Stats.Batches)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, live := tc.w.open(t)
			resp := requireBrute(t, e, live, tc.req)
			if tc.check != nil {
				tc.check(t, tc.w, resp)
			}
		})
	}
}

// FuzzRetrievalVsBrute builds a random small world — corpus, grid depth
// 1..8, a delta share with some inserts pushed outside the grid's region,
// tombstones over both layers — and requires one of the five golden request
// shapes to answer exactly as the full scan does.
func FuzzRetrievalVsBrute(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(0), uint8(0), uint8(9))
	f.Add(int64(2), uint8(7), uint8(1), uint8(10), uint8(3), uint8(3))
	f.Add(int64(3), uint8(0), uint8(2), uint8(30), uint8(0), uint8(1))
	f.Add(int64(4), uint8(3), uint8(3), uint8(5), uint8(40), uint8(200))
	f.Add(int64(5), uint8(6), uint8(4), uint8(60), uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, depth, shape, nDelta, nDead, k uint8) {
		rng := rand.New(rand.NewSource(seed))
		ds, err := dataset.Generate(dataset.Config{
			Name: "fuzz", Seed: seed,
			NumTrajectories: 20 + rng.Intn(60), NumVenues: 40 + rng.Intn(200), VocabSize: 40,
			RegionW: 30, RegionH: 30, Clusters: 1 + rng.Intn(4),
			TrajLenMean: 6, TrajLenStd: 3,
		})
		if err != nil {
			t.Skip()
		}
		qs, err := queries.Generate(ds, queries.Config{NumQueries: 1, NumPoints: 2, ActsPerPoint: 2, DiameterKm: 10, Seed: seed})
		if err != nil || len(qs) == 0 {
			t.Skip()
		}
		n := len(ds.Trajs)
		baseN := max(1, n-int(nDelta)%n)
		w := world{base: ds.Trajs[:baseN], depth: 1 + int(depth)%8}
		for i, tr := range ds.Trajs[baseN:] {
			if i%5 == 4 { // an overflow insert: the same walk, east of the region
				pts := slices.Clone(tr.Pts)
				for j := range pts {
					pts[j].Loc.X += 40
				}
				tr.Pts = pts
			}
			w.delta = append(w.delta, tr)
		}
		for i := 0; i < int(nDead)%n; i++ {
			if id := trajectory.TrajID(rng.Intn(n)); !slices.Contains(w.dead, id) {
				w.dead = append(w.dead, id)
			}
		}
		req := goldenModes[int(shape)%len(goldenModes)].req(qs[0])
		req.K = int(k)
		e, live := w.open(t)
		requireBrute(t, e, live, req)
	})
}
