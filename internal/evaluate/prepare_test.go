package evaluate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"activitytraj/internal/geo"
	"activitytraj/internal/matcher"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// requireRowsEqual compares rows field by field, distances by their bits.
func requireRowsEqual(t *testing.T, got, want []matcher.QueryRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.NumActs != w.NumActs || !slices.Equal(g.Idx, w.Idx) || !slices.Equal(g.Mask, w.Mask) {
			t.Fatalf("row %d: got acts=%d idx=%v mask=%v, want acts=%d idx=%v mask=%v",
				i, g.NumActs, g.Idx, g.Mask, w.NumActs, w.Idx, w.Mask)
		}
		if len(g.Dist) != len(w.Dist) {
			t.Fatalf("row %d: %d distances, want %d", i, len(g.Dist), len(w.Dist))
		}
		for j := range w.Dist {
			if math.Float64bits(g.Dist[j]) != math.Float64bits(w.Dist[j]) {
				t.Fatalf("row %d entry %d: dist %v, want %v", i, j, g.Dist[j], w.Dist[j])
			}
		}
	}
}

// TestBitmapRowsEqualPointScan: the rows prepare builds from posting lists
// through the bitmaps are exactly the rows a scan over the in-memory points
// builds — on trajectory lengths at and around the bitmap's word edges,
// with an activity carried by the last point only, with a query activity
// two query points share, and under a Region.
func TestBitmapRowsEqualPointScan(t *testing.T) {
	const lastOnly trajectory.ActivityID = 9
	rng := rand.New(rand.NewSource(41))
	lengths := []int{0, 1, 63, 64, 65, 129}
	ds := &trajectory.Dataset{Name: "edges"}
	for i, n := range lengths {
		tr := trajectory.Trajectory{ID: trajectory.TrajID(i)}
		for p := 0; p < n; p++ {
			var acts []trajectory.ActivityID
			for a := trajectory.ActivityID(1); a <= 6; a++ {
				if rng.Intn(3) == 0 {
					acts = append(acts, a)
				}
			}
			if p == n-1 {
				acts = append(acts, 1, lastOnly) // 1 so the shared activity is never absent
			}
			tr.Pts = append(tr.Pts, trajectory.Point{
				Loc:  geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
				Acts: trajectory.NewActivitySet(acts...),
			})
		}
		ds.Trajs = append(ds.Trajs, tr)
	}
	ts, err := BuildTrajStore(ds, TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	qs := map[string]query.Query{
		"shared activity": query.New(
			query.Point{Loc: geo.Point{X: 2, Y: 3}, Acts: trajectory.NewActivitySet(1, 4)},
			query.Point{Loc: geo.Point{X: 7, Y: 6}, Acts: trajectory.NewActivitySet(1, 2, lastOnly)},
		),
		"last point only": query.New(
			query.Point{Loc: geo.Point{X: 5, Y: 5}, Acts: trajectory.NewActivitySet(lastOnly)},
		),
		"no activities": query.New(query.Point{Loc: geo.Point{X: 1, Y: 1}}),
	}
	regions := map[string]*geo.Rect{"": nil, " in region": {MinX: 2, MinY: 2, MaxX: 8, MaxY: 7}}
	for qname, q := range qs {
		for rname, region := range regions {
			t.Run(qname+rname, func(t *testing.T) {
				ev := NewEvaluator(ts)
				ev.SetRegion(region)
				scored := 0
				for ti := range ds.Trajs {
					tr := &ds.Trajs[ti]
					var stats query.SearchStats
					rows, n, out, err := ev.prepare(q, tr.ID, &stats)
					if err != nil {
						t.Fatalf("%d points: %v", len(tr.Pts), err)
					}
					pts := tr.Pts
					if region != nil {
						// The reference sees an out-of-region point as one
						// carrying nothing.
						pts = slices.Clone(pts)
						for i := range pts {
							if !region.ContainsPoint(pts[i].Loc) {
								pts[i].Acts = nil
							}
						}
					}
					want := matcher.BuildRowsFromPoints(q.Pts, pts)
					if !tr.ActivityUnion().ContainsAll(q.AllActs()) {
						if out != RejectedAPL {
							t.Fatalf("%d points: outcome %v for a trajectory lacking a query activity", len(tr.Pts), out)
						}
						continue
					}
					if out != Scored || n != len(tr.Pts) {
						t.Fatalf("%d points: outcome %v, length %d", len(tr.Pts), out, n)
					}
					requireRowsEqual(t, rows, want)
					scored++
				}
				if scored < 3 {
					t.Fatalf("only %d of %d trajectories reached the row builder", scored, len(ds.Trajs))
				}
			})
		}
	}
}

// TestLocateActsAgreesWithHas: the one-pass header resolve accepts exactly
// the activity sets per-activity Has accepts, and names each activity's
// header position — on random headers, with the absent activity first, in
// the middle and last, and with queries longer than the header.
func TestLocateActsAgreesWithHas(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	randomSet := func(n, span int) trajectory.ActivitySet {
		ids := make([]trajectory.ActivityID, n)
		for i := range ids {
			ids[i] = trajectory.ActivityID(rng.Intn(span))
		}
		return trajectory.NewActivitySet(ids...)
	}
	check := func(hdr, want trajectory.ActivitySet) {
		t.Helper()
		apl := &APL{acts: hdr}
		all := true
		for _, a := range want {
			all = all && apl.Has(a)
		}
		pos := make([]int, len(want))
		if got := locateActs(hdr, want, pos); got != all {
			t.Fatalf("header %v, query %v: locate %v, Has %v", hdr, want, got, all)
		}
		if !all {
			return
		}
		for i, a := range want {
			if hdr[pos[i]] != a {
				t.Fatalf("header %v, query %v: activity %d located at %d", hdr, want, a, pos[i])
			}
		}
	}
	check(nil, nil)
	check(nil, trajectory.ActivitySet{3})
	check(trajectory.ActivitySet{3}, nil)
	hdr := trajectory.ActivitySet{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}
	check(hdr, hdr)
	check(hdr, trajectory.ActivitySet{1, 4, 22})    // absent first
	check(hdr, trajectory.ActivitySet{2, 11, 22})   // absent in the middle
	check(hdr, trajectory.ActivitySet{2, 20, 23})   // absent last, past the header
	check(hdr, trajectory.ActivitySet{2, 20, 21})   // absent last, inside it
	check(hdr, trajectory.ActivitySet{22})          // a long gallop
	check(hdr[:2], trajectory.ActivitySet{2, 4, 6}) // query longer than the header
	check(hdr[:2], trajectory.ActivitySet{0, 1, 2}) // …and lost at once
	check(hdr[:1], trajectory.ActivitySet{2})
	for trial := 0; trial < 5000; trial++ {
		span := 4 + rng.Intn(120)
		hdr := randomSet(rng.Intn(90), span)
		want := randomSet(rng.Intn(14), span)
		if len(hdr) > 0 && rng.Intn(2) == 0 {
			// Mostly-present queries, so accepts are exercised too.
			want = want[:0]
			for i := rng.Intn(8); i >= 0; i-- {
				want = append(want, hdr[rng.Intn(len(hdr))])
			}
			want.Normalize()
		}
		check(hdr, want)
	}

	// The sets prepare actually resolves against: a store's directory
	// slices, neighbours in one arena — a gallop must stop at the slice's
	// end, not run on into the next trajectory's activities.
	ds := smallDataset(t)
	ts, err := BuildTrajStore(ds, TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for ti := range ds.Trajs {
		dir := ts.activities(ds.Trajs[ti].ID)
		check(dir, dir)
		if ti+1 < len(ds.Trajs) {
			next := ts.activities(ds.Trajs[ti+1].ID)
			check(dir, next)
			check(dir, trajectory.NewActivitySet(dir[len(dir)-1], next[0], next[len(next)-1]))
		}
		check(dir, randomSet(1+rng.Intn(3), 200))
	}
}
