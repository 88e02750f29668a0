package delta

import (
	"slices"
	"testing"

	"activitytraj/internal/geo"
	"activitytraj/internal/grid"
	"activitytraj/internal/trajectory"
)

// TestViewEntry: the evaluator's one lookup per delta candidate finds a
// trajectory in the frozen layer and in the active one, hands back its
// sketch, activities, posting lists and coordinates together, answers the
// zero entry for an ID no layer holds, and serves the latest record of an
// ID that was tombstoned and inserted again (masking a tombstoned ID is
// retrieval's job, not the lookup's).
func TestViewEntry(t *testing.T) {
	g, err := grid.New(geo.Point{}, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	traj := func(pts ...trajectory.Point) trajectory.Trajectory { return trajectory.Trajectory{Pts: pts} }
	pt := func(x, y float64, acts ...trajectory.ActivityID) trajectory.Point {
		return trajectory.Point{Loc: geo.Point{X: x, Y: y}, Acts: trajectory.NewActivitySet(acts...)}
	}
	inFrozen := traj(pt(1, 1, 5, 2), pt(2, 2), pt(3, 3, 2))
	inActive := traj(pt(9, 9, 7), pt(8, 8, 7, 1))
	again := traj(pt(4, 4, 3), pt(5, 5, 8), pt(6, 6, 3))

	const baseN = 10
	frozen := NewLayer(g, baseN, 4)
	frozen.insert(baseN, inFrozen)
	active := NewLayer(g, baseN+1, 4)
	active.insert(baseN+1, inActive)
	v := &view{layers: []*Layer{frozen, active}, baseN: baseN}

	require := func(id trajectory.TrajID, tr trajectory.Trajectory) {
		t.Helper()
		ent := v.Entry(id)
		if len(ent.Coords) != len(tr.Pts) {
			t.Fatalf("id %d: %d coordinates, want %d", id, len(ent.Coords), len(tr.Pts))
		}
		for i, p := range tr.Pts {
			if ent.Coords[i] != p.Loc {
				t.Fatalf("id %d point %d: %v, want %v", id, i, ent.Coords[i], p.Loc)
			}
		}
		if !ent.Acts.Equal(tr.ActivityUnion()) || len(ent.Lists) != len(ent.Acts) {
			t.Fatalf("id %d: activities %v with %d lists, want %v", id, ent.Acts, len(ent.Lists), tr.ActivityUnion())
		}
		if !ent.TAS.CoversAll(ent.Acts) {
			t.Fatalf("id %d: sketch %v dismisses %v", id, ent.TAS, ent.Acts)
		}
		for i, a := range ent.Acts {
			var want []uint32
			for pi, p := range tr.Pts {
				if p.Acts.Contains(a) {
					want = append(want, uint32(pi))
				}
			}
			if !slices.Equal([]uint32(ent.Lists[i]), want) {
				t.Fatalf("id %d activity %d: postings %v, want %v", id, a, ent.Lists[i], want)
			}
		}
	}
	require(baseN, inFrozen)
	require(baseN+1, inActive)
	for _, id := range []trajectory.TrajID{3, baseN + 2} { // a base ID, an unassigned one
		if ent := v.Entry(id); ent.TAS != nil || ent.Acts != nil || ent.Lists != nil || ent.Coords != nil {
			t.Fatalf("id %d: entry %+v for a trajectory no layer holds", id, ent)
		}
	}

	active.delete(baseN + 1)
	active.insert(baseN+1, again)
	require(baseN+1, again)
	if !v.Tombstoned(baseN + 1) {
		t.Fatal("the tombstone was lost")
	}
}
