package enginetest

import (
	"testing"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// TestBucketCountsRelevantLists pins the unit of the descent's bucket on a
// hand-built depth-6 grid: what decides between pulling a popped cell and
// expanding it is how many ITL lists of the popped mask lie below it, not
// how many leaves are occupied there. The south-west level-1 cell is
// built-up and irrelevant — 40 occupied leaves, every one carrying activity
// 99, three of them also the query's activity 1 — so it is three lists and
// one pop. The north-east one is four leaves carrying 18, 18, 17 and 17 of
// the query point's 18 activities: 70 lists, more than a bucket, so it is
// expanded, and each of its four level-2 children (a leaf apiece) is pulled.
// Counting leaves decided both cells the other way round.
func TestBucketCountsRelevantLists(t *testing.T) {
	var qacts []trajectory.ActivityID
	for a := trajectory.ActivityID(1); a <= 18; a++ {
		qacts = append(qacts, a)
	}
	relevant := map[[2]int]bool{{1, 1}: true, {4, 2}: true, {7, 4}: true}
	var base []trajectory.Trajectory
	for j := 0; j < 5; j++ {
		for i := 0; i < 8; i++ { // IDs 0..39, row by row: (5, 5) is 9, (20, 10) is 20, (35, 20) is 39
			acts := []trajectory.ActivityID{99}
			if relevant[[2]int{i, j}] {
				acts = append(acts, 1)
			}
			base = append(base, traj(pt(float64(5*i), float64(5*j), acts...)))
		}
	}
	base = append(base, // IDs 40..43
		traj(pt(60, 60, qacts...)), traj(pt(90, 60, qacts...)),
		traj(pt(60, 90, qacts[:17]...)), traj(pt(100, 100, qacts[:17]...)))

	g := world{base: base, depth: 6}.grid(t)
	leaves := map[uint32]map[uint32]bool{} // level-1 cell -> occupied leaves below it
	for _, tr := range base {
		z := g.LeafAt(tr.Pts[0].Loc).Z
		if leaves[z>>10] == nil {
			leaves[z>>10] = map[uint32]bool{}
		}
		leaves[z>>10][z] = true
	}
	sw, ne := g.LeafAt(geo.Point{X: 0, Y: 0}).Z>>10, g.LeafAt(geo.Point{X: 100, Y: 100}).Z>>10
	if len(leaves) != 2 || len(leaves[sw]) != 40 || len(leaves[ne]) != 4 {
		t.Fatalf("grid not as drawn: %d level-1 cells, %d leaves south-west, %d north-east", len(leaves), len(leaves[sw]), len(leaves[ne]))
	}

	q := query.Query{Pts: []query.Point{{Loc: geo.Point{X: 1, Y: 1}, Acts: trajectory.NewActivitySet(qacts...)}}}
	westStrip := geo.NewRect(-2, -2, 12, 102) // of the three relevant south-west leaves, only (5, 5)'s
	cases := []struct {
		name        string
		dead        []trajectory.TrajID
		region      *geo.Rect
		pops, cands int
	}{
		// K exceeds the corpus, so every visible cell is popped: SW pulled
		// (1), NE expanded (1), its four children pulled (4).
		{name: "one pop for 40 leaves, a descent for 4", pops: 6, cands: 7},
		{name: "a tombstone inside the pulled cell", dead: []trajectory.TrajID{20}, pops: 6, cands: 6},
		{name: "a Region cutting the pulled cell", region: &westStrip, pops: 1, cands: 1},
		{name: "Region and tombstone together", dead: []trajectory.TrajID{9}, region: &westStrip, pops: 1, cands: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, live := world{base: base, dead: tc.dead, depth: 6}.open(t)
			resp := requireBrute(t, e, live, query.Request{Query: q, K: 100, Region: tc.region})
			if st := resp.Stats; st.PQPops != tc.pops || st.Candidates != tc.cands {
				t.Errorf("pops=%d candidates=%d, want %d and %d", st.PQPops, st.Candidates, tc.pops, tc.cands)
			}
		})
	}
}
