package delta

import (
	"context"
	"testing"

	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// TestStackedLayersDifferential searches base + frozen + active — the state
// between a compaction's freeze and its swap — with tombstones aimed at all
// three, and requires the answers of a rebuild over the same corpus. The
// expansion itself is pinned too — PQPops, Candidates and Batches per
// search — so a change in how the layers' masks and lists are merged cannot
// silently change what is expanded. The counts were re-recorded when the
// descent became bucketed (a sparse subtree, delta cells included, is pulled
// in one pop): pops fall about sevenfold on purpose; the answers above are
// the proof that nothing else moved.
func TestStackedLayersDifferential(t *testing.T) {
	full := laPreset(t)
	n := len(full.Trajs)
	baseN := n / 2
	mid := baseN + (n-baseN)/2

	d, err := NewDynamic(prefix(full, baseN), Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(trs []trajectory.Trajectory, dead ...trajectory.TrajID) {
		t.Helper()
		for _, tr := range trs {
			if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range dead {
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(full.Trajs[baseN:mid], 3, trajectory.TrajID(baseN+2))

	// Phase 1 of CompactNow by hand, with the rebuild never arriving: the
	// active layer freezes under a fresh one.
	d.mu.Lock()
	cur := d.gen.Load()
	fresh := NewLayer(cur.idx.Grid(), d.nextID, cur.ts.SketchIntervals())
	d.gen.Store(newGeneration(cur.epoch+1, cur.ds, cur.ts, cur.idx, cur.active, fresh))
	cur.retire()
	d.mu.Unlock()

	ingest(full.Trajs[mid:], 7, trajectory.TrajID(baseN+5), trajectory.TrajID(mid+1))
	if st := d.Stats(); !st.Compacting || st.DeltaTrajectories != n-baseN || st.Tombstones != 5 {
		t.Fatalf("not two stacked layers: %+v", st)
	}
	dead := []trajectory.TrajID{3, 7, trajectory.TrajID(baseN + 2), trajectory.TrajID(baseN + 5), trajectory.TrajID(mid + 1)}

	type counts struct{ pops, cands, batches int }
	want := []counts{
		{195, 374, 10}, {2052, 621, 18}, {153, 174, 5}, {1943, 622, 18},
		{193, 379, 9}, {345, 446, 11}, {141, 207, 5}, {480, 447, 12},
		{2048, 621, 18}, {2048, 621, 18}, {176, 219, 6}, {1571, 614, 17},
	}
	ref := staticEngine(t, huskify(full, dead))
	dyn := d.NewEngine()
	var got []counts
	for qi, q := range testWorkload(t, full, 6, 29) {
		for _, ordered := range []bool{false, true} {
			req := query.Request{Query: q, K: 9, Ordered: ordered}
			wantResp, err := ref.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := dyn.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "stacked q"+string(rune('0'+qi)), wantResp.Results, resp.Results)
			got = append(got, counts{resp.Stats.PQPops, resp.Stats.Candidates, resp.Stats.Batches})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("expansion counts: got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("search %d: pops/candidates/batches = %v, want %v", i, got[i], want[i])
		}
	}
}
