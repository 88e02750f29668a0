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
// in one pop): pops fall about sevenfold on purpose; and again by PR 23,
// when the bucket's unit went from 16 occupied leaves to 64 lists of the
// popped mask (pops fall threefold more, candidates rise where a search
// stopped early). The answers above are the proof that nothing else moved.
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
	fresh := NewLayer(cur.idx.Grid(), d.nextID)
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
		{85, 414, 8}, {530, 621, 15}, {29, 208, 5}, {379, 622, 15},
		{68, 408, 7}, {127, 475, 9}, {60, 224, 6}, {211, 501, 14},
		{493, 621, 13}, {493, 621, 13}, {66, 244, 4}, {600, 620, 14},
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
