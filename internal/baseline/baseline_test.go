package baseline

import (
	"context"
	"math"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/geo"
	"activitytraj/internal/matcher"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// mustSearch answers req on e, failing the test on error.
func mustSearch(t testing.TB, e query.Engine, req query.Request) query.Response {
	t.Helper()
	resp, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func store(t testing.TB) *evaluate.TrajStore {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "bl", Seed: 3, NumTrajectories: 250, NumVenues: 600,
		VocabSize: 250, RegionW: 25, RegionH: 25, Clusters: 5, TrajLenMean: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestILCandidatesExact: IL's candidate set must be exactly the
// trajectories whose activity union contains every query activity.
func TestILCandidatesExact(t *testing.T) {
	ts := store(t)
	ds := ts.Dataset()
	il := BuildIL(ts)
	q := query.Query{Pts: []query.Point{
		{Loc: ds.Trajs[0].Pts[0].Loc, Acts: trajectory.NewActivitySet(0, 1)},
		{Loc: ds.Trajs[0].Pts[1].Loc, Acts: trajectory.NewActivitySet(2)},
	}}
	cands := il.scratch.Get().candidates(q)
	got := map[trajectory.TrajID]bool{}
	for _, id := range cands {
		got[id] = true
	}
	all := q.AllActs()
	for ti := range ds.Trajs {
		want := ds.Trajs[ti].ActivityUnion().ContainsAll(all)
		if got[ds.Trajs[ti].ID] != want {
			t.Fatalf("traj %d: candidate=%v, contains-all=%v", ti, got[ds.Trajs[ti].ID], want)
		}
	}
}

// TestILStatsAndResults: IL scores every candidate (no pruning for ATSQ),
// and results are sorted ascending.
func TestILStatsAndResults(t *testing.T) {
	ts := store(t)
	ds := ts.Dataset()
	il := BuildIL(ts)
	q := query.Query{Pts: []query.Point{
		{Loc: ds.Trajs[1].Pts[0].Loc, Acts: trajectory.NewActivitySet(0)},
	}}
	resp := mustSearch(t, il, query.Request{Query: q, K: 7})
	rs, st := resp.Results, resp.Stats
	if st.Candidates == 0 || st.Scored != st.Candidates {
		t.Fatalf("IL must score every candidate: %+v", st)
	}
	if st.PageReads == 0 {
		t.Fatal("IL must report page reads")
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Dist < rs[i-1].Dist {
			t.Fatalf("results unsorted: %v", rs)
		}
	}
	if il.MemBytes() <= 0 || il.Name() != "IL" {
		t.Fatal("identity broken")
	}
}

// TestSpatialBaselineIdentities: constructor defaults and naming.
func TestSpatialBaselineIdentities(t *testing.T) {
	ts := store(t)
	rt := BuildRT(ts, 0, 0)
	irt := BuildIRT(ts, 0, 0)
	if rt.Name() != "RT" || irt.Name() != "IRT" {
		t.Fatal("names broken")
	}
	if rt.MemBytes() <= 0 || irt.MemBytes() <= 0 {
		t.Fatal("memory accounting broken")
	}
	if rt.scratch.Get().lambda != DefaultLambda || irt.scratch.Get().lambda != DefaultLambda {
		t.Fatal("lambda default not applied")
	}
}

// TestIRTNodesVisitedLessThanRT: on activity-selective queries the IR-tree
// must expand no more nodes than the plain R-tree — the entire point of
// the per-node inverted files.
func TestIRTNodesVisitedLessThanRT(t *testing.T) {
	ts := store(t)
	ds := ts.Dataset()
	rt := BuildRT(ts, 16, 16)
	irt := BuildIRT(ts, 16, 16)
	// A rarer activity makes the contrast visible.
	var rare trajectory.ActivityID = trajectory.ActivityID(ds.Vocab.Size() / 3)
	q := query.Query{Pts: []query.Point{
		{Loc: ds.Trajs[0].Pts[0].Loc, Acts: trajectory.NewActivitySet(rare)},
	}}
	rtNodes := mustSearch(t, rt, query.Request{Query: q, K: 3}).Stats.NodesVisited
	irtNodes := mustSearch(t, irt, query.Request{Query: q, K: 3}).Stats.NodesVisited
	if irtNodes > rtNodes {
		t.Fatalf("IRT visited %d nodes, RT %d — inverted files not pruning", irtNodes, rtNodes)
	}
}

// TestPayloadEncoding round-trips (trajectory, point) payloads.
func TestPayloadEncoding(t *testing.T) {
	cases := []struct {
		tid trajectory.TrajID
		pi  int
	}{{0, 0}, {1, 2}, {1 << 20, 65535}, {42, 1}}
	for _, c := range cases {
		p := encodePayload(c.tid, c.pi)
		if decodeTraj(p) != c.tid {
			t.Fatalf("payload %d: traj %d != %d", p, decodeTraj(p), c.tid)
		}
	}
}

// TestLemma2BoundHolds: the best match distance (Σ nearest-point
// distances) must lower-bound Dmm for every trajectory (Lemma 2) — the
// invariant the RT termination test relies on.
func TestLemma2BoundHolds(t *testing.T) {
	ts := store(t)
	ds := ts.Dataset()
	ev := evaluate.NewEvaluator(ts)
	q := query.Query{Pts: []query.Point{
		{Loc: ds.Trajs[2].Pts[0].Loc, Acts: trajectory.NewActivitySet(0, 1)},
		{Loc: ds.Trajs[2].Pts[1].Loc, Acts: trajectory.NewActivitySet(2)},
	}}
	var stats query.SearchStats
	for ti := range ds.Trajs {
		d, out, err := ev.ScoreATSQ(q, ds.Trajs[ti].ID, math.Inf(1), &stats)
		if err != nil {
			t.Fatal(err)
		}
		if out != evaluate.Scored || math.IsInf(d, 1) {
			continue
		}
		var dbm float64
		for _, qp := range q.Pts {
			best := math.Inf(1)
			for _, p := range ds.Trajs[ti].Pts {
				if v := geo.Dist(qp.Loc, p.Loc); v < best {
					best = v
				}
			}
			dbm += best
		}
		if dbm > d+1e-9 {
			t.Fatalf("traj %d: Dbm %v > Dmm %v violates Lemma 2", ti, dbm, d)
		}
	}
	_ = matcher.Inf
}
