package enginetest

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"activitytraj/internal/delta"
	"activitytraj/internal/harness"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

// TestParallelWorkloadMatchesSequential: running a workload across four
// goroutines sharing one engine must produce the same aggregate work
// statistics (candidates, scored) as the sequential run — each search has
// its own scratch and shares only immutable structures, so results cannot
// depend on scheduling.
func TestParallelWorkloadMatchesSequential(t *testing.T) {
	ds := testDataset(t)
	st, err := harness.BuildSetup(ds, gatCfgDefault())
	if err != nil {
		t.Fatal(err)
	}
	qs := workload(t, ds, 12)
	reqs := make([]query.Request, len(qs))
	for i, q := range qs {
		reqs[i] = query.Request{Query: q, K: 5}
	}
	for _, e := range st.Engines {
		seq, err := harness.RunWorkload(st.TS, e, qs, 5, false)
		if err != nil {
			t.Fatalf("%s sequential: %v", e.Name(), err)
		}
		resps, err := query.NewParallelEngine(e, 4).SearchAll(context.Background(), reqs)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.Name(), err)
		}
		var par query.SearchStats
		for _, r := range resps {
			par.Add(r.Stats)
		}
		if par.Candidates != seq.Stats.Candidates || par.Scored != seq.Stats.Scored {
			t.Fatalf("%s: parallel stats %+v != sequential %+v", e.Name(), par, seq.Stats)
		}
	}
}

// TestParallelResultsIdentical: four goroutines share one engine — every
// harness family, a dynamic engine over a non-empty delta and a sharded
// engine — and each response must equal the serial one exactly: results,
// match covers and spans, and, for the unsharded engines, the in-band
// stats. Under -race this is the gate that an engine's per-search scratch
// is checked out per search and never shared.
func TestParallelResultsIdentical(t *testing.T) {
	ds := testDataset(t)
	st, err := harness.BuildSetup(ds, gatCfgDefault())
	if err != nil {
		t.Fatal(err)
	}
	baseN := len(ds.Trajs) * 3 / 4
	base := ds.Sample(baseN)
	base.Name = ds.Name
	d, err := delta.NewDynamic(base, delta.Config{GAT: gatCfgDefault(), CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Trajs[baseN:] {
		if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			t.Fatal(err)
		}
	}
	for id := trajectory.TrajID(5); int(id) < baseN; id += 31 {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().DeltaTrajectories == 0 {
		t.Fatal("delta is empty")
	}
	r, err := shard.NewRouter(ds, shard.Config{Shards: 4, Delta: delta.Config{GAT: gatCfgDefault()}})
	if err != nil {
		t.Fatal(err)
	}

	qs := workload(t, ds, 12)
	var reqs []query.Request
	for i, q := range qs {
		reqs = append(reqs,
			query.Request{Query: q, K: 5},
			query.Request{Query: q, K: 5, Ordered: true, WithMatches: i%2 == 0},
			query.Request{Query: q, K: 3, Subtrajectory: true, MaxSpanPoints: 6, WithMatches: true})
	}
	engines := append(append([]query.Engine{}, st.Engines...), d.NewEngine(), r.NewEngine())
	for _, e := range engines {
		_, sharded := e.(*shard.Engine)
		serial := func() []query.Response {
			out := make([]query.Response, len(reqs))
			for i, req := range reqs {
				out[i] = mustSearch(t, e, req)
			}
			return out
		}
		serial() // warm the shared caches, so hit/miss counts are steady
		want := serial()

		got := make([]query.Response, len(reqs))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(reqs); i += 4 {
					resp, err := e.Search(context.Background(), reqs[i])
					if err != nil {
						t.Errorf("%s worker %d: %v", e.Name(), w, err)
						return
					}
					got[i] = resp
				}
			}(w)
		}
		wg.Wait()
		for i := range reqs {
			g, w := got[i], want[i]
			if !reflect.DeepEqual(g.Results, w.Results) || !reflect.DeepEqual(g.Matches, w.Matches) ||
				!reflect.DeepEqual(g.Spans, w.Spans) || g.Truncated != w.Truncated {
				t.Fatalf("%s request %d: concurrent %+v != serial %+v", e.Name(), i, g, w)
			}
			if !sharded && g.Stats != w.Stats {
				t.Fatalf("%s request %d: concurrent stats %+v != serial %+v", e.Name(), i, g.Stats, w.Stats)
			}
		}
	}
}
