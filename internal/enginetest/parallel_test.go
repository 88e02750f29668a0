package enginetest

import (
	"context"
	"testing"

	"activitytraj/internal/harness"
	"activitytraj/internal/query"
)

// TestParallelWorkloadMatchesSequential: running a workload across four
// goroutines with cloned engines must produce the same aggregate work
// statistics (candidates, scored) as the sequential run — clones share
// only immutable structures, so results cannot depend on scheduling.
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
		ce, ok := e.(query.CloneableEngine)
		if !ok {
			t.Fatalf("%s does not support cloning", e.Name())
		}
		seq, err := harness.RunWorkload(st.TS, e, qs, 5, false)
		if err != nil {
			t.Fatalf("%s sequential: %v", e.Name(), err)
		}
		resps, err := query.NewParallelEngine(ce, 4).SearchAll(context.Background(), reqs)
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

// TestParallelResultsIdentical: per-query results from a cloned engine
// running concurrently must equal the originals exactly.
func TestParallelResultsIdentical(t *testing.T) {
	ds := testDataset(t)
	st, err := harness.BuildSetup(ds, gatCfgDefault())
	if err != nil {
		t.Fatal(err)
	}
	qs := workload(t, ds, 10)
	gat := st.Engine("GAT").(query.CloneableEngine)

	want := make([][]query.Result, len(qs))
	for i, q := range qs {
		want[i] = mustSearch(t, gat, query.Request{Query: q, K: 5}).Results
	}
	type res struct {
		i  int
		rs []query.Result
	}
	ch := make(chan res, len(qs))
	for w := 0; w < 4; w++ {
		go func(w int) {
			eng := gat.Clone()
			for i := w; i < len(qs); i += 4 {
				resp, err := eng.Search(context.Background(), query.Request{Query: qs[i], K: 5})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					ch <- res{i, nil}
					continue
				}
				ch <- res{i, resp.Results}
			}
		}(w)
	}
	for range qs {
		r := <-ch
		if r.rs == nil {
			continue
		}
		if len(r.rs) != len(want[r.i]) {
			t.Fatalf("query %d: %d results vs %d", r.i, len(r.rs), len(want[r.i]))
		}
		for j := range r.rs {
			if r.rs[j] != want[r.i][j] {
				t.Fatalf("query %d result %d: %+v vs %+v", r.i, j, r.rs[j], want[r.i][j])
			}
		}
	}
}
