package enginetest

import (
	"context"
	"math"
	"sync"
	"testing"

	"activitytraj/internal/delta"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// TestDynamicMixedStress is the concurrency gate for the dynamic-index
// write path: concurrent Insert, Delete, Search (single and batched through
// ParallelEngine) and explicit CompactNow, racing against auto-compaction.
// Run with -race this exercises the generation swap (searches must finish
// on their acquired generation), the active layer's read/write locking and
// the frozen-layer handoff. Afterwards the merged view must be byte-exact
// against a static rebuild of the equivalent corpus.
func TestDynamicMixedStress(t *testing.T) {
	ds := testDataset(t)
	baseN := len(ds.Trajs) / 2
	base := ds.Sample(baseN)
	base.Name = ds.Name

	d, err := delta.NewDynamic(base, delta.Config{
		GAT:              gatCfgDefault(),
		CompactThreshold: 32, // force several auto-compactions during the run
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := workload(t, ds, 12)
	pe := query.NewParallelEngine(d.NewEngine(), 3)

	// Deterministic delete set: every 7th base trajectory.
	var dead []trajectory.TrajID
	for id := 3; id < baseN; id += 7 {
		dead = append(dead, trajectory.TrajID(id))
	}

	var wg sync.WaitGroup

	// Inserter: streams the held-out half.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tr := range ds.Trajs[baseN:] {
			if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()

	// Deleter: tombstones base trajectories while searches run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range dead {
			if err := d.Delete(id); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()

	// Compactor: explicit compactions racing the automatic ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := d.CompactNow(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	// Searchers: single searches and whole batches. Results changing between
	// rounds is expected (the corpus is mutating); errors and races are not.
	const searchers = 4
	for c := 0; c < searchers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				if (c+r)%2 == 0 {
					if _, err := pe.SearchAll(context.Background(), requests(qs, 5)); err != nil {
						t.Errorf("searcher %d round %d batch: %v", c, r, err)
						return
					}
				} else {
					for qi := c % len(qs); qi < len(qs); qi += searchers {
						if _, err := pe.Search(context.Background(), query.Request{Query: qs[qi], K: 5}); err != nil {
							t.Errorf("searcher %d round %d: %v", c, r, err)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := d.LastCompactErr(); err != nil {
		t.Fatalf("background compaction: %v", err)
	}

	// Quiesce: fold everything into the base and verify exactness against a
	// static rebuild of the equivalent corpus (deletes as empty husks).
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.DeltaTrajectories != 0 || st.Tombstones != 0 {
		t.Fatalf("delta not drained: %+v", st)
	}
	if st.BaseTrajectories != len(ds.Trajs) {
		t.Fatalf("base has %d trajectories, want %d", st.BaseTrajectories, len(ds.Trajs))
	}

	refDS := &trajectory.Dataset{Name: ds.Name, Vocab: ds.Vocab, Trajs: make([]trajectory.Trajectory, len(ds.Trajs))}
	copy(refDS.Trajs, ds.Trajs)
	for _, id := range dead {
		refDS.Trajs[id] = trajectory.Trajectory{ID: id}
	}
	ts, err := evaluate.BuildTrajStore(refDS, evaluate.TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := gat.Build(ts, gatCfgDefault())
	if err != nil {
		t.Fatal(err)
	}
	ref := gat.NewEngine(idx)
	dyn := d.NewEngine()
	for qi, q := range qs {
		want := mustSearch(t, ref, query.Request{Query: q, K: 9}).Results
		got := mustSearch(t, dyn, query.Request{Query: q, K: 9}).Results
		if len(want) != len(got) {
			t.Fatalf("q%d: %d results != %d", qi, len(got), len(want))
		}
		for i := range want {
			if want[i].ID != got[i].ID || math.Float64bits(want[i].Dist) != math.Float64bits(got[i].Dist) {
				t.Fatalf("q%d result %d: got %v want %v", qi, i, got[i], want[i])
			}
		}
	}
}
