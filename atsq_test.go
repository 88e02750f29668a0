package activitytraj_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"activitytraj"
	"activitytraj/internal/gat"
)

// TestPublicAPIQuickstart exercises the documented public surface end to
// end: generate → store → engines → both query types, and checks that all
// four engines agree (the library's core guarantee).
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := activitytraj.PresetNY(0.01)
	ds, err := activitytraj.GenerateDataset(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("dataset: %v", err)
	}
	store, err := activitytraj.NewStore(ds)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	gatEng, err := activitytraj.NewGAT(store, activitytraj.GATConfig{Depth: 6, MemLevels: 4})
	if err != nil {
		t.Fatalf("gat: %v", err)
	}
	engines := []activitytraj.Engine{
		activitytraj.NewIL(store),
		activitytraj.NewRT(store),
		activitytraj.NewIRT(store),
		gatEng,
	}
	qs, err := activitytraj.GenerateQueries(ds, activitytraj.WorkloadConfig{
		NumQueries: 8, NumPoints: 3, ActsPerPoint: 2, DiameterKm: 6, Seed: 4,
	})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	for qi, q := range qs {
		var ref []float64
		for _, e := range engines {
			for _, ordered := range []bool{false, true} {
				resp, err := e.Search(context.Background(), activitytraj.Request{Query: q, K: 5, Ordered: ordered})
				if err != nil {
					t.Fatalf("q%d %s: %v", qi, e.Name(), err)
				}
				rs := resp.Results
				if !ordered {
					dv := make([]float64, len(rs))
					for i, r := range rs {
						dv[i] = r.Dist
					}
					if ref == nil {
						ref = dv
					} else if len(dv) != len(ref) {
						t.Fatalf("q%d: %s returned %d results, IL %d", qi, e.Name(), len(dv), len(ref))
					} else {
						for i := range dv {
							if math.Abs(dv[i]-ref[i]) > 1e-9 {
								t.Fatalf("q%d: %s disagrees at %d: %v vs %v", qi, e.Name(), i, dv, ref)
							}
						}
					}
				}
			}
			if e.MemBytes() <= 0 {
				t.Fatalf("%s: MemBytes = %d", e.Name(), e.MemBytes())
			}
		}
	}
}

// TestIndexBreakdownAPI verifies the GAT index introspection surface used
// by the indexreport example and Figure 8.
func TestIndexBreakdownAPI(t *testing.T) {
	ds, err := activitytraj.GenerateDataset(activitytraj.PresetLA(0.005))
	if err != nil {
		t.Fatal(err)
	}
	store, err := activitytraj.NewStoreWithConfig(ds, activitytraj.StoreConfig{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := activitytraj.BuildGATIndex(store, activitytraj.GATConfig{Depth: 7, MemLevels: 5})
	if err != nil {
		t.Fatal(err)
	}
	bd := idx.Breakdown()
	if bd.Total <= 0 || bd.HICL <= 0 || bd.ITL <= 0 {
		t.Fatalf("breakdown = %+v", bd)
	}
	e := activitytraj.NewEngineForIndex(idx)
	if e.Name() != "GAT" {
		t.Fatalf("name = %s", e.Name())
	}
	if store.DiskBytes() <= 0 {
		t.Fatal("store must report disk usage")
	}
}

// TestDistHelper covers the re-exported geometry helper.
func TestDistHelper(t *testing.T) {
	d := activitytraj.Dist(activitytraj.Point{X: 0, Y: 0}, activitytraj.Point{X: 3, Y: 4})
	if d != 5 {
		t.Fatalf("Dist = %v", d)
	}
	s := activitytraj.NewActivitySet(3, 1, 3)
	if len(s) != 2 || !s.Contains(1) {
		t.Fatalf("NewActivitySet = %v", s)
	}
}

// TestLoadGATIndexForeignStore: an index file loaded over a store that is
// not the one it was built from names trajectories that store lacks. It
// used to load, and the first search panicked indexing the searcher's
// seen-array, which is sized from the store; it is a format error now.
func TestLoadGATIndexForeignStore(t *testing.T) {
	ds, err := activitytraj.GenerateDataset(activitytraj.PresetLA(0.005))
	if err != nil {
		t.Fatal(err)
	}
	store, err := activitytraj.NewStore(ds)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := activitytraj.BuildGATIndex(store, activitytraj.GATConfig{Depth: 6, MemLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := activitytraj.SaveGATIndex(idx, &file); err != nil {
		t.Fatal(err)
	}
	if _, err := activitytraj.LoadGATIndex(bytes.NewReader(file.Bytes()), store); err != nil {
		t.Fatalf("over its own store: %v", err)
	}
	half := *ds
	half.Trajs = ds.Trajs[:len(ds.Trajs)/2]
	smaller, err := activitytraj.NewStore(&half)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := activitytraj.LoadGATIndex(bytes.NewReader(file.Bytes()), smaller); !errors.Is(err, gat.ErrBadIndexFormat) {
		t.Fatalf("over half the corpus: err = %v, want ErrBadIndexFormat", err)
	}
}

// TestGATConfigBounds: Build and Load apply one parameter check. A
// parameter past the bound used to build, and the first search panicked
// (NearCells = MaxInt overflowed the searcher's m+1); it is an error now,
// while the largest accepted values build, search, and survive a save and
// load round trip.
func TestGATConfigBounds(t *testing.T) {
	ds, err := activitytraj.GenerateDataset(activitytraj.PresetLA(0.005))
	if err != nil {
		t.Fatal(err)
	}
	store, err := activitytraj.NewStore(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []activitytraj.GATConfig{
		{NearCells: math.MaxInt},
		{PoolPages: math.MaxInt},
		{Lambda: math.MaxInt},
		{MemLevels: math.MaxInt},
	} {
		if _, err := activitytraj.BuildGATIndex(store, cfg); err == nil {
			t.Fatalf("%+v: built", cfg)
		}
	}
	const limit = 1 << 20
	idx, err := activitytraj.BuildGATIndex(store, activitytraj.GATConfig{Depth: 6, MemLevels: limit, NearCells: limit, Lambda: limit})
	if err != nil {
		t.Fatalf("at the bound: %v", err)
	}
	qs, err := activitytraj.GenerateQueries(ds, activitytraj.WorkloadConfig{NumQueries: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if _, err := activitytraj.NewEngineForIndex(idx).Search(context.Background(), activitytraj.Request{Query: q, K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	var file bytes.Buffer
	if _, err := activitytraj.SaveGATIndex(idx, &file); err != nil {
		t.Fatal(err)
	}
	if _, err := activitytraj.LoadGATIndex(&file, store); err != nil {
		t.Fatalf("load at the bound: %v", err)
	}
}
