// Package enginetest cross-checks the four engines (GAT, IL, RT, IRT) on
// shared workloads: since they differ only in candidate retrieval, their
// top-k distance vectors must be identical for every query. IL is the
// trivially-correct oracle (it scores every containing trajectory).
package enginetest

import (
	"context"
	"math"
	"testing"

	"activitytraj/internal/baseline"
	"activitytraj/internal/dataset"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

func testDataset(t testing.TB) *trajectory.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name:            "mini",
		Seed:            99,
		NumTrajectories: 400,
		NumVenues:       900,
		VocabSize:       300,
		RegionW:         40,
		RegionH:         40,
		Clusters:        8,
		TrajLenMean:     14,
		TrajLenStd:      6,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	return ds
}

func gatCfgDefault() gat.Config { return gat.Config{Depth: 6} }

func buildEngines(t testing.TB, ds *trajectory.Dataset, gatCfg gat.Config) (*evaluate.TrajStore, []query.Engine) {
	t.Helper()
	ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
	if err != nil {
		t.Fatalf("trajstore: %v", err)
	}
	idx, err := gat.Build(ts, gatCfg)
	if err != nil {
		t.Fatalf("gat build: %v", err)
	}
	engines := []query.Engine{
		baseline.BuildIL(ts),
		baseline.BuildRT(ts, 0, 0),
		baseline.BuildIRT(ts, 0, 0),
		gat.NewEngine(idx),
	}
	return ts, engines
}

func workload(t testing.TB, ds *trajectory.Dataset, n int) []query.Query {
	t.Helper()
	qs, err := queries.Generate(ds, queries.Config{
		NumQueries:   n,
		NumPoints:    3,
		ActsPerPoint: 2,
		DiameterKm:   8,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	return qs
}

// mustSearch answers req on e, failing the test on error.
func mustSearch(t testing.TB, e query.Engine, req query.Request) query.Response {
	t.Helper()
	resp, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: %v", e.Name(), err)
	}
	return resp
}

// requests wraps a workload into plain top-k requests for SearchAll.
func requests(qs []query.Query, k int) []query.Request {
	reqs := make([]query.Request, len(qs))
	for i, q := range qs {
		reqs[i] = query.Request{Query: q, K: k}
	}
	return reqs
}

func distVector(rs []query.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Dist
	}
	return out
}

func sameDists(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Engines share the matcher, so distances should agree to fp noise.
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

// TestEnginesAgreeATSQ is the central correctness gate: every engine must
// return the same top-k distances as the exhaustive IL oracle.
func TestEnginesAgreeATSQ(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gat.Config{Depth: 6})
	qs := workload(t, ds, 25)
	for qi, q := range qs {
		var ref []float64
		for _, e := range engines {
			rs := mustSearch(t, e, query.Request{Query: q, K: 9}).Results
			dv := distVector(rs)
			if ref == nil {
				ref = dv
				continue
			}
			if !sameDists(ref, dv) {
				t.Fatalf("q%d: %s disagrees with IL\nIL : %v\n%s: %v", qi, e.Name(), ref, e.Name(), dv)
			}
		}
	}
}

// TestEnginesAgreeOATSQ repeats the gate for the order-sensitive query.
func TestEnginesAgreeOATSQ(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gat.Config{Depth: 6})
	qs := workload(t, ds, 25)
	for qi, q := range qs {
		var ref []float64
		for _, e := range engines {
			rs := mustSearch(t, e, query.Request{Query: q, K: 9, Ordered: true}).Results
			dv := distVector(rs)
			if ref == nil {
				ref = dv
				continue
			}
			if !sameDists(ref, dv) {
				t.Fatalf("q%d: %s disagrees with IL\nIL : %v\n%s: %v", qi, e.Name(), ref, e.Name(), dv)
			}
		}
	}
}

// TestGATVariantsAgree checks that the ablation switch (loose lower
// bound) and different grid depths do not change results, only work done.
func TestGATVariantsAgree(t *testing.T) {
	ds := testDataset(t)
	ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
	if err != nil {
		t.Fatalf("trajstore: %v", err)
	}
	cfgs := []gat.Config{
		{Depth: 6},
		{Depth: 6, LooseLowerBound: true},
		{Depth: 5},
		{Depth: 8, Lambda: 4, NearCells: 2},
	}
	var engines []query.Engine
	for _, c := range cfgs {
		idx, err := gat.Build(ts, c)
		if err != nil {
			t.Fatalf("build %+v: %v", c, err)
		}
		engines = append(engines, gat.NewEngine(idx))
	}
	qs := workload(t, ds, 12)
	for qi, q := range qs {
		var ref []float64
		for vi, e := range engines {
			rs := mustSearch(t, e, query.Request{Query: q, K: 9}).Results
			dv := distVector(rs)
			if ref == nil {
				ref = dv
			} else if !sameDists(ref, dv) {
				t.Fatalf("q%d: variant %d (%+v) disagrees\nbase: %v\ngot : %v", qi, vi, cfgs[vi], ref, dv)
			}
		}
	}
}

// TestUnmatchableQuery: an activity absent from the dataset yields empty
// results from every engine (and no panic/livelock).
func TestUnmatchableQuery(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gat.Config{Depth: 6})
	q := query.Query{Pts: []query.Point{
		{Loc: ds.Trajs[0].Pts[0].Loc, Acts: trajectory.NewActivitySet(trajectory.ActivityID(ds.Vocab.Size() + 5))},
	}}
	for _, e := range engines {
		for _, ordered := range []bool{false, true} {
			rs := mustSearch(t, e, query.Request{Query: q, K: 5, Ordered: ordered}).Results
			if len(rs) != 0 {
				t.Fatalf("%s ordered=%v: expected empty results, got %v", e.Name(), ordered, rs)
			}
		}
	}
}

// TestKLargerThanMatches: k greater than the number of matching
// trajectories returns all matches, consistently across engines.
func TestKLargerThanMatches(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gat.Config{Depth: 6})
	qs := workload(t, ds, 5)
	for qi, q := range qs {
		var ref []float64
		for _, e := range engines {
			rs := mustSearch(t, e, query.Request{Query: q, K: 10_000}).Results
			dv := distVector(rs)
			if ref == nil {
				ref = dv
			} else if !sameDists(ref, dv) {
				t.Fatalf("q%d: %s returned %d results vs IL %d", qi, e.Name(), len(dv), len(ref))
			}
		}
	}
}

// TestLemma3AcrossEngines: for each query, the OATSQ top-1 distance is at
// least the ATSQ top-1 distance (Dmm lower-bounds Dmom).
func TestLemma3AcrossEngines(t *testing.T) {
	ds := testDataset(t)
	_, engines := buildEngines(t, ds, gat.Config{Depth: 6})
	qs := workload(t, ds, 10)
	e := engines[3] // GAT
	for qi, q := range qs {
		a := mustSearch(t, e, query.Request{Query: q, K: 1}).Results
		o := mustSearch(t, e, query.Request{Query: q, K: 1, Ordered: true}).Results
		if len(a) > 0 && len(o) > 0 && o[0].Dist < a[0].Dist-1e-9 {
			t.Fatalf("q%d: Dmom top1 %v < Dmm top1 %v violates Lemma 3", qi, o[0].Dist, a[0].Dist)
		}
	}
}
