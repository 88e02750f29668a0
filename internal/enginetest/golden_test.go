package enginetest

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"activitytraj/internal/baseline"
	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/geo"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
)

// goldenModes are the request shapes the golden table sweeps: the two
// distances plus one request per option the shared search loop installs.
var goldenModes = []struct {
	name string
	req  func(q query.Query) query.Request
}{
	{"ATSQ", func(q query.Query) query.Request { return query.Request{Query: q, K: 9} }},
	{"OATSQ", func(q query.Query) query.Request { return query.Request{Query: q, K: 9, Ordered: true} }},
	{"Region", func(q query.Query) query.Request {
		env := geo.BoundingRect(locsOf(q))
		region := geo.NewRect(env.MinX-3, env.MinY-3, env.MaxX+3, env.MaxY+1)
		return query.Request{Query: q, K: 9, Region: &region}
	}},
	{"Subtrajectory", func(q query.Query) query.Request {
		return query.Request{Query: q, K: 7, Ordered: true, Subtrajectory: true, MinSpanPoints: 2, MaxSpanPoints: 12}
	}},
	{"InitialBound", func(q query.Query) query.Request {
		return query.Request{Query: q, K: 9, InitialBound: 20}
	}},
}

// goldenChecksums pins, per engine and request mode, an FNV-1a digest over
// every response of the fixed LA workload: each result's (ID, distance
// bits) and the retrieval/scoring counters Candidates, Batches, PQPops,
// NodesVisited, PageReads and Scored. The constants were recorded at commit
// 3ece9b8 — before GAT, IL, RT and IRT moved onto the one shared search
// loop — so a passing run proves responses AND stats stayed byte-identical
// through that refactor. A deliberate change to retrieval order or
// accounting must re-record them and say why.
var goldenChecksums = map[string][5]uint64{
	"GAT":       {0xac311a6aebaf519c, 0x1885924cc33611d6, 0xb6d2b7269f3c90b0, 0x3046367278846b4d, 0x9e24d87408536f41},
	"GAT+delta": {0x1f04ea3d13ba0db1, 0xfc8127c54ef5c6d2, 0xf149c5efd4d8f2ae, 0xf11242827a148f22, 0x47b0c6d16a75363b},
	"IL":        {0x6270b101dc65d913, 0x30a3fc22e578757d, 0x4efac8e29dc4b23b, 0xf12bad2538e8fca2, 0x717c6be9c4f50827},
	"RT":        {0x5e1df0cf7cf3db4d, 0xec87a8b57cb79283, 0x16bdcc350a4f1df8, 0xfe6f737cb6eef2f1, 0x76b8b11822fd411d},
	"IRT":       {0x42db82b5ff8e50bd, 0x6029dd4bdfaf66be, 0x941e1337a4c6e081, 0xd70d165987e4f9fa, 0x05ba16bda2c0aac8},
}

// TestGoldenEngineChecksums runs every engine family over one LA workload ×
// goldenModes and compares each digest with the recorded constant. Every
// engine owns its trajectory store, so one engine's cache traffic cannot
// perturb another's PageReads.
func TestGoldenEngineChecksums(t *testing.T) {
	ds, err := dataset.Generate(dataset.LA(0.03))
	if err != nil {
		t.Fatalf("LA preset: %v", err)
	}
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 12, Seed: 5})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	newStore := func() *evaluate.TrajStore {
		ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
		if err != nil {
			t.Fatalf("trajstore: %v", err)
		}
		return ts
	}
	idx, err := gat.Build(newStore(), gatCfgDefault())
	if err != nil {
		t.Fatalf("gat build: %v", err)
	}
	// GAT+delta answers from a base of 4/5 of the corpus with the rest
	// live in the delta layer and a few base and delta trajectories
	// tombstoned, so overlay retrieval and DeltaCandidates paths are hashed.
	baseN := len(ds.Trajs) * 4 / 5
	base := ds.Sample(baseN)
	base.Name = ds.Name
	dyn, err := delta.NewDynamic(base, delta.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	for _, tr := range ds.Trajs[baseN:] {
		if _, err := dyn.Insert(tr); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	for _, id := range []int{3, baseN / 2, baseN + 1, len(ds.Trajs) - 2} {
		if err := dyn.Delete(ds.Trajs[id].ID); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
	engines := []query.Engine{
		gat.NewEngine(idx),
		dyn.NewEngine(),
		baseline.BuildIL(newStore()),
		baseline.BuildRT(newStore(), 0, 0),
		baseline.BuildIRT(newStore(), 0, 0),
	}
	for _, e := range engines {
		var got [5]uint64
		for mi, mode := range goldenModes {
			h := fnv.New64a()
			put := func(v uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
			for qi, q := range qs {
				resp, err := e.Search(context.Background(), mode.req(q))
				if err != nil {
					t.Fatalf("%s %s q%d: %v", e.Name(), mode.name, qi, err)
				}
				put(uint64(len(resp.Results)))
				for _, r := range resp.Results {
					put(uint64(r.ID))
					put(math.Float64bits(r.Dist))
				}
				st := resp.Stats
				for _, c := range []int{st.Candidates, st.Batches, st.PQPops, st.NodesVisited, st.PageReads, st.Scored} {
					put(uint64(c))
				}
			}
			got[mi] = h.Sum64()
		}
		if want, ok := goldenChecksums[e.Name()]; !ok || got != want {
			t.Errorf("%s: checksums (modes %s..%s)\n got  %#x\n want %#x", e.Name(), goldenModes[0].name, goldenModes[4].name, got, want)
		}
	}
}
