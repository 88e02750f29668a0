package enginetest

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"io"
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

// goldenResults pins, per request mode, an FNV-1a digest over every
// response of the fixed LA workload: the result count and each result's
// (ID, distance bits) — what a search answers, nothing about how. All five
// engines must produce it (the four tombstones of GAT+delta reach no top-k
// here, so even it shares the constants). Recorded at commit edc5e10, the
// last one whose GAT descent always reached the leaf level, so this is the
// safety proof for any later change to retrieval order: it is never
// re-recorded.
var goldenResults = [5]uint64{0x5e2417e497b92cae, 0xea6fbe565f58e365, 0x193a13602f8a31eb, 0xc8481dcb75c0e13a, 0xa6be8039508af9e7}

// goldenCounters pins the same responses PLUS the retrieval/scoring
// counters Candidates, Batches, PQPops, NodesVisited, PageReads and Scored
// — how the answer was reached. IL, RT and IRT carry the constants recorded
// at commit 3ece9b8, before the four engines moved onto the one shared
// search loop. GAT and GAT+delta were re-recorded when the descent became
// bucketed (a sparse subtree is pulled out of the ITL arena in one pop), a
// change that lowers PQPops and Batches and nudges Candidates on purpose;
// goldenResults held through it. GAT, GAT+delta, RT and IRT were re-recorded
// again (ATSQ, OATSQ and Subtrajectory) when containment moved from the
// fetched APL header to the store's in-memory activity directory: PageReads
// fell, because a candidate lacking a query activity no longer reads its
// header pages — and with it, outside this digest, CacheHits, CacheMisses
// and BytesDecoded — while the other five counters here, and SketchRejected,
// APLRejected and HeaderOnlyRejects, stayed exactly equal (goldenDecisions).
// Region and InitialBound did not move — the candidates they reject were
// all decoded-cache hits before (an earlier mode had fetched them), and a
// hit read no page either; IL's candidates are containment-checked by
// construction and never took the reject path. GAT and GAT+delta were
// re-recorded, all five modes, by PR 23 for one cause: the unit of the
// descent's bucket went from 16 occupied leaves of any activity to 64 ITL
// lists of the popped mask, so fewer, larger pulls — PQPops and Batches
// fall, Candidates and Scored (and the pages their fetches read) rise a few
// percent; goldenResults held through it. A deliberate
// change to retrieval order or accounting must re-record the engines it
// touches and say why.
var goldenCounters = map[string][5]uint64{
	"GAT":       {0x4e0a43bb45e7c8b, 0x3aa24db42ab31347, 0xa2bc38e88018a0db, 0xce521025513d3e8d, 0x725fe578acb904f3},
	"GAT+delta": {0xd0d42cb35efe5aec, 0x194df86bdd4d9d51, 0xd2c925782cfd0caa, 0x4f630d6ba8333082, 0x8db270b77f17bfa3},
	"IL":        {0x6270b101dc65d913, 0x30a3fc22e578757d, 0x4efac8e29dc4b23b, 0xf12bad2538e8fca2, 0x717c6be9c4f50827},
	"RT":        {0xa5cc1012a574e5ba, 0x9d86650b1ca2004f, 0x16bdcc350a4f1df8, 0x63adf96ddc8c140f, 0x76b8b11822fd411d},
	"IRT":       {0x8fcfe3c783cd4680, 0x6123ab2b3eb7c1cf, 0x941e1337a4c6e081, 0x8b021495c538d52e, 0x05ba16bda2c0aac8},
}

// goldenDecisions pins the responses plus every counter that records a
// decision rather than a cost: Candidates, Batches, PQPops, NodesVisited,
// Scored, SketchRejected, APLRejected and HeaderOnlyRejects — what was
// retrieved, screened out and scored, with PageReads (what it cost to do
// so) left out. A change that only makes the same decisions cheaper
// re-records goldenCounters and must leave this table alone. Recorded at
// commit 9b883df with this file's hashing applied to that tree, and held by
// the change that moved containment onto the in-memory directory — the
// proof that only PageReads moved there. GAT and GAT+delta were re-recorded
// by PR 23, which changed what is retrieved on purpose (the bucket's unit:
// lists of the popped mask instead of occupied leaves — see goldenCounters);
// an identical-decision variant of that change was measured and did not pay.
// GAT and GAT+delta were re-recorded again for one cause: the base
// candidates' containment screen moved into retrieval (a per-search stamp
// over the ITL), so a base candidate lacking a query activity is rejected
// before its sketch is read and moves from SketchRejected to APLRejected +
// HeaderOnlyRejects. Per mode, Candidates, Batches, PQPops, Scored and the
// rejects in total are identical, and goldenCounters held. GAT+delta, RT
// and IRT were re-recorded when the sketch was retired, only because what
// it rejected is now rejected by the activity directory (APLRejected, and
// HeaderOnlyRejects for a base candidate): SketchRejected is hashed as the
// zero it now always is, every other counter held per mode, and GAT, IL
// and goldenCounters did not move.
var goldenDecisions = map[string][5]uint64{
	"GAT":       {0xb1d662e44b44b550, 0x8cd3967e70695069, 0xd921fa69aa92bd3b, 0xbb24d9bd9c2398cd, 0xe4ba6b464bd42997},
	"GAT+delta": {0x25f722a306501f9b, 0xfd1beee97cbfe599, 0x1f413eaba62f6be0, 0xe695a6aa74fe69b1, 0xa5666a1dc7440c38},
	"IL":        {0xbc0e1ccdc254fb66, 0xb7b71a38e016b6fd, 0x93698d895354febb, 0x1e4b615b66be4122, 0x559cc172636cea67},
	"RT":        {0xaca869942cfadc16, 0xe260a12f0ad5bf6e, 0x15830f526e6404b8, 0x5916c6ed2876cf21, 0x7a1192a16cc5fdfd},
	"IRT":       {0x5065140ae8a55e7d, 0x445f88d61a9194b3, 0xeee0dd18bc36c971, 0x7f1c5461cb4cf33b, 0x3d972c91c79322f0},
}

// leafWalkCandidates is what the GAT engine retrieved over the same workload
// (all five modes: 7125 + 9161 + 3695 + 11202 + 3973) at commit edc5e10,
// walking the grid leaf by leaf. Pulling a whole sparse subtree retrieves a
// little beyond what that walk needed before it could stop; the test keeps
// the excess under 10 % of the workload (+ 7.7 % with a bucket of 64 lists
// of the popped mask, + 4.8 % when it was 16 occupied leaves). It is not
// uniform: a mode whose searches stop early feels one 64-list pull most
// (InitialBound, ~330 candidates a search on this 950-trajectory corpus,
// runs + 34 %), ATSQ + 11 %, OATSQ + 6 %, Region and Subtrajectory within
// ± 0.5 %.
const leafWalkCandidates = 35156

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
		var results, counters, decisions [5]uint64
		candidates := 0
		for mi, mode := range goldenModes {
			hr, hc, hd := fnv.New64a(), fnv.New64a(), fnv.New64a()
			both := io.MultiWriter(hr, hc, hd)
			put := func(w io.Writer, v uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				w.Write(b[:])
			}
			for qi, q := range qs {
				resp, err := e.Search(context.Background(), mode.req(q))
				if err != nil {
					t.Fatalf("%s %s q%d: %v", e.Name(), mode.name, qi, err)
				}
				put(both, uint64(len(resp.Results)))
				for _, r := range resp.Results {
					put(both, uint64(r.ID))
					put(both, math.Float64bits(r.Dist))
				}
				st := resp.Stats
				candidates += st.Candidates
				for _, c := range []int{st.Candidates, st.Batches, st.PQPops, st.NodesVisited, st.PageReads, st.Scored} {
					put(hc, uint64(c))
				}
				for _, c := range []int{st.Candidates, st.Batches, st.PQPops, st.NodesVisited, st.Scored, st.SketchRejected, st.APLRejected, st.HeaderOnlyRejects} {
					put(hd, uint64(c))
				}
			}
			results[mi], counters[mi], decisions[mi] = hr.Sum64(), hc.Sum64(), hd.Sum64()
		}
		if results != goldenResults {
			t.Errorf("%s: RESULTS checksums (modes %s..%s)\n got  %#x\n want %#x", e.Name(), goldenModes[0].name, goldenModes[4].name, results, goldenResults)
		}
		if e.Name() == "GAT" && candidates > leafWalkCandidates*11/10 {
			t.Errorf("GAT: %d candidates, over 1.10x the leaf-by-leaf walk's %d", candidates, leafWalkCandidates)
		}
		if want, ok := goldenDecisions[e.Name()]; !ok || decisions != want {
			t.Errorf("%s: DECISION checksums (modes %s..%s)\n got  %#x\n want %#x", e.Name(), goldenModes[0].name, goldenModes[4].name, decisions, want)
		}
		if want, ok := goldenCounters[e.Name()]; !ok || counters != want {
			t.Errorf("%s: counter checksums (modes %s..%s)\n got  %#x\n want %#x", e.Name(), goldenModes[0].name, goldenModes[4].name, counters, want)
		}
	}
}
