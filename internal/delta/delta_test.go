package delta

import (
	"context"
	"math"
	"testing"
	"time"

	"activitytraj/internal/dataset"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/geo"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// laPreset generates a shrunken LA dataset shared by the exactness tests.
func laPreset(t testing.TB) *trajectory.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.LA(0.02))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds
}

func testWorkload(t testing.TB, ds *trajectory.Dataset, n int, seed int64) []query.Query {
	t.Helper()
	qs, err := queries.Generate(ds, queries.Config{NumQueries: n, Seed: seed})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	return qs
}

// staticEngine builds a plain (immutable) GAT engine over ds.
func staticEngine(t testing.TB, ds *trajectory.Dataset) *gat.Engine {
	t.Helper()
	ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
	if err != nil {
		t.Fatalf("trajstore: %v", err)
	}
	idx, err := gat.Build(ts, gat.Config{})
	if err != nil {
		t.Fatalf("gat build: %v", err)
	}
	return gat.NewEngine(idx)
}

// prefix returns a dataset holding only the first n trajectories.
func prefix(ds *trajectory.Dataset, n int) *trajectory.Dataset {
	sub := ds.Sample(n)
	sub.Name = ds.Name
	return sub
}

// requireIdentical asserts byte-identical top-k results: same IDs in the
// same order with bit-equal distances.
func requireIdentical(t *testing.T, label string, want, got []query.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results != %d results\nwant %v\ngot  %v", label, len(want), len(got), want, got)
	}
	for i := range want {
		if want[i].ID != got[i].ID ||
			math.Float64bits(want[i].Dist) != math.Float64bits(got[i].Dist) {
			t.Fatalf("%s: result %d differs\nwant %v\ngot  %v", label, i, want, got)
		}
	}
}

// mustSearch answers req on e, failing the test on error.
func mustSearch(t testing.TB, e query.Engine, req query.Request) query.Response {
	t.Helper()
	resp, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// searchBoth runs the same query on both engines and requires identical
// answers for ATSQ and OATSQ. It returns dyn's summed search statistics.
func searchBoth(t *testing.T, label string, ref query.Engine, dyn query.Engine, q query.Query, k int) query.SearchStats {
	t.Helper()
	var stats query.SearchStats
	for _, ordered := range []bool{false, true} {
		req := query.Request{Query: q, K: k, Ordered: ordered}
		want, err := ref.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("%s ref: %v", label, err)
		}
		got, err := dyn.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("%s dyn: %v", label, err)
		}
		requireIdentical(t, label, want.Results, got.Results)
		stats.Add(got.Stats)
	}
	return stats
}

// TestInsertEqualsRebuild: search after N online inserts must return
// byte-identical top-k to a full build over the same corpus (the ISSUE's
// exactness acceptance criterion).
func TestInsertEqualsRebuild(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) * 3 / 5

	d, err := NewDynamic(prefix(full, baseN), Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range full.Trajs[baseN:] {
		id, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts})
		if err != nil {
			t.Fatal(err)
		}
		if id != tr.ID {
			t.Fatalf("insert assigned ID %d, want %d", id, tr.ID)
		}
	}

	ref := staticEngine(t, full)
	dyn := d.NewEngine()
	var searched query.SearchStats
	for qi, q := range testWorkload(t, full, 12, 5) {
		searched.Add(searchBoth(t, "q"+string(rune('0'+qi)), ref, dyn, q, 9))
	}
	st := d.Stats()
	if st.DeltaTrajectories != len(full.Trajs)-baseN {
		t.Fatalf("delta holds %d trajectories, want %d", st.DeltaTrajectories, len(full.Trajs)-baseN)
	}
	// Every query should have exercised the merged path at least once in
	// aggregate; check the stat surfaced.
	if searched.Candidates == 0 {
		t.Fatal("no candidates recorded")
	}
}

// huskify returns a copy of ds with the given trajectories reduced to empty
// husks — the reference corpus for tombstone masking.
func huskify(ds *trajectory.Dataset, dead []trajectory.TrajID) *trajectory.Dataset {
	out := &trajectory.Dataset{Name: ds.Name, Vocab: ds.Vocab, Trajs: make([]trajectory.Trajectory, len(ds.Trajs))}
	copy(out.Trajs, ds.Trajs)
	for _, id := range dead {
		out.Trajs[id] = trajectory.Trajectory{ID: id}
	}
	return out
}

// TestDeleteTombstonesMaskResults: deletes of base and delta trajectories
// must behave exactly like a rebuild without them.
func TestDeleteTombstonesMaskResults(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) * 3 / 5

	d, err := NewDynamic(prefix(full, baseN), Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range full.Trajs[baseN:] {
		if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			t.Fatal(err)
		}
	}

	qs := testWorkload(t, full, 8, 11)
	dyn := d.NewEngine()

	// Delete the top result of the first few queries: some from the base
	// layer, some from the delta layer.
	var dead []trajectory.TrajID
	for _, q := range qs[:4] {
		rs := mustSearch(t, dyn, query.Request{Query: q, K: 3}).Results
		for _, r := range rs {
			dead = append(dead, r.ID)
		}
	}
	seen := map[trajectory.TrajID]bool{}
	var baseDead, deltaDead int
	for _, id := range dead {
		if seen[id] {
			continue
		}
		seen[id] = true
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
		if int(id) < baseN {
			baseDead++
		} else {
			deltaDead++
		}
	}
	if baseDead == 0 || deltaDead == 0 {
		t.Logf("warning: tombstones cover base=%d delta=%d; both layers should be exercised", baseDead, deltaDead)
	}

	ref := staticEngine(t, huskify(full, dead))
	for qi, q := range qs {
		searchBoth(t, "q"+string(rune('0'+qi)), ref, dyn, q, 9)
	}

	// Deleting an unknown ID errors; double-delete does not, and leaves the
	// tombstone count unchanged.
	if err := d.Delete(trajectory.TrajID(len(full.Trajs) + 100)); err == nil {
		t.Fatal("delete of unknown ID succeeded")
	}
	tombs := d.Stats().Tombstones
	if err := d.Delete(dead[0]); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if got := d.Stats().Tombstones; got != tombs {
		t.Fatalf("double delete inflated tombstones: %d -> %d", tombs, got)
	}

	// Idempotent deletes across a compaction: re-deleting an ID already
	// reduced to a base husk must not create a new tombstone (which would
	// count toward the compaction threshold for an unchanged corpus).
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	for _, id := range dead {
		if err := d.Delete(id); err != nil {
			t.Fatalf("post-compaction re-delete: %v", err)
		}
	}
	if st := d.Stats(); st.Tombstones != 0 {
		t.Fatalf("re-deletes of compacted husks created %d tombstones", st.Tombstones)
	}
	for qi, q := range qs {
		searchBoth(t, "post-compaction q"+string(rune('0'+qi)), ref, dyn, q, 9)
	}
}

// TestCompactionPreservesTopK: explicit compaction must not change any
// answer, must fold tombstones away, and must keep serving subsequent
// inserts exactly.
func TestCompactionPreservesTopK(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) / 2
	holdout := (len(full.Trajs) - baseN) / 2

	d, err := NewDynamic(prefix(full, baseN), Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range full.Trajs[baseN : baseN+holdout] {
		if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			t.Fatal(err)
		}
	}
	var dead []trajectory.TrajID
	dead = append(dead, trajectory.TrajID(1), trajectory.TrajID(baseN+1))
	for _, id := range dead {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	qs := testWorkload(t, full, 8, 17)
	dyn := d.NewEngine()
	before := make([][]query.Result, len(qs))
	for qi, q := range qs {
		before[qi] = mustSearch(t, dyn, query.Request{Query: q, K: 9}).Results
	}

	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	if st.DeltaTrajectories != 0 || st.Tombstones != 0 {
		t.Fatalf("delta not drained after compaction: %+v", st)
	}
	if st.BaseTrajectories != baseN+holdout {
		t.Fatalf("base has %d trajectories, want %d", st.BaseTrajectories, baseN+holdout)
	}

	for qi, q := range qs {
		rs := mustSearch(t, dyn, query.Request{Query: q, K: 9}).Results
		requireIdentical(t, "post-compaction", before[qi], rs)
	}

	// Keep ingesting after the swap; answers must still match a rebuild
	// over the equivalent corpus.
	for _, tr := range full.Trajs[baseN+holdout:] {
		if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			t.Fatal(err)
		}
	}
	ref := staticEngine(t, huskify(full, dead))
	for qi, q := range qs {
		searchBoth(t, "post-compaction-insert q"+string(rune('0'+qi)), ref, dyn, q, 9)
	}

	// A no-op compaction is fine.
	preEpoch := d.Stats().Epoch
	d2 := d.NewEngine()
	mustSearch(t, d2, query.Request{Query: qs[0], K: 3})
	if err := d.CompactNow(); err == nil {
		// Second compaction folds the new inserts in; a third with an empty
		// delta must be a no-op.
		if err := d.CompactNow(); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().Epoch; got < preEpoch {
			t.Fatalf("epoch went backwards: %d -> %d", preEpoch, got)
		}
	}
}

// TestOverflowInserts: trajectories with points outside the base grid's
// region must still be found exactly (they bypass the clamped cells).
func TestOverflowInserts(t *testing.T) {
	full := laPreset(t)
	d, err := NewDynamic(full, Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	bounds := full.Bounds()
	// A trajectory well outside the region, carrying common activities.
	far := geo.Point{X: bounds.MaxX + 50, Y: bounds.MaxY + 50}
	acts := full.Trajs[0].ActivityUnion()
	if len(acts) > 3 {
		acts = acts[:3]
	}
	outTraj := trajectory.Trajectory{Pts: []trajectory.Point{{Loc: far, Acts: acts}}}
	id, err := d.Insert(outTraj)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: full rebuild over the corpus including the far trajectory
	// (the rebuild refits its grid, so nothing overflows there).
	refDS := &trajectory.Dataset{Name: full.Name, Vocab: full.Vocab,
		Trajs: append(append([]trajectory.Trajectory{}, full.Trajs...), trajectory.Trajectory{ID: id, Pts: outTraj.Pts})}
	ref := staticEngine(t, refDS)
	dyn := d.NewEngine()

	// Query right at the far point: the overflow trajectory must win.
	q := query.Query{Pts: []query.Point{{Loc: far, Acts: acts[:1]}}}
	searchBoth(t, "overflow", ref, dyn, q, 5)
	rs := mustSearch(t, dyn, query.Request{Query: q, K: 1}).Results
	if len(rs) == 0 || rs[0].ID != id {
		t.Fatalf("overflow trajectory not found: %v", rs)
	}

	// After compaction the refit grid absorbs it; answers stay identical.
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	searchBoth(t, "overflow post-compaction", ref, dyn, q, 5)
}

// TestActlessOutOfRegionPointIsNotOverflow: a point with no activities can
// never participate in matching, so an out-of-region act-less point must
// not push the trajectory onto the (unconditionally retrieved) overflow
// path — its activity-carrying points index normally and results stay
// exact.
func TestActlessOutOfRegionPointIsNotOverflow(t *testing.T) {
	full := laPreset(t)
	d, err := NewDynamic(full, Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	bounds := full.Bounds()
	src := full.Trajs[1]
	pts := append([]trajectory.Point{}, src.Pts...)
	// A GPS glitch: far outside the region, carrying no activities.
	pts = append(pts, trajectory.Point{Loc: geo.Point{X: bounds.MaxX + 80, Y: bounds.MaxY + 80}})
	id, err := d.Insert(trajectory.Trajectory{Pts: pts})
	if err != nil {
		t.Fatal(err)
	}
	gen := d.gen.Load()
	if got := gen.ov.AppendOverflow(nil); len(got) != 0 {
		t.Fatalf("act-less out-of-region point classified as overflow: %v", got)
	}
	if e := gen.active.lookup(id); e == nil || e.overflow {
		t.Fatalf("entry missing or marked overflow: %+v", e)
	}

	refDS := &trajectory.Dataset{Name: full.Name, Vocab: full.Vocab,
		Trajs: append(append([]trajectory.Trajectory{}, full.Trajs...), trajectory.Trajectory{ID: id, Pts: pts})}
	ref := staticEngine(t, refDS)
	dyn := d.NewEngine()
	for qi, q := range testWorkload(t, full, 6, 31) {
		searchBoth(t, "actless q"+string(rune('0'+qi)), ref, dyn, q, 9)
	}
}

// TestAutoCompaction: crossing the threshold triggers a background
// compaction that drains the delta without losing writes.
func TestAutoCompaction(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) / 2
	d, err := NewDynamic(prefix(full, baseN), Config{CompactThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range full.Trajs[baseN:] {
		if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d.Stats()
		if st.Compactions >= 1 && !st.Compacting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compaction after threshold: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.LastCompactErr(); err != nil {
		t.Fatal(err)
	}
	// Whatever the compaction timing, the merged view must stay exact.
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	ref := staticEngine(t, full)
	dyn := d.NewEngine()
	for qi, q := range testWorkload(t, full, 6, 23) {
		searchBoth(t, "auto q"+string(rune('0'+qi)), ref, dyn, q, 9)
	}
	if st := d.Stats(); st.DeltaTrajectories != 0 {
		t.Fatalf("delta not drained: %+v", st)
	}
}

// TestCompactionRollback: a failing rebuild must lose no writes — the
// frozen layer is absorbed back into the active one, searches stay exact
// throughout, auto-compaction latches off instead of hot-retrying, and a
// later successful CompactNow drains everything and re-arms it.
func TestCompactionRollback(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) * 3 / 5
	half := baseN + (len(full.Trajs)-baseN)/2

	d, err := NewDynamic(prefix(full, baseN), Config{CompactThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	d.testFailBuild.Store(true)

	// Crossing the threshold triggers background compactions that all fail;
	// the rollback must keep every insert searchable.
	for _, tr := range full.Trajs[baseN:half] {
		if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactNow(); err == nil {
		t.Fatal("injected rebuild failure did not surface")
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Compacting {
		if time.Now().After(deadline) {
			t.Fatal("compaction did not settle after failure")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !d.autoOff.Load() && d.LastCompactErr() == nil {
		// Either the background attempt latched autoOff, or only explicit
		// CompactNow calls failed (timing-dependent); one must have tripped.
		t.Fatal("no failure recorded anywhere")
	}
	st := d.Stats()
	if st.Compactions != 0 {
		t.Fatalf("failed compactions counted as completed: %+v", st)
	}
	if st.DeltaTrajectories != half-baseN {
		t.Fatalf("rollback lost writes: delta=%d want %d", st.DeltaTrajectories, half-baseN)
	}

	// More writes while auto-compaction is latched off: no hot retries, and
	// exactness holds over the rolled-back layers.
	for _, tr := range full.Trajs[half:] {
		if _, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			t.Fatal(err)
		}
	}
	ref := staticEngine(t, full)
	dyn := d.NewEngine()
	qs := testWorkload(t, full, 6, 41)
	for qi, q := range qs {
		searchBoth(t, "rolled-back q"+string(rune('0'+qi)), ref, dyn, q, 9)
	}

	// Clearing the fault lets an explicit CompactNow drain and re-arm.
	d.testFailBuild.Store(false)
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st = d.Stats()
	if st.DeltaTrajectories != 0 || st.Compactions == 0 {
		t.Fatalf("recovery compaction did not drain: %+v", st)
	}
	if d.autoOff.Load() {
		t.Fatal("auto-compaction still latched off after successful compaction")
	}
	for qi, q := range qs {
		searchBoth(t, "recovered q"+string(rune('0'+qi)), ref, dyn, q, 9)
	}
}

// TestInsertValidation: malformed activity sets and out-of-vocabulary IDs
// are rejected before touching the index.
func TestInsertValidation(t *testing.T) {
	full := laPreset(t)
	d, err := NewDynamic(full, Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	bad := trajectory.Trajectory{Pts: []trajectory.Point{
		{Loc: geo.Point{X: 1, Y: 1}, Acts: trajectory.ActivitySet{3, 2}},
	}}
	if _, err := d.Insert(bad); err == nil {
		t.Fatal("unnormalized activity set accepted")
	}
	bad = trajectory.Trajectory{Pts: []trajectory.Point{
		{Loc: geo.Point{X: 1, Y: 1}, Acts: trajectory.ActivitySet{trajectory.ActivityID(full.Vocab.Size() + 7)}},
	}}
	if _, err := d.Insert(bad); err == nil {
		t.Fatal("out-of-vocabulary activity accepted")
	}
	// Non-finite coordinates would poison every future compaction (the
	// rebuilt grid's bounds go NaN); they must be rejected at insert.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = trajectory.Trajectory{Pts: []trajectory.Point{
			{Loc: geo.Point{X: v, Y: 1}, Acts: full.Trajs[0].Pts[0].Acts},
		}}
		if _, err := d.Insert(bad); err == nil {
			t.Fatalf("non-finite coordinate %v accepted", v)
		}
	}
	if err := d.CompactNow(); err != nil {
		t.Fatalf("compaction after rejected inserts: %v", err)
	}
	if _, err := NewDynamic(full, Config{Store: evaluate.TrajStoreConfig{FilePath: "/tmp/x"}}); err == nil {
		t.Fatal("file-backed store accepted")
	}
}
