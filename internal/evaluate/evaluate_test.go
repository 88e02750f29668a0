package evaluate

import (
	"encoding/binary"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"activitytraj/internal/cache"
	"activitytraj/internal/dataset"
	"activitytraj/internal/geo"
	"activitytraj/internal/invindex"
	"activitytraj/internal/matcher"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

func smallDataset(t testing.TB) *trajectory.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "eval", Seed: 5, NumTrajectories: 120, NumVenues: 300,
		VocabSize: 200, RegionW: 20, RegionH: 20, Clusters: 4, TrajLenMean: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestTrajStoreRoundTrip: coordinates and APLs fetched from disk must
// exactly reflect the dataset.
func TestTrajStoreRoundTrip(t *testing.T) {
	ds := smallDataset(t)
	ts, err := BuildTrajStore(ds, TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if ts.NumTrajs() != len(ds.Trajs) {
		t.Fatalf("NumTrajs = %d", ts.NumTrajs())
	}
	for ti := range ds.Trajs {
		tr := &ds.Trajs[ti]
		coords, err := ts.FetchCoords(tr.ID)
		if err != nil {
			t.Fatalf("coords %d: %v", ti, err)
		}
		if len(coords) != len(tr.Pts) {
			t.Fatalf("traj %d: %d coords, want %d", ti, len(coords), len(tr.Pts))
		}
		for pi := range coords {
			if coords[pi] != tr.Pts[pi].Loc {
				t.Fatalf("traj %d point %d: %v vs %v", ti, pi, coords[pi], tr.Pts[pi].Loc)
			}
		}
		apl, err := ts.FetchAPL(tr.ID)
		if err != nil {
			t.Fatalf("apl %d: %v", ti, err)
		}
		// Reconstruct postings from the raw trajectory.
		want := map[trajectory.ActivityID][]uint32{}
		for pi, p := range tr.Pts {
			for _, a := range p.Acts {
				want[a] = append(want[a], uint32(pi))
			}
		}
		for a, idxs := range want {
			got := apl.Postings(a)
			if len(got) != len(idxs) {
				t.Fatalf("traj %d act %d: postings %v, want %v", ti, a, got, idxs)
			}
			for i := range idxs {
				if got[i] != idxs[i] {
					t.Fatalf("traj %d act %d: postings %v, want %v", ti, a, got, idxs)
				}
			}
		}
		if apl.Has(trajectory.ActivityID(9999)) {
			t.Fatalf("traj %d: phantom activity", ti)
		}
	}
}

// TestEvaluatorAgainstDirectComputation: ScoreATSQ/ScoreOATSQ must equal
// the matcher run on rows built straight from the in-memory points.
func TestEvaluatorAgainstDirectComputation(t *testing.T) {
	ds := smallDataset(t)
	ts, err := BuildTrajStore(ds, TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ev := NewEvaluator(ts)
	var m matcher.Matcher

	// A query whose activities are taken from trajectory 0.
	tr := &ds.Trajs[0]
	q := query.Query{Pts: []query.Point{
		{Loc: tr.Pts[0].Loc, Acts: trajectory.NewActivitySet(tr.Pts[0].Acts...)},
		{Loc: tr.Pts[len(tr.Pts)-1].Loc, Acts: trajectory.NewActivitySet(tr.Pts[len(tr.Pts)-1].Acts...)},
	}}
	var stats query.SearchStats
	for ti := range ds.Trajs {
		id := ds.Trajs[ti].ID
		got, out, err := ev.ScoreATSQ(q, id, math.Inf(1), &stats)
		if err != nil {
			t.Fatal(err)
		}
		rows := matcher.BuildRowsFromPoints(q.Pts, ds.Trajs[ti].Pts)
		want := m.MinMatch(rows, math.Inf(1))
		switch out {
		case Scored:
			if !eqInf(got, want) {
				t.Fatalf("traj %d: scored %v, direct %v", ti, got, want)
			}
		case RejectedAPL:
			if want != matcher.Inf {
				t.Fatalf("traj %d: rejected but direct Dmm = %v", ti, want)
			}
		}

		gotO, outO, err := ev.ScoreOATSQ(q, id, math.Inf(1), &stats)
		if err != nil {
			t.Fatal(err)
		}
		rowsO := matcher.BuildRowsFromPoints(q.Pts, ds.Trajs[ti].Pts)
		wantO := m.MinOrderMatch(len(ds.Trajs[ti].Pts), rowsO, math.Inf(1))
		if outO == Scored && !eqInf(gotO, wantO) {
			t.Fatalf("traj %d: OATSQ scored %v, direct %v", ti, gotO, wantO)
		}
		if outO != Scored && wantO != matcher.Inf {
			t.Fatalf("traj %d: OATSQ rejected but direct Dmom = %v", ti, wantO)
		}
	}
	if stats.Scored == 0 {
		t.Fatal("nothing scored")
	}
	// The evaluator attributes disk traffic at the point of the fetch:
	// scoring candidates must charge page reads, and APL refetches of the
	// same trajectories must land in the cache.
	if stats.PageReads == 0 {
		t.Fatal("scoring charged no page reads")
	}
	if stats.CacheHits == 0 {
		t.Fatal("repeat APL fetches recorded no cache hits")
	}
}

// TestFileBackedStore: the file pager path must behave identically.
func TestFileBackedStore(t *testing.T) {
	ds := smallDataset(t)
	path := filepath.Join(t.TempDir(), "trajs.db")
	ts, err := BuildTrajStore(ds, TrajStoreConfig{FilePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	coords, err := ts.FetchCoords(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(coords) != len(ds.Trajs[3].Pts) {
		t.Fatalf("file-backed coords len %d", len(coords))
	}
	if ts.DiskBytes() <= 0 || ts.MemBytes() <= 0 {
		t.Fatal("accounting broken")
	}
}

// TestPoolAccounting: fetches touch pages; ResetPool clears counters.
func TestPoolAccounting(t *testing.T) {
	ds := smallDataset(t)
	ts, err := BuildTrajStore(ds, TrajStoreConfig{PoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	base := ts.PoolStats()
	if _, err := ts.FetchCoords(0); err != nil {
		t.Fatal(err)
	}
	if diff := ts.PoolStats().Sub(base); diff.Touched == 0 {
		t.Fatal("fetch must touch pages")
	}
	ts.ResetPool()
	if ts.PoolStats().Touched != 0 {
		t.Fatal("ResetPool must zero counters")
	}
}

func eqInf(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) < 1e-9
}

// TestSparseCoordsMatchFull: the sparse point fetch — cached and uncached —
// must return exactly the same values a full segment decode does, for
// arbitrary ascending index subsets.
func TestSparseCoordsMatchFull(t *testing.T) {
	ds := smallDataset(t)
	for _, cacheEntries := range []int{0, -1} { // default cache, disabled
		ts, err := BuildTrajStore(ds, TrajStoreConfig{CoordCacheEntries: cacheEntries})
		if err != nil {
			t.Fatal(err)
		}
		var stats query.SearchStats
		var scratch coordScratch
		for ti := range ds.Trajs {
			tr := &ds.Trajs[ti]
			full, err := ts.FetchCoords(tr.ID)
			if err != nil {
				t.Fatal(err)
			}
			n := len(tr.Pts)
			subsets := [][]uint32{{}, {0}, {uint32(n - 1)}}
			var every, odds []uint32
			for i := 0; i < n; i++ {
				every = append(every, uint32(i))
				if i%2 == 1 {
					odds = append(odds, uint32(i))
				}
			}
			subsets = append(subsets, odds, every)
			for si, idxs := range subsets {
				pts, err := ts.fetchCoordsSparse(tr.ID, idxs, &scratch, &stats)
				if err != nil {
					t.Fatalf("traj %d subset %d: %v", ti, si, err)
				}
				for _, idx := range idxs {
					if pts[idx] != full[idx] {
						t.Fatalf("traj %d subset %d idx %d: %v vs %v (cache=%d)",
							ti, si, idx, pts[idx], full[idx], cacheEntries)
					}
				}
			}
			// Out-of-range index must error, not read garbage.
			if _, err := ts.fetchCoordsSparse(tr.ID, []uint32{uint32(n)}, &scratch, &stats); err == nil {
				t.Fatalf("traj %d: out-of-range index accepted", ti)
			}
		}
		ts.Close()
	}
}

// TestHeaderOnlyRejectAccounting: a candidate lacking a query activity is
// rejected on the in-memory directory — counted in HeaderOnlyRejects, and
// charged no page, no cache lookup and no decoded byte, with nothing
// inserted into the APL cache; a delta-resident one is rejected on its
// entry's activity set, counted in APLRejected only; a scored one decodes
// only the queried activities' blocks.
func TestHeaderOnlyRejectAccounting(t *testing.T) {
	ds := smallDataset(t)
	ts, err := BuildTrajStore(ds, TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ev := NewEvaluator(ts)

	// An activity no trajectory carries guarantees rejection.
	var absent trajectory.ActivityID = 9999
	tr := &ds.Trajs[0]
	q := query.New(query.Point{Loc: tr.Pts[0].Loc, Acts: trajectory.ActivitySet{absent}})
	var stats query.SearchStats
	pool, cached := ts.PoolStats(), ts.aplCache.Len()
	_, out, err := ev.ScoreATSQ(q, tr.ID, matcher.Inf, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if out != RejectedAPL {
		t.Fatalf("outcome %v, want RejectedAPL", out)
	}
	if stats.HeaderOnlyRejects != 1 || stats.APLRejected != 1 {
		t.Fatalf("stats %+v: want one header-only reject", stats)
	}
	if stats.PageReads != 0 || stats.CacheHits+stats.CacheMisses != 0 || stats.BytesDecoded != 0 {
		t.Fatalf("stats %+v: a directory reject must charge no page, cache lookup or decode", stats)
	}
	if ts.PoolStats() != pool || ts.CacheStats() != (cache.Stats{}) || ts.aplCache.Len() != cached {
		t.Fatalf("reject touched the store: pool %+v → %+v, APL cache %+v with %d entries (had %d)",
			pool, ts.PoolStats(), ts.CacheStats(), ts.aplCache.Len(), cached)
	}

	// A delta-resident candidate lacking the query activity is an exact
	// reject too, but not a header-only one: it has no header.
	deltaID := trajectory.TrajID(ts.NumTrajs())
	ev.SetDelta(deltaEntries{deltaID: {
		Acts:   trajectory.ActivitySet{tr.Pts[0].Acts[0]},
		Lists:  []invindex.PostingList{{0}},
		Coords: []geo.Point{tr.Pts[0].Loc},
	}})
	stats = query.SearchStats{}
	if _, out, err = ev.ScoreATSQ(q, deltaID, matcher.Inf, &stats); err != nil {
		t.Fatal(err)
	}
	if out != RejectedAPL {
		t.Fatalf("delta outcome %v, want RejectedAPL", out)
	}
	if stats.APLRejected != 1 || stats.HeaderOnlyRejects != 0 || stats.PageReads != 0 {
		t.Fatalf("delta stats %+v: want one APL reject, no header-only reject, no page", stats)
	}
	ev.SetDelta(nil)

	// A scored candidate must decode only the queried activities' blocks.
	present := tr.Pts[0].Acts[0]
	q = query.New(query.Point{Loc: tr.Pts[0].Loc, Acts: trajectory.ActivitySet{present}})
	stats = query.SearchStats{}
	_, out, err = ev.ScoreATSQ(q, tr.ID, matcher.Inf, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if out != Scored {
		t.Fatalf("outcome %v, want Scored", out)
	}
	if stats.BytesDecoded == 0 {
		t.Fatal("scored candidate decoded nothing")
	}
	apl, err := ts.FetchAPL(tr.ID)
	if err != nil {
		t.Fatal(err)
	}
	blockLen := int64(0)
	for i, a := range apl.acts {
		if a == present {
			start := uint32(0)
			if i > 0 {
				start = apl.blockEnd(i - 1)
			}
			blockLen = int64(apl.blockEnd(i) - start)
		}
	}
	wantDecoded := blockLen + 16*int64(len(apl.Postings(present)))
	if stats.BytesDecoded != wantDecoded {
		t.Fatalf("scored candidate decoded %d bytes, want %d (one block + its points)",
			stats.BytesDecoded, wantDecoded)
	}
}

// TestCoordCacheRepeatCostsNothing: scoring the same candidate twice must
// charge pages only once when the coordinate and APL caches are on.
func TestCoordCacheRepeatCostsNothing(t *testing.T) {
	ds := smallDataset(t)
	ts, err := BuildTrajStore(ds, TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ev := NewEvaluator(ts)
	tr := &ds.Trajs[1]
	q := query.New(query.Point{Loc: tr.Pts[0].Loc, Acts: trajectory.ActivitySet{tr.Pts[0].Acts[0]}})

	var first query.SearchStats
	if _, _, err := ev.ScoreATSQ(q, tr.ID, matcher.Inf, &first); err != nil {
		t.Fatal(err)
	}
	if first.PageReads == 0 {
		t.Fatal("cold score read no pages")
	}
	var second query.SearchStats
	if _, _, err := ev.ScoreATSQ(q, tr.ID, matcher.Inf, &second); err != nil {
		t.Fatal(err)
	}
	if second.PageReads != 0 {
		t.Fatalf("warm repeat read %d pages, want 0", second.PageReads)
	}
	if second.CacheHits == 0 {
		t.Fatal("warm repeat hit no caches")
	}
}

// TestDirectoryMatchesHeaders: on the LA test corpus every trajectory's
// directory entry is its ActivityUnion and is what its stored APL header
// lists (parsed here independently of the decoder); a cold FetchAPL accepts
// it and hands out the directory's own slice, not a copy.
func TestDirectoryMatchesHeaders(t *testing.T) {
	ds, err := dataset.Generate(dataset.LA(0.02))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := BuildTrajStore(ds, TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	total := 0
	for ti := range ds.Trajs {
		tr := &ds.Trajs[ti]
		dir := ts.activities(tr.ID)
		total += len(dir)
		if !slices.Equal(dir, tr.ActivityUnion()) {
			t.Fatalf("traj %d: directory %v, ActivityUnion %v", ti, dir, tr.ActivityUnion())
		}
		blob, err := ts.store.Read(ts.aplRefs[tr.ID])
		if err != nil {
			t.Fatal(err)
		}
		n, off := binary.Uvarint(blob)
		var stored []trajectory.ActivityID
		for prev := uint64(0); uint64(len(stored)) < n; {
			d, used := binary.Uvarint(blob[off:])
			off += used
			prev += d
			stored = append(stored, trajectory.ActivityID(prev))
		}
		if !slices.Equal(dir, stored) {
			t.Fatalf("traj %d: directory %v, stored header %v", ti, dir, stored)
		}
		ts.ResetPool()
		apl, err := ts.FetchAPL(tr.ID)
		if err != nil {
			t.Fatalf("traj %d: %v", ti, err)
		}
		got := apl.Activities()
		if len(got) != len(dir) || cap(got) != len(dir) || (len(dir) > 0 && &got[0] != &dir[0]) {
			t.Fatalf("traj %d: APL activities do not alias the directory entry", ti)
		}
	}
	// An activity and its box per entry, an offset per trajectory, and the
	// lattice's edges.
	if want := 4*int64(2*total+len(ds.Trajs)+1) + 2*(boxCells+1)*8 + 16; ts.ActivityDirBytes() != want || ts.MemBytes() <= want {
		t.Fatalf("ActivityDirBytes = %d, MemBytes = %d; want %d inside the total", ts.ActivityDirBytes(), ts.MemBytes(), want)
	}
}

// TestPrefetchBatchReadsUncachedHeaders: the readahead warms the pool with
// the header pages of the APLs prepare will fetch — whatever they carry,
// since the candidates' containment screen happened in retrieval — reads
// nothing for an APL already decoded in the cache, and counts no logical
// access.
func TestPrefetchBatchReadsUncachedHeaders(t *testing.T) {
	ds := smallDataset(t)
	ts, err := BuildTrajStore(ds, TrajStoreConfig{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ev := NewEvaluator(ts)
	misses := func(id trajectory.TrajID) uint64 {
		before := ts.PoolStats()
		ev.PrefetchBatch([]trajectory.TrajID{id})
		diff := ts.PoolStats().Sub(before)
		if diff.Touched != 0 {
			t.Fatalf("readahead counted %d logical accesses", diff.Touched)
		}
		return diff.Misses
	}
	for _, id := range []trajectory.TrajID{0, trajectory.TrajID(len(ds.Trajs) - 1)} {
		ts.ResetPool()
		if n, want := misses(id), uint64(ts.aplRefs[id].SubSpan(0, ts.aplHdrLens[id])); n != want {
			t.Fatalf("traj %d: readahead read %d pages, want its %d header pages", id, n, want)
		}
		ts.ResetPool()
		if _, err := ts.FetchAPL(id); err != nil {
			t.Fatal(err)
		}
		if n := misses(id); n != 0 {
			t.Fatalf("traj %d: readahead for a cached APL read %d pages", id, n)
		}
	}
}

// deltaEntries is a DeltaSource over a fixed set of entries.
type deltaEntries map[trajectory.TrajID]DeltaEntry

func (d deltaEntries) Entry(id trajectory.TrajID) DeltaEntry { return d[id] }
