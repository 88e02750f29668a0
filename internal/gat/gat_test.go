package gat

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/grid"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

func buildSmall(t testing.TB, cfg Config) (*trajectory.Dataset, *evaluate.TrajStore, *Index) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "gat-test", Seed: 21, NumTrajectories: 200, NumVenues: 500,
		VocabSize: 250, RegionW: 30, RegionH: 30, Clusters: 5, TrajLenMean: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, ts, idx
}

// TestHICLHierarchyConsistency: an activity is listed for a cell at level l
// exactly when it is listed for one of the cell's children at level l+1,
// and the leaf level must agree with the ITL.
func TestHICLHierarchyConsistency(t *testing.T) {
	ds, _, idx := buildSmall(t, Config{Depth: 6, MemLevels: 6}) // all in memory
	_ = ds
	for l := 1; l < idx.cfg.Depth; l++ {
		for a, list := range idx.hiclMem[l] {
			childList := idx.hiclMem[l+1][a]
			for _, z := range list.Elements() {
				found := false
				for _, cz := range []uint32{z << 2, z<<2 + 1, z<<2 + 2, z<<2 + 3} {
					if childList.Contains(cz) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("level %d act %d cell %d has no child in level %d", l, a, z, l+1)
				}
			}
			for _, cz := range childList.Elements() {
				if !list.Contains(cz >> 2) {
					t.Fatalf("level %d act %d cell %d missing parent at level %d", l+1, a, cz, l)
				}
			}
		}
	}
	// Leaf level vs ITL: the same (cell, activity) pairs, both ways.
	leaf := idx.hiclMem[idx.cfg.Depth]
	pairs := 0
	for i, a := range idx.itl.acts {
		for _, z := range idx.itl.entZ[idx.itl.actOff[i]:idx.itl.actOff[i+1]] {
			pairs++
			if !leaf[a].Contains(z) {
				t.Fatalf("leaf HICL missing cell %d for act %d", z, a)
			}
		}
	}
	for _, set := range leaf {
		pairs -= set.Len()
	}
	if pairs != 0 {
		t.Fatalf("leaf HICL and ITL disagree by %d (cell, activity) pairs", pairs)
	}
}

// TestITLCompleteness: for random datasets at depths 3..8, with the HICL
// both fully in memory and split across the disk store, every (leaf,
// activity) slice of the arena equals a brute-force scan of the dataset —
// nothing missing, nothing extra, ascending, no duplicates — the arena
// holds no list the scan does not, and an activity's entries inside a Z
// interval are the scan's lists there.
func TestITLCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		depth := 3 + trial%6
		cfg := Config{Depth: depth, MemLevels: depth}
		if trial >= 6 {
			cfg.MemLevels = 1 + rng.Intn(depth-1)
		}
		ds, err := dataset.Generate(dataset.Config{
			Name: "itl-prop", Seed: rng.Int63(), NumTrajectories: 20 + rng.Intn(120), NumVenues: 60 + rng.Intn(300),
			VocabSize: 10 + rng.Intn(150), RegionW: 30, RegionH: 30, Clusters: 1 + rng.Intn(5), TrajLenMean: float64(3 + rng.Intn(12)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := Build(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			z uint32
			a trajectory.ActivityID
		}
		want := map[key][]uint32{}
		for ti := range ds.Trajs { // ascending IDs, so each scan list is too
			tr := &ds.Trajs[ti]
			for _, p := range tr.Pts {
				for _, a := range p.Acts {
					k := key{idx.g.LeafAt(p.Loc).Z, a}
					if l := want[k]; len(l) == 0 || l[len(l)-1] != uint32(tr.ID) {
						want[k] = append(l, uint32(tr.ID))
					}
				}
			}
		}
		for k, list := range want {
			if got := idx.itl.postings(k.z, k.a); !slices.Equal(got, list) {
				t.Fatalf("trial %d (%+v): ITL cell %d act %d = %v, scan says %v", trial, cfg, k.z, k.a, got, list)
			}
		}
		// The descent's one question: for random (activity, Z interval,
		// limit), within over the activity's span is a filter over every
		// entry of the arena — exact when that holds at most limit entries,
		// longer than limit otherwise.
		prng := rand.New(rand.NewSource(int64(trial))) // its own: the datasets above stay the ones they were
		for probe := 0; probe < 200; probe++ {
			a := trajectory.ActivityID(prng.Intn(170)) // some absent
			zlo, zlast := uint32(prng.Intn(1<<(2*depth))), uint32(prng.Intn(1<<(2*depth)))
			if probe%4 == 0 { // a cell's own interval, the last one included
				shift := 2 * uint(prng.Intn(depth+1))
				zlo = zlast >> shift << shift
				zlast = zlo | (1<<shift - 1)
			} else if zlo > zlast {
				zlo, zlast = zlast, zlo
			}
			limit := prng.Intn(6)
			var filter [][]uint32
			for z := zlo; ; z++ {
				if l := want[key{z, a}]; l != nil {
					filter = append(filter, l)
				}
				if z == zlast {
					break
				}
			}
			r := idx.itl.within(idx.itl.span(a), zlo, zlast, limit)
			lo, hi := r.lo, r.hi
			if len(filter) > limit {
				if int(hi-lo) <= limit {
					t.Fatalf("trial %d: act %d in [%d, %d]: %d entries under limit %d, filter says %d", trial, a, zlo, zlast, hi-lo, limit, len(filter))
				}
				continue
			}
			if int(hi-lo) != len(filter) {
				t.Fatalf("trial %d: act %d in [%d, %d]: %d entries, filter says %d", trial, a, zlo, zlast, hi-lo, len(filter))
			}
			for i, l := range filter {
				if e := lo + uint32(i); !slices.Equal(idx.itl.list(e), l) || idx.itl.entZ[e] < zlo || idx.itl.entZ[e] > zlast {
					t.Fatalf("trial %d: act %d in [%d, %d]: entry %d (leaf %d) = %v, filter says %v", trial, a, zlo, zlast, e, idx.itl.entZ[e], idx.itl.list(e), l)
				}
			}
		}
		if len(idx.itl.entZ) != len(want) {
			t.Fatalf("trial %d (%+v): arena holds %d lists, scan says %d", trial, cfg, len(idx.itl.entZ), len(want))
		}
		if a := idx.itl.acts; !slices.IsSorted(a) || len(slices.Compact(slices.Clone(a))) != len(a) {
			t.Fatalf("trial %d: arena activities not strictly ascending", trial)
		}
		for i := range idx.itl.acts {
			if zs := idx.itl.entZ[idx.itl.actOff[i]:idx.itl.actOff[i+1]]; len(zs) == 0 || !slices.IsSorted(zs) || len(slices.Compact(slices.Clone(zs))) != len(zs) {
				t.Fatalf("trial %d: leaves of activity %d not strictly ascending: %v", trial, idx.itl.acts[i], zs)
			}
		}
	}
}

// TestDiskLevelsUsed: with MemLevels < Depth the deep levels live on disk
// and are still consulted correctly (results already cross-checked in
// enginetest; here we assert the directory is populated and readable).
func TestDiskLevelsUsed(t *testing.T) {
	_, _, idx := buildSmall(t, Config{Depth: 7, MemLevels: 3})
	if len(idx.hiclDir) == 0 {
		t.Fatal("no disk-resident HICL lists despite MemLevels < Depth")
	}
	if idx.DiskBytes() <= 0 {
		t.Fatal("disk bytes must be positive")
	}
	for key, ref := range idx.hiclDir {
		if int(key.level) <= 3 {
			t.Fatalf("level %d leaked to disk", key.level)
		}
		blob, err := idx.hiclStore.Read(ref)
		if err != nil {
			t.Fatalf("read %+v: %v", key, err)
		}
		if len(blob) == 0 {
			t.Fatalf("empty HICL segment for %+v", key)
		}
	}
}

// TestTheorem1LowerBoundSoundness: at every batch boundary, the computed
// Dlb must not exceed the true minimum Dmm over trajectories not yet
// retrieved (Theorem 1). We instrument a search manually.
func TestTheorem1LowerBoundSoundness(t *testing.T) {
	ds, ts, idx := buildSmall(t, Config{Depth: 6, MemLevels: 4, Lambda: 8, NearCells: 3})
	e := NewEngine(idx)
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 5, NumPoints: 2, ActsPerPoint: 2, DiameterKm: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ev := evaluate.NewEvaluator(ts)
	for qi, q := range qs {
		s := peekScratch(e)
		var stats query.SearchStats
		s.Begin(query.Request{Query: q}, &stats)
		if s.Exhausted() {
			t.Fatalf("q%d: exhausted before the first batch", qi)
		}
		checked := 0
		for batch := 0; batch < 30 && !s.Exhausted(); batch++ {
			s.NextBatch()
			dlb := s.LowerBound()
			if math.IsInf(dlb, 1) {
				continue
			}
			checked++
			// True minimum Dmm over unseen trajectories.
			trueMin := math.Inf(1)
			for ti := range ds.Trajs {
				id := ds.Trajs[ti].ID
				if s.seen[id] == s.gen {
					continue
				}
				d, out, err := ev.ScoreATSQ(q, id, math.Inf(1), &stats)
				if err != nil {
					t.Fatal(err)
				}
				if out == evaluate.Scored && d < trueMin {
					trueMin = d
				}
			}
			if dlb > trueMin+1e-9 {
				t.Fatalf("q%d batch %d: Dlb %v exceeds true min unseen Dmm %v (Theorem 1)",
					qi, batch, dlb, trueMin)
			}
		}
		if checked == 0 {
			t.Fatalf("q%d: no batch had a finite bound to check", qi)
		}
	}
}

// TestMemBreakdown: all components are accounted and granularity grows the
// footprint (the Fig. 8 memory claim).
func TestMemBreakdown(t *testing.T) {
	_, ts, coarse := buildSmall(t, Config{Depth: 5, MemLevels: 5})
	fine, err := Build(ts, Config{Depth: 8, MemLevels: 8})
	if err != nil {
		t.Fatal(err)
	}
	bc, bf := coarse.Breakdown(), fine.Breakdown()
	if bc.HICL <= 0 || bc.ITL <= 0 || bc.Directories <= 0 {
		t.Fatalf("breakdown has zero component: %+v", bc)
	}
	if bc.Total != bc.HICL+bc.ITL+bc.Directories {
		t.Fatalf("total mismatch: %+v", bc)
	}
	// The store's directories, the exact activity directory among them,
	// are itemized under Directories.
	if acts := ts.ActivityDirBytes(); acts <= 0 || ts.MemBytes() <= acts || bc.Directories < ts.MemBytes() {
		t.Fatalf("store directories (%d B, activities %d B) misplaced: %+v", ts.MemBytes(), acts, bc)
	}
	if bf.HICL <= bc.HICL {
		t.Fatalf("finer grid should cost more HICL memory: %d vs %d", bf.HICL, bc.HICL)
	}
	if coarse.MemBytes() != bc.Total {
		t.Fatal("MemBytes != Breakdown().Total")
	}
	// The ITL is reported from the arena's real slice lengths, 4 bytes an
	// element: a sentinel-terminated offset per activity and per list, the
	// activities, the cell codes and one posting per (activity, cell,
	// trajectory).
	for _, idx := range []*Index{coarse, fine} {
		a := &idx.itl
		elems := len(a.acts) + (len(a.acts) + 1) + len(a.entZ) + (len(a.entZ) + 1) + len(a.posts)
		if got := idx.Breakdown().ITL; got != 4*int64(elems) || len(a.posts) == 0 {
			t.Fatalf("ITL bytes = %d, want 4 x %d arena elements", got, elems)
		}
	}
}

// TestPointQueue: heap ordering, pop, and firstM re-insertion.
func TestPointQueue(t *testing.T) {
	var q pointQueue
	cells := []nearCell{
		{dist: 5, cell: grid.Cell{Level: 3, Z: 1}},
		{dist: 1, cell: grid.Cell{Level: 3, Z: 2}},
		{dist: 3, cell: grid.Cell{Level: 3, Z: 3}},
		{dist: 4, cell: grid.Cell{Level: 3, Z: 4}},
	}
	for _, c := range cells {
		q.push(c)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.firstM(nil, 2)
	if len(got) != 2 || got[0].dist != 1 || got[1].dist != 3 {
		t.Fatalf("firstM(2) = %+v", got)
	}
	if q.Len() != 4 {
		t.Fatalf("firstM must re-insert, Len = %d", q.Len())
	}
	// Pop removes the closest; firstM must then skip it.
	if c := q.pop(); c.dist != 1 {
		t.Fatalf("pop = %+v", c)
	}
	if q.Len() != 3 {
		t.Fatalf("Len after pop = %d", q.Len())
	}
	got = q.firstM(got[:0], 10)
	if len(got) != 3 || got[0].dist != 3 || got[1].dist != 4 || got[2].dist != 5 {
		t.Fatalf("firstM after pop = %+v", got)
	}
	// firstM must be repeatable (re-insertion works).
	again := q.firstM(nil, 3)
	if len(again) != 3 || again[0].dist != 3 {
		t.Fatalf("firstM not repeatable: %+v", again)
	}
	// Ties break by (level, Z) so expansion order is deterministic.
	q.reset()
	q.push(nearCell{dist: 2, cell: grid.Cell{Level: 4, Z: 9}})
	q.push(nearCell{dist: 2, cell: grid.Cell{Level: 3, Z: 7}})
	q.push(nearCell{dist: 2, cell: grid.Cell{Level: 3, Z: 5}})
	if c := q.pop(); c.cell.Z != 5 {
		t.Fatalf("tie-break pop = %+v", c)
	}
	if c := q.pop(); c.cell.Z != 7 {
		t.Fatalf("tie-break pop 2 = %+v", c)
	}
}
