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

// TestChildMasksVsBrute: for random datasets at depths 3..8, the HICL the
// search reads off the arena agrees with a brute-force scan of the dataset.
// For every cell the search can pop — the root and every cell above the
// leaf level that carries an activity, plus a few that carry none — and
// every activity of the vocabulary, spread over query points 32 at a time,
// childMasks marks a child for activity a exactly when some point with a
// lies in one of the child's leaves, and only for activities in the popped
// mask. This is the parent-iff-child invariant the pruning relies on.
func TestChildMasksVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 12; trial++ {
		depth := 3 + trial%6
		vocab := 10 + rng.Intn(150)
		ds, err := dataset.Generate(dataset.Config{
			Name: "hicl-prop", Seed: rng.Int63(), NumTrajectories: 20 + rng.Intn(120), NumVenues: 60 + rng.Intn(300),
			VocabSize: vocab, RegionW: 30, RegionH: 30, Clusters: 1 + rng.Intn(5), TrajLenMean: float64(3 + rng.Intn(12)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := Build(ts, Config{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		// carries[cell] is the set of activities with a point in the cell,
		// at every level from the leaves up to the root.
		carries := map[grid.Cell]map[trajectory.ActivityID]bool{}
		for ti := range ds.Trajs {
			for _, p := range ds.Trajs[ti].Pts {
				leaf := idx.g.LeafAt(p.Loc)
				for l := depth; l >= 0; l-- {
					c := grid.Cell{Level: uint8(l), Z: leaf.Z >> (2 * uint(depth-l))}
					if carries[c] == nil {
						carries[c] = map[trajectory.ActivityID]bool{}
					}
					for _, a := range p.Acts {
						carries[c][a] = true
					}
				}
			}
		}
		var q query.Query // every activity of the vocabulary and a few past it
		for a := 0; a < vocab+5; a += 32 {
			var acts trajectory.ActivitySet
			for b := a; b < min(a+32, vocab+5); b++ {
				acts = append(acts, trajectory.ActivityID(b))
			}
			q.Pts = append(q.Pts, query.Point{Acts: acts})
		}
		s := peekScratch(NewEngine(idx))
		var stats query.SearchStats
		s.Begin(query.Request{Query: q}, &stats)

		cells := []grid.Cell{}
		for c := range carries {
			if int(c.Level) < depth {
				cells = append(cells, c)
			}
		}
		for range 20 { // cells carrying nothing
			l := rng.Intn(depth)
			cells = append(cells, grid.Cell{Level: uint8(l), Z: uint32(rng.Intn(1 << (2 * l)))})
		}
		for _, c := range cells {
			for qi, qp := range q.Pts {
				full := uint32(1)<<uint(len(qp.Acts)) - 1
				for _, mask := range []uint32{full, full & rng.Uint32()} {
					got := s.childMasks(qi, nearCell{cell: c, mask: mask})
					for ci, child := range c.Children() {
						var want uint32
						for b, a := range qp.Acts {
							if mask&(1<<uint(b)) != 0 && carries[child][a] {
								want |= 1 << uint(b)
							}
						}
						if got[ci] != want {
							t.Fatalf("trial %d (depth %d): cell %v child %v, point %d, mask %#x: arena says %#x, scan says %#x",
								trial, depth, c, child, qi, mask, got[ci], want)
						}
					}
				}
			}
		}
	}
}

// TestHICLHierarchyConsistency: the HICL the search reads off the arena is
// consistent with itself and with the ITL. For every cell above the leaves
// and every activity, childMasks marks a child for the activity exactly
// when that child, asked in turn, marks one of its own children for it —
// a listed cell has a listed child and a listed child has a listed
// parent — and at the leaf level it marks exactly the (leaf, activity)
// pairs that carry an ITL list, both ways.
func TestHICLHierarchyConsistency(t *testing.T) {
	_, _, idx := buildSmall(t, Config{Depth: 6})
	depth := idx.cfg.Depth
	var q query.Query // every activity of the arena, 32 to a query point
	for lo := 0; lo < len(idx.itl.acts); lo += 32 {
		q.Pts = append(q.Pts, query.Point{Acts: slices.Clone(idx.itl.acts[lo:min(lo+32, len(idx.itl.acts))])})
	}
	s := peekScratch(NewEngine(idx))
	var stats query.SearchStats
	s.Begin(query.Request{Query: q}, &stats)

	leafPairs := 0
	for l := 0; l < depth; l++ {
		for z := uint32(0); z < 1<<(2*uint(l)); z++ {
			c := grid.Cell{Level: uint8(l), Z: z}
			for qi, qp := range q.Pts {
				full := uint32(1)<<uint(len(qp.Acts)) - 1
				got := s.childMasks(qi, nearCell{cell: c, mask: full})
				for ci, child := range c.Children() {
					if l+1 == depth {
						for b, a := range qp.Acts {
							listed := got[ci]&(1<<uint(b)) != 0
							if has := len(idx.itl.postings(child.Z, a)) > 0; listed != has {
								t.Fatalf("leaf %d act %d: HICL says %v, ITL says %v", child.Z, a, listed, has)
							}
							if listed {
								leafPairs++
							}
						}
						continue
					}
					var below uint32
					for _, m := range s.childMasks(qi, nearCell{cell: child, mask: full}) {
						below |= m
					}
					if below != got[ci] {
						t.Fatalf("level %d cell %d, point %d: listed for %#x, its children for %#x", child.Level, child.Z, qi, got[ci], below)
					}
				}
			}
		}
	}
	if leafPairs != len(idx.itl.entZ) {
		t.Fatalf("leaf HICL and ITL disagree: %d (leaf, activity) pairs vs %d lists", leafPairs, len(idx.itl.entZ))
	}
}

// TestITLCompleteness: for random datasets at depths 3..8, every (leaf,
// activity) slice of the arena equals a brute-force scan of the dataset —
// nothing missing, nothing extra, ascending, no duplicates — the arena
// holds no list the scan does not, and an activity's entries inside a Z
// interval are the scan's lists there.
func TestITLCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		depth := 3 + trial%6
		cfg := Config{Depth: depth}
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

// TestDiskLevelsUsed: the levels below the top three once lived in a disk
// store; every level is now read off the ITL arena, and the deep ones must
// still be consulted correctly. On one store, a depth-7 index ranks every
// query exactly as a full scan does and as a depth-3 index does, and its
// descent pops more cells than the depth-3 one — it goes down the deep
// levels rather than around them.
func TestDiskLevelsUsed(t *testing.T) {
	ds, ts, deep := buildSmall(t, Config{Depth: 7})
	shallow, err := Build(ts, Config{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 8, NumPoints: 2, ActsPerPoint: 2, DiameterKm: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	ev := evaluate.NewEvaluator(ts)
	deepPops, shallowPops := 0, 0
	for qi, q := range qs {
		var scan []float64
		var stats query.SearchStats
		for ti := range ds.Trajs {
			d, out, err := ev.ScoreATSQ(q, ds.Trajs[ti].ID, math.Inf(1), &stats)
			if err != nil {
				t.Fatal(err)
			}
			if out == evaluate.Scored && !math.IsInf(d, 1) {
				scan = append(scan, d)
			}
		}
		slices.Sort(scan)
		scan = scan[:min(k, len(scan))]
		for _, e := range []struct {
			idx  *Index
			pops *int
		}{{deep, &deepPops}, {shallow, &shallowPops}} {
			resp := mustSearch(t, NewEngine(e.idx), query.Request{Query: q, K: k})
			*e.pops += resp.Stats.PQPops
			if len(resp.Results) != len(scan) {
				t.Fatalf("q%d depth %d: %d results, scan says %d", qi, e.idx.cfg.Depth, len(resp.Results), len(scan))
			}
			for i, r := range resp.Results {
				if r.Dist != scan[i] {
					t.Fatalf("q%d depth %d: result %d at %v, scan says %v", qi, e.idx.cfg.Depth, i, r.Dist, scan[i])
				}
			}
		}
	}
	if deepPops <= shallowPops {
		t.Fatalf("depth 7 popped %d cells, depth 3 %d: the deep levels were not descended", deepPops, shallowPops)
	}
}

// TestTheorem1LowerBoundSoundness: at every batch boundary, the computed
// Dlb must not exceed the true minimum Dmm over trajectories not yet
// retrieved (Theorem 1). We instrument a search manually.
func TestTheorem1LowerBoundSoundness(t *testing.T) {
	ds, ts, idx := buildSmall(t, Config{Depth: 6, Lambda: 8, NearCells: 3})
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
	_, ts, coarse := buildSmall(t, Config{Depth: 5})
	fine, err := Build(ts, Config{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	bc, bf := coarse.Breakdown(), fine.Breakdown()
	if bc.ITL <= 0 || bc.Directories <= 0 {
		t.Fatalf("breakdown has zero component: %+v", bc)
	}
	if bc.Total != bc.ITL+bc.Directories {
		t.Fatalf("total mismatch: %+v", bc)
	}
	// The store's directories, the exact activity directory among them,
	// are itemized under Directories.
	if acts := ts.ActivityDirBytes(); acts <= 0 || ts.MemBytes() <= acts || bc.Directories < ts.MemBytes() {
		t.Fatalf("store directories (%d B, activities %d B) misplaced: %+v", ts.MemBytes(), acts, bc)
	}
	if bf.ITL <= bc.ITL {
		t.Fatalf("finer grid should cost more ITL memory: %d vs %d", bf.ITL, bc.ITL)
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
