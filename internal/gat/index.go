package gat

import (
	"cmp"
	"fmt"
	"slices"

	"activitytraj/internal/cache"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/grid"
	"activitytraj/internal/invindex"
	"activitytraj/internal/storage"
	"activitytraj/internal/trajectory"
)

// hiclKey addresses one on-disk HICL posting list.
type hiclKey struct {
	level uint8
	act   trajectory.ActivityID
}

// itlArena is the Inverted Trajectory List in compressed-sparse-row form:
// per occupied leaf cell and activity, the trajectories having a point with
// that activity inside the cell. Everything lives in five flat slices: a
// lookup is two binary searches and no pointer chase.
//
//	cells[i]                          occupied leaf Z codes, ascending
//	acts[cellOff[i]:cellOff[i+1]]     cell i's activities, ascending
//	posts[postOff[j]:postOff[j+1]]    trajectory IDs of list j, ascending
//
// where list j pairs with acts[j]. It is filled in (cell, activity) order
// through startCell/startList and appends to posts, then sealed.
type itlArena struct {
	cells   []uint32
	cellOff []uint32
	acts    []trajectory.ActivityID
	postOff []uint32
	posts   []uint32
}

func (t *itlArena) startCell(z uint32) {
	t.cells = append(t.cells, z)
	t.cellOff = append(t.cellOff, uint32(len(t.acts)))
}

func (t *itlArena) startList(a trajectory.ActivityID) {
	t.acts = append(t.acts, a)
	t.postOff = append(t.postOff, uint32(len(t.posts)))
}

// seal closes the last cell and list; the arena is immutable afterwards.
func (t *itlArena) seal() {
	t.cellOff = append(t.cellOff, uint32(len(t.acts)))
	t.postOff = append(t.postOff, uint32(len(t.posts)))
}

// run returns the index range [lo, hi) of the occupied leaves whose Z lies
// in [zlo, zlast]. cells is in Z order, so the leaves under any one cell of
// the hierarchy are such an interval and its run is the cell's whole
// subtree. The search for hi stops limit+1 leaves past lo — hi-lo > limit
// then says "more than limit", which is all a caller bounding a run by
// limit needs to know.
func (t *itlArena) run(zlo, zlast uint32, limit int) (lo, hi int) {
	lo, _ = slices.BinarySearch(t.cells, zlo)
	n, found := slices.BinarySearch(t.cells[lo:min(lo+limit+1, len(t.cells))], zlast)
	if found {
		n++
	}
	return lo, lo + n
}

// leafActs returns the activities of the i-th occupied leaf and the index
// of its first list (list first+k pairs with acts[k]).
func (t *itlArena) leafActs(i int) (acts []trajectory.ActivityID, first int) {
	lo, hi := t.cellOff[i], t.cellOff[i+1]
	return t.acts[lo:hi], int(lo)
}

// list returns the trajectories of list j.
func (t *itlArena) list(j int) []uint32 { return t.posts[t.postOff[j]:t.postOff[j+1]] }

// postings returns the trajectories with an a-point in leaf z (nil if none).
func (t *itlArena) postings(z uint32, a trajectory.ActivityID) []uint32 {
	if lo, hi := t.run(z, z, 1); lo < hi {
		acts, first := t.leafActs(lo)
		if k, ok := slices.BinarySearch(acts, a); ok {
			return t.list(first + k)
		}
	}
	return nil
}

// Index is a built GAT index over a TrajStore.
type Index struct {
	cfg Config
	ts  *evaluate.TrajStore
	g   *grid.Grid

	// hiclMem[l] is the level-l inverted cell list for 1 <= l <= MemLevels:
	// per activity, a hybrid container set of the cells carrying it, so
	// presence probes and sibling masks are O(1) on dense levels.
	hiclMem []map[trajectory.ActivityID]*invindex.Set
	// hiclDir locates the on-disk lists for levels > MemLevels.
	hiclDir   map[hiclKey]storage.SegRef
	hiclStore *storage.Store
	// hicl caches decoded disk-level HICL cell sets across queries and
	// across every engine clone sharing this index (concurrency-safe).
	// Absent lists are cached as nil so repeated probes stay cheap.
	hicl *cache.Sharded[hiclKey, *invindex.Set]
	itl  itlArena
}

func newHICLCache(entries int) *cache.Sharded[hiclKey, *invindex.Set] {
	return cache.New[hiclKey, *invindex.Set](entries, 0, func(k hiclKey) uint64 {
		return cache.Uint64Hash(uint64(k.level)<<32 | uint64(uint32(k.act)))
	})
}

// CacheStats exposes the HICL decoded-list cache counters.
func (idx *Index) CacheStats() cache.Stats { return idx.hicl.Stats() }

// ResetCache empties the shared decoded-HICL cache (cold-cache
// experiments). It affects every engine over this index.
func (idx *Index) ResetCache() { idx.hicl.Reset() }

// Build constructs the GAT index for the trajectories in ts.
func Build(ts *evaluate.TrajStore, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	ds := ts.Dataset()
	origin, side := grid.FitRegion(ds.Bounds(), 0.01)
	g, err := grid.New(origin, side, cfg.Depth)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		cfg:       cfg,
		ts:        ts,
		g:         g,
		hiclDir:   make(map[hiclKey]storage.SegRef),
		hiclStore: storage.NewMemStore(cfg.PoolPages),
		hicl:      newHICLCache(cfg.HICLCacheEntries),
		itl:       buildITL(ds, g),
	}
	if err := idx.buildHICL(); err != nil {
		return nil, err
	}
	return idx, nil
}

// itlTriple is one (leaf cell, activity, trajectory) incidence, keyed so
// that sorting groups the ITL's lists in arena order.
type itlTriple struct {
	cellAct uint64 // leaf Z << 32 | activity
	traj    uint32
}

// buildITL sorts every incidence of the dataset once and lays the runs out
// as the arena; a trajectory visiting a (cell, activity) twice collapses to
// one posting.
func buildITL(ds *trajectory.Dataset, g *grid.Grid) itlArena {
	n := 0
	for ti := range ds.Trajs {
		for _, p := range ds.Trajs[ti].Pts {
			n += len(p.Acts)
		}
	}
	triples := make([]itlTriple, 0, n)
	for ti := range ds.Trajs {
		tr := &ds.Trajs[ti]
		for _, p := range tr.Pts {
			if len(p.Acts) == 0 {
				continue
			}
			z := uint64(g.LeafAt(p.Loc).Z) << 32
			for _, a := range p.Acts {
				triples = append(triples, itlTriple{cellAct: z | uint64(a), traj: uint32(tr.ID)})
			}
		}
	}
	slices.SortFunc(triples, func(a, b itlTriple) int {
		if c := cmp.Compare(a.cellAct, b.cellAct); c != 0 {
			return c
		}
		return cmp.Compare(a.traj, b.traj)
	})
	var t itlArena
	for i, tp := range triples {
		if i > 0 && tp == triples[i-1] {
			continue
		}
		z, a := uint32(tp.cellAct>>32), trajectory.ActivityID(tp.cellAct)
		newCell := len(t.cells) == 0 || t.cells[len(t.cells)-1] != z
		if newCell {
			t.startCell(z)
		}
		if newCell || t.acts[len(t.acts)-1] != a {
			t.startList(a)
		}
		t.posts = append(t.posts, tp.traj)
	}
	t.seal()
	return t
}

// buildHICL derives every HICL level from the ITL: one (activity, leaf
// cell) pair per ITL list, sorted, is the leaf level grouped by activity
// with ascending cells; z>>2 of an ascending run is ascending, so each
// coarser level is the previous one shifted and de-duplicated in place — no
// level is ever re-sorted. Levels above MemLevels go to the disk store in
// (level, activity) order, so equal inputs build byte-equal indexes.
func (idx *Index) buildHICL() error {
	t := &idx.itl
	pairs := make([]uint64, 0, len(t.acts)) // activity << 32 | cell Z
	for i, z := range t.cells {
		for _, a := range t.acts[t.cellOff[i]:t.cellOff[i+1]] {
			pairs = append(pairs, uint64(a)<<32|uint64(z))
		}
	}
	slices.Sort(pairs)

	memTop := min(idx.cfg.MemLevels, idx.cfg.Depth)
	idx.hiclMem = make([]map[trajectory.ActivityID]*invindex.Set, memTop+1)
	var zs []uint32
	var buf []byte
	for l := idx.cfg.Depth; l >= 1; l-- {
		if l <= memTop {
			idx.hiclMem[l] = make(map[trajectory.ActivityID]*invindex.Set)
		}
		for lo := 0; lo < len(pairs); {
			a := trajectory.ActivityID(pairs[lo] >> 32)
			zs = zs[:0]
			hi := lo
			for ; hi < len(pairs) && trajectory.ActivityID(pairs[hi]>>32) == a; hi++ {
				zs = append(zs, uint32(pairs[hi]))
			}
			lo = hi
			set := invindex.SetFromSorted(zs)
			if l <= memTop {
				idx.hiclMem[l][a] = set
				continue
			}
			buf = set.AppendEncoded(buf[:0])
			ref, err := idx.hiclStore.Append(buf)
			if err != nil {
				return fmt.Errorf("gat: write HICL level %d: %w", l, err)
			}
			idx.hiclDir[hiclKey{level: uint8(l), act: a}] = ref
		}
		parents := pairs[:0]
		for _, p := range pairs {
			p = p&^0xFFFFFFFF | uint64(uint32(p)>>2)
			if len(parents) == 0 || parents[len(parents)-1] != p {
				parents = append(parents, p)
			}
		}
		pairs = parents
	}
	return idx.hiclStore.Seal()
}

// Grid exposes the index's grid (used by tests and the index report tool).
func (idx *Index) Grid() *grid.Grid { return idx.g }

// Config returns the effective configuration.
func (idx *Index) Config() Config { return idx.cfg }

// Store returns the shared trajectory store.
func (idx *Index) Store() *evaluate.TrajStore { return idx.ts }

// MemBreakdown itemizes the index's main-memory footprint.
type MemBreakdown struct {
	HICL        int64 // in-memory levels of the hierarchical inverted cell list
	ITL         int64 // inverted trajectory lists
	TAS         int64 // trajectory activity sketches and segment directories (in the TrajStore)
	Directories int64 // HICL segment directory + the TrajStore's exact activity directory
	Total       int64
}

// MemBytes returns the total in-memory footprint.
func (idx *Index) MemBytes() int64 { return idx.Breakdown().Total }

// Breakdown computes the per-component memory cost reported in Figure 8.
func (idx *Index) Breakdown() MemBreakdown {
	var b MemBreakdown
	for _, m := range idx.hiclMem {
		for _, s := range m {
			b.HICL += 16 + s.MemBytes()
		}
	}
	t := &idx.itl // five slices of 4-byte elements
	b.ITL = 4 * int64(len(t.cells)+len(t.cellOff)+len(t.acts)+len(t.postOff)+len(t.posts))
	acts := idx.ts.ActivityDirBytes() // the price of rejecting without I/O, itemized
	b.Directories = int64(len(idx.hiclDir))*24 + acts
	b.TAS = idx.ts.MemBytes() - acts
	b.Total = b.HICL + b.ITL + b.TAS + b.Directories
	return b
}

// DiskBytes returns the on-disk footprint of the HICL low levels.
func (idx *Index) DiskBytes() int64 { return idx.hiclStore.DiskBytes() }
