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

// itlArena is the Inverted Trajectory List in compressed-sparse-row form,
// activity-major: per activity the leaf cells carrying it in ascending Z
// order, and per such (activity, leaf) entry the trajectories having a point
// with that activity inside the leaf. Algorithm 1 only asks "which
// trajectories carry activity a under this cell", and the leaves under a
// cell are a Z interval, so the answer is one contiguous range of a's span:
// one bisection of that span, and no leaf that lacks a is ever touched.
//
//	acts[i]                           the activities present, ascending
//	entZ[actOff[i]:actOff[i+1]]       leaf Z codes carrying acts[i], ascending
//	posts[postOff[e]:postOff[e+1]]    trajectory IDs of entry e, ascending
//
// layoutITL is its one builder, for Build and Load alike.
type itlArena struct {
	acts    []trajectory.ActivityID
	actOff  []uint32
	entZ    []uint32
	postOff []uint32
	posts   []uint32
}

// entRange is a range [lo, hi) of arena entries.
type entRange struct{ lo, hi uint32 }

// span returns the entries of activity a, none if no leaf carries it.
// Activity IDs come off the wire, so they are searched for, not indexed by.
func (t *itlArena) span(a trajectory.ActivityID) entRange {
	if i, ok := slices.BinarySearch(t.acts, a); ok {
		return entRange{t.actOff[i], t.actOff[i+1]}
	}
	return entRange{}
}

// within narrows an activity's span to its entries whose leaf Z lies in
// [zlo, zlast]. The search for the upper end stops limit+1 entries past the
// lower — a result longer than limit then says "more than limit", which is
// all a caller bounding a range by limit needs to know.
func (t *itlArena) within(sp entRange, zlo, zlast uint32, limit int) entRange {
	zs := t.entZ[sp.lo:sp.hi]
	first, _ := slices.BinarySearch(zs, zlo)
	zs = zs[first:min(first+limit+1, len(zs))]
	n := len(zs) // all of the window, if its last entry is inside: the dense case
	if n > 0 && zs[n-1] > zlast {
		var found bool
		if n, found = slices.BinarySearch(zs, zlast); found {
			n++
		}
	}
	return entRange{sp.lo + uint32(first), sp.lo + uint32(first+n)}
}

// list returns the trajectories of entry e.
func (t *itlArena) list(e uint32) []uint32 { return t.posts[t.postOff[e]:t.postOff[e+1]] }

// postings returns the trajectories with an a-point in leaf z (nil if none).
func (t *itlArena) postings(z uint32, a trajectory.ActivityID) []uint32 {
	if r := t.within(t.span(a), z, z, 1); r.lo < r.hi {
		return t.list(r.lo)
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
	// across every engine sharing this index (concurrency-safe).
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
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

// itlTriple is one (activity, leaf cell, trajectory) incidence, keyed so
// that sorting groups the ITL's lists in arena order.
type itlTriple struct {
	actCell uint64 // activity << 32 | leaf Z
	traj    uint32
}

// buildITL collects every incidence of the dataset for layoutITL; a
// trajectory visiting a (cell, activity) twice collapses to one posting.
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
			z := uint64(g.LeafAt(p.Loc).Z)
			for _, a := range p.Acts {
				triples = append(triples, itlTriple{actCell: uint64(a)<<32 | z, traj: uint32(tr.ID)})
			}
		}
	}
	return layoutITL(triples)
}

// layoutITL sorts incidences into arena order and lays their runs out, each
// offset column closed by a sentinel; the arena is immutable afterwards.
func layoutITL(triples []itlTriple) itlArena {
	slices.SortFunc(triples, func(a, b itlTriple) int {
		if c := cmp.Compare(a.actCell, b.actCell); c != 0 {
			return c
		}
		return cmp.Compare(a.traj, b.traj)
	})
	var t itlArena
	for i, tp := range triples {
		if i > 0 && tp == triples[i-1] {
			continue
		}
		a, z := trajectory.ActivityID(tp.actCell>>32), uint32(tp.actCell)
		newAct := len(t.acts) == 0 || t.acts[len(t.acts)-1] != a
		if newAct {
			t.acts, t.actOff = append(t.acts, a), append(t.actOff, uint32(len(t.entZ)))
		}
		if newAct || t.entZ[len(t.entZ)-1] != z {
			t.entZ, t.postOff = append(t.entZ, z), append(t.postOff, uint32(len(t.posts)))
		}
		t.posts = append(t.posts, tp.traj)
	}
	t.actOff, t.postOff = append(t.actOff, uint32(len(t.entZ))), append(t.postOff, uint32(len(t.posts)))
	return t
}

// buildHICL derives every HICL level from the ITL, whose entries in arena
// order are the leaf level grouped by activity with ascending cells; z>>2 of
// an ascending run is ascending, so each coarser level is the previous one
// shifted and de-duplicated in place — nothing is ever sorted. Levels above
// MemLevels go to the disk store in (level, activity) order, so equal inputs
// build byte-equal indexes.
func (idx *Index) buildHICL() error {
	t := &idx.itl
	pairs := make([]uint64, 0, len(t.entZ)) // activity << 32 | cell Z
	for i, a := range t.acts {
		for _, z := range t.entZ[t.actOff[i]:t.actOff[i+1]] {
			pairs = append(pairs, uint64(a)<<32|uint64(z))
		}
	}

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
	Directories int64 // HICL segment directory + the TrajStore's segment and exact activity directories
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
	b.ITL = 4 * int64(len(t.acts)+len(t.actOff)+len(t.entZ)+len(t.postOff)+len(t.posts))
	b.Directories = int64(len(idx.hiclDir))*24 + idx.ts.MemBytes()
	b.Total = b.HICL + b.ITL + b.Directories
	return b
}

// DiskBytes returns the on-disk footprint of the HICL low levels.
func (idx *Index) DiskBytes() int64 { return idx.hiclStore.DiskBytes() }
