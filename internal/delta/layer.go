// Package delta makes the GAT index dynamic. It provides:
//
//   - Layer: an in-memory, mutable mini-GAT over freshly inserted
//     trajectories — per-leaf-cell inverted trajectory lists, an in-memory
//     HICL presence map for every grid level, per-trajectory activity
//     posting lists and TAS sketches — plus a tombstone set masking
//     deletes from any layer;
//   - Dynamic: an LSM-style dynamic index layering an immutable base GAT
//     index under one or two delta layers (active, plus a frozen layer
//     while a compaction is in flight), with online Insert/Delete, exact
//     merged search, and background compaction that rebuilds base+delta
//     into a fresh immutable generation and atomically swaps it in
//     (RCU-style: in-flight searches finish on the old generation, and
//     the retired generation's caches are dropped once it drains);
//   - Engine: a query.Engine serving searches over the current generation,
//     safe for concurrent use.
package delta

import (
	"sync"
	"sync/atomic"

	"activitytraj/internal/geo"
	"activitytraj/internal/grid"
	"activitytraj/internal/invindex"
	"activitytraj/internal/sketch"
	"activitytraj/internal/trajectory"
)

// entry is the in-memory record of one inserted trajectory: everything the
// evaluator needs (coordinates, per-activity point postings, TAS sketch)
// plus the source trajectory for the next compaction. Entries are immutable
// after construction.
type entry struct {
	src      trajectory.Trajectory
	pts      []geo.Point
	acts     trajectory.ActivitySet
	postings []invindex.PostingList // parallel to acts: ascending point indexes
	tas      sketch.Sketch
	overflow bool // some point lies outside the base grid's region
}

func newEntry(tr trajectory.Trajectory, sketchM int, region geo.Rect) *entry {
	e := &entry{src: tr, pts: make([]geo.Point, len(tr.Pts))}
	post := make(map[trajectory.ActivityID][]uint32)
	for pi, p := range tr.Pts {
		e.pts[pi] = p.Loc
		// Only activity-carrying points matter: register skips act-less
		// points and scoring only ever measures distances to points with
		// matching activities, so an act-less point outside the region must
		// not force the whole trajectory onto the overflow path.
		if len(p.Acts) > 0 && !region.ContainsPoint(p.Loc) {
			e.overflow = true
		}
		for _, a := range p.Acts {
			post[a] = append(post[a], uint32(pi))
		}
	}
	e.acts = make(trajectory.ActivitySet, 0, len(post))
	for a := range post {
		e.acts = append(e.acts, a)
	}
	e.acts.Normalize()
	e.postings = make([]invindex.PostingList, len(e.acts))
	for i, a := range e.acts {
		e.postings[i] = post[a]
	}
	e.tas = sketch.Build(e.acts, sketchM)
	return e
}

// Layer is one mutable delta layer: a mini-GAT over the trajectories
// inserted since the last compaction, plus the tombstones of deletes issued
// since then (tombstones may target trajectories of ANY layer, including
// the immutable base).
//
// Writers (insert/delete/re-registration) run under mu's write lock;
// searches hold the read lock for their whole duration, so every search
// observes one consistent state of the layer. A frozen layer (being
// compacted) receives no writes and may be read without locking.
type Layer struct {
	mu sync.RWMutex

	g       *grid.Grid
	depth   int
	sketchM int

	// idSpace is one past the highest ID ever registered; it starts at the
	// base size below the layer, so IDs under it always resolve somewhere.
	idSpace  int
	trajs    map[trajectory.TrajID]*entry
	tombs    map[trajectory.TrajID]struct{}
	numTombs atomic.Int64 // mirror of len(tombs) readable without mu
	muts     atomic.Int64 // inserts+deletes, the auto-compaction trigger

	// hicl[l][a] is the set of level-l cells with a point carrying a;
	// index 0 is unused, mirroring the base index's level numbering. Hybrid
	// container sets keep dense levels compact and make the per-expansion
	// presence probes branchless on bitmap ranges.
	hicl []map[trajectory.ActivityID]*invindex.Set
	// itl[z][a] lists the trajectories with an a-point in leaf cell z.
	itl map[uint32]map[trajectory.ActivityID]invindex.PostingList
	// overflowIDs lists inserted trajectories with out-of-region points;
	// they are excluded from the cell structures (their clamped cells
	// could not bound their distances) and retrieved unconditionally.
	overflowIDs []uint32
}

// NewLayer returns an empty delta layer over g for trajectory IDs starting
// at baseN, sketching inserts with sketchM intervals.
func NewLayer(g *grid.Grid, baseN, sketchM int) *Layer {
	l := &Layer{
		g:       g,
		depth:   g.Depth(),
		sketchM: sketchM,
		idSpace: baseN,
		trajs:   make(map[trajectory.TrajID]*entry),
		tombs:   make(map[trajectory.TrajID]struct{}),
		itl:     make(map[uint32]map[trajectory.ActivityID]invindex.PostingList),
	}
	l.hicl = make([]map[trajectory.ActivityID]*invindex.Set, l.depth+1)
	for lev := 1; lev <= l.depth; lev++ {
		l.hicl[lev] = make(map[trajectory.ActivityID]*invindex.Set)
	}
	return l
}

// insert registers tr under id and returns the immutable entry built for
// it (mutation observers read its activity set without re-deriving it).
// The caller (Dynamic) assigns IDs monotonically and never reuses one.
func (l *Layer) insert(id trajectory.TrajID, tr trajectory.Trajectory) *entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := newEntry(tr, l.sketchM, l.g.Region())
	l.trajs[id] = e
	if int(id) >= l.idSpace {
		l.idSpace = int(id) + 1
	}
	l.register(id, e)
	l.muts.Add(1)
	return e
}

// register adds e's points to the cell structures (or the overflow list).
func (l *Layer) register(id trajectory.TrajID, e *entry) {
	if e.overflow {
		l.overflowIDs = append(l.overflowIDs, uint32(id))
		return
	}
	for _, p := range e.src.Pts {
		if len(p.Acts) == 0 {
			continue
		}
		leaf := l.g.LeafAt(p.Loc)
		cell := l.itl[leaf.Z]
		if cell == nil {
			cell = make(map[trajectory.ActivityID]invindex.PostingList)
			l.itl[leaf.Z] = cell
		}
		for _, a := range p.Acts {
			cell[a] = cell[a].Insert(uint32(id))
			z := leaf.Z
			for lev := l.depth; lev >= 1; lev-- {
				am := l.hicl[lev][a]
				if am == nil {
					am = invindex.NewSet()
					l.hicl[lev][a] = am
				}
				if !am.Insert(z) {
					break // every ancestor is registered already
				}
				z >>= 2
			}
		}
	}
}

// delete tombstones id. It reports whether the tombstone is new.
func (l *Layer) delete(id trajectory.TrajID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.tombs[id]; ok {
		return false
	}
	l.tombs[id] = struct{}{}
	l.numTombs.Add(1)
	l.muts.Add(1)
	return true
}

// mutations returns the number of inserts+deletes applied to the layer.
func (l *Layer) mutations() int { return int(l.muts.Load()) }

// rebound returns a new layer bound to grid g with base size baseN, holding
// the same entries and tombstones re-registered against g's cells. It is
// called during the compaction swap: the old layer keeps serving in-flight
// searches on the retired generation, the rebound copy serves the new one.
// The caller must exclude writers (Dynamic holds its write mutex).
func (l *Layer) rebound(g *grid.Grid, baseN int) *Layer {
	l.mu.RLock()
	defer l.mu.RUnlock()
	nl := NewLayer(g, baseN, l.sketchM)
	if l.idSpace > nl.idSpace {
		nl.idSpace = l.idSpace
	}
	region := g.Region()
	for id, e := range l.trajs {
		ne := e
		// The region may have changed; recompute overflow against it.
		if overflow := entryOverflows(e, region); overflow != e.overflow {
			ne = &entry{src: e.src, pts: e.pts, acts: e.acts, postings: e.postings, tas: e.tas, overflow: overflow}
		}
		nl.trajs[id] = ne
		nl.register(id, ne)
	}
	for id := range l.tombs {
		nl.tombs[id] = struct{}{}
	}
	nl.numTombs.Store(int64(len(nl.tombs)))
	nl.muts.Store(l.muts.Load())
	return nl
}

// absorb merges other's entries and tombstones into l (compaction-failure
// rollback). Caller must exclude writers.
func (l *Layer) absorb(other *Layer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	other.mu.RLock()
	defer other.mu.RUnlock()
	for id, e := range other.trajs {
		l.trajs[id] = e
		if int(id) >= l.idSpace {
			l.idSpace = int(id) + 1
		}
		l.register(id, e)
	}
	for id := range other.tombs {
		if _, ok := l.tombs[id]; !ok {
			l.tombs[id] = struct{}{}
		}
	}
	l.numTombs.Store(int64(len(l.tombs)))
	l.muts.Add(other.muts.Load())
}

// memBytes approximates the layer's heap footprint (entries + cell lists).
func (l *Layer) memBytes() int64 {
	var n int64
	for _, e := range l.trajs {
		n += 64 + int64(len(e.pts))*16 + int64(len(e.acts))*4 + e.tas.MemBytes()
		for _, pl := range e.postings {
			n += pl.MemBytes()
		}
	}
	for _, cell := range l.itl {
		n += 4 // the cell's Z, then per list its activity and postings
		for _, pl := range cell {
			n += 4 + pl.MemBytes()
		}
	}
	for _, lev := range l.hicl {
		for _, am := range lev {
			n += 16 + am.MemBytes()
		}
	}
	n += int64(len(l.tombs)) * 8
	return n
}

// entryOverflows mirrors newEntry's overflow rule: only activity-carrying
// points can force a trajectory onto the overflow path.
func entryOverflows(e *entry, region geo.Rect) bool {
	for _, p := range e.src.Pts {
		if len(p.Acts) > 0 && !region.ContainsPoint(p.Loc) {
			return true
		}
	}
	return false
}

// --- read side (caller holds mu.RLock via the generation's search path;
// frozen layers are immutable and read lock-free) ---

func (l *Layer) tombstoned(id trajectory.TrajID) bool {
	_, ok := l.tombs[id]
	return ok
}

func (l *Layer) lookup(id trajectory.TrajID) *entry { return l.trajs[id] }

// appendRangeTrajs appends the trajectories with an a-point in a leaf whose
// Z lies in [zlo, zlast] and, when region is non-nil, whose cell meets it:
// the leaf-level HICL set says which leaves of the interval carry a, the
// ITL map holds their lists.
func (l *Layer) appendRangeTrajs(dst []uint32, zlo, zlast uint32, a trajectory.ActivityID, region *geo.Rect) []uint32 {
	leaves := l.hicl[l.depth][a]
	for z, ok := leaves.Next(zlo); ok && z <= zlast; z, ok = leaves.Next(z + 1) {
		if region == nil || l.g.CellRect(grid.Cell{Level: uint8(l.depth), Z: z}).Intersects(*region) {
			dst = append(dst, l.itl[z][a]...)
		}
		if z == zlast {
			break // z+1 may wrap at depth 16
		}
	}
	return dst
}
