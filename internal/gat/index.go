package gat

import (
	"cmp"
	"slices"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/grid"
	"activitytraj/internal/trajectory"
)

// itlArena is the Inverted Trajectory List in compressed-sparse-row form,
// activity-major: per activity the leaf cells carrying it in ascending Z
// order, and per such (activity, leaf) entry the trajectories having a point
// with that activity inside the leaf. Algorithm 1 asks two questions of a
// cell, "which trajectories carry activity a under it" (the ITL's) and
// "which of its children carry a" (the HICL's), and the leaves under a cell
// are a Z interval, so both are answered by bisecting a's span, and no leaf
// that lacks a is ever touched. The arena is therefore the HICL as well.
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

// Index is a built GAT index over a TrajStore. Its HICL is the ITL arena
// read by level: see searcher.childMasks.
type Index struct {
	cfg Config
	ts  *evaluate.TrajStore
	g   *grid.Grid
	itl itlArena
}

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
	return &Index{cfg: cfg, ts: ts, g: g, itl: buildITL(ds, g)}, nil
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

// Grid exposes the index's grid (used by tests and the index report tool).
func (idx *Index) Grid() *grid.Grid { return idx.g }

// Config returns the effective configuration.
func (idx *Index) Config() Config { return idx.cfg }

// Store returns the shared trajectory store.
func (idx *Index) Store() *evaluate.TrajStore { return idx.ts }

// MemBreakdown itemizes the index's main-memory footprint.
type MemBreakdown struct {
	ITL         int64 // inverted trajectory lists, which also answer every HICL probe
	Directories int64 // the TrajStore's segment and exact activity directories
	Total       int64
}

// MemBytes returns the total in-memory footprint.
func (idx *Index) MemBytes() int64 { return idx.Breakdown().Total }

// Breakdown computes the per-component memory cost reported in Figure 8.
func (idx *Index) Breakdown() MemBreakdown {
	t := &idx.itl // five slices of 4-byte elements
	b := MemBreakdown{
		ITL:         4 * int64(len(t.acts)+len(t.actOff)+len(t.entZ)+len(t.postOff)+len(t.posts)),
		Directories: idx.ts.MemBytes(),
	}
	b.Total = b.ITL + b.Directories
	return b
}
