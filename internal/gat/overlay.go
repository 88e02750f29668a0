package gat

import (
	"activitytraj/internal/evaluate"
	"activitytraj/internal/geo"
	"activitytraj/internal/invindex"
	"activitytraj/internal/trajectory"
)

// DeltaOverlay is the read contract a mutable delta layer presents to the
// GAT searcher so queries stay exact over base ∪ delta without touching the
// immutable base structures. Candidate generation consults the overlay's
// cell lists alongside the base HICL/ITL at every expansion step, so the
// Algorithm 2 lower bound covers unseen delta trajectories exactly like
// base ones; candidate evaluation goes through the embedded DeltaSource.
//
// Tombstones mask deleted trajectories from BOTH layers at candidate-
// collection time, which keeps the merged search exact without inflating k.
//
// Implementations must be stable for the duration of one search; the
// dynamic index guarantees this by excluding writers while a search holds
// its read lock.
type DeltaOverlay interface {
	evaluate.DeltaSource

	// IDSpace returns one past the highest trajectory ID served by either
	// layer; the searcher sizes its seen-set to it.
	IDSpace() int
	// Empty reports whether the overlay currently contributes nothing (no
	// trajectories, no tombstones). The searcher checks it once per search
	// and skips every overlay probe when true, so a dynamic index whose
	// delta has just been compacted away searches at static-index cost.
	Empty() bool
	// AppendCellSets appends, for each delta layer that has one, the set of
	// level-`level` cells holding a point with activity a — the overlay
	// side of the HICL. The searcher resolves it once per search per
	// (level, activity) and probes the sets directly afterwards, so they
	// must stay unchanged until the search ends.
	AppendCellSets(dst []*invindex.Set, level int, a trajectory.ActivityID) []*invindex.Set
	// AppendRangeTrajs appends the IDs of delta trajectories having a point
	// with activity a inside a leaf cell whose Z code lies in [zlo, zlast]
	// — the overlay side of the ITL, for a whole subtree at once (the
	// leaves under one cell are one Z interval; a single leaf is [z, z]).
	// The bound is inclusive because at Depth 16 the last cell's exclusive
	// bound would be 2^32. A non-nil region drops the leaves disjoint from
	// it, the same filter the searcher applies to base leaves.
	AppendRangeTrajs(dst []uint32, zlo, zlast uint32, a trajectory.ActivityID, region *geo.Rect) []uint32
	// Tombstoned reports whether trajectory id has been deleted.
	Tombstoned(id trajectory.TrajID) bool
	// HasTombstones reports whether any deletes are pending, letting the
	// searcher skip per-candidate tombstone probes on the common path.
	HasTombstones() bool
	// AppendOverflow appends the IDs of delta trajectories with a point
	// outside the base grid's region. Their clamped cells cannot bound
	// their true distances, so the searcher retrieves them unconditionally
	// in the first batch (they are few; validation filters them fast).
	AppendOverflow(dst []uint32) []uint32
}

// NewEngineWithOverlay returns a search engine over a built index merged
// with a delta overlay (nil behaves exactly like NewEngine). Results are
// exact over the union of both layers minus tombstoned trajectories.
func NewEngineWithOverlay(idx *Index, ov DeltaOverlay) *Engine {
	e := &Engine{idx: idx, ov: ov}
	e.scratch.New = e.newSearcher
	return e
}
