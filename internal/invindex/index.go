package invindex

import (
	"slices"

	"activitytraj/internal/trajectory"
)

// Index is an in-memory inverted index from activity ID to a hybrid posting
// Set. It backs the IL baseline (activity → trajectory IDs). Pending
// additions accumulate in flat buffers; Freeze compiles them into Sets.
type Index struct {
	pending map[trajectory.ActivityID][]uint32
	sets    map[trajectory.ActivityID]*Set
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		pending: make(map[trajectory.ActivityID][]uint32),
		sets:    make(map[trajectory.ActivityID]*Set),
	}
}

// Add records id under activity a. IDs may be added in any order; Freeze
// must be called before queries.
func (ix *Index) Add(a trajectory.ActivityID, id uint32) {
	ix.pending[a] = append(ix.pending[a], id)
}

// Freeze compiles every pending addition into the activity's Set. It is
// idempotent and must precede concurrent reads.
func (ix *Index) Freeze() {
	for a, ids := range ix.pending {
		if s := ix.sets[a]; s != nil {
			for _, id := range ids {
				s.Insert(id)
			}
		} else {
			ix.sets[a] = SetFromUnsorted(ids)
		}
		delete(ix.pending, a)
	}
}

// Get returns the posting set for a (nil when absent). The returned set is
// shared; callers must not modify it.
func (ix *Index) Get(a trajectory.ActivityID) *Set { return ix.sets[a] }

// Has reports whether the index has any postings for a.
func (ix *Index) Has(a trajectory.ActivityID) bool { return ix.sets[a].Len() > 0 }

// Activities returns the sorted list of activities present in the index.
func (ix *Index) Activities() []trajectory.ActivityID {
	out := make([]trajectory.ActivityID, 0, len(ix.sets))
	for a := range ix.sets {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// Len returns the number of distinct activities indexed.
func (ix *Index) Len() int { return len(ix.sets) }

// MemBytes approximates the heap footprint of the index.
func (ix *Index) MemBytes() int64 {
	var n int64
	for _, s := range ix.sets {
		n += 16 + s.MemBytes() // map entry overhead approximation + set
	}
	return n
}
