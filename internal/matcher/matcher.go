// Package matcher implements the paper's match-distance algorithms:
//
//   - Dmpm, the minimum point match distance (Algorithm 3): the cheapest set
//     of trajectory points whose activities jointly cover one query point's
//     activity set, weighted by Euclidean distance.
//   - Dmm, the minimum match distance (Lemma 1: the sum of Dmpm over query
//     points).
//   - Dmom, the minimum order-sensitive match distance (Algorithm 4, dynamic
//     programming over sub-query × sub-trajectory prefixes).
//   - The MIB (matching index bound) order filter of Section VI-B, and the
//     exact position tests that replace it where they can: whether an
//     order-sensitive match, or a match inside a span of the allowed
//     length, exists at all, decided from posting lists alone.
//
// Exhaustive reference implementations are provided for property testing.
//
// The algorithms operate on bitmasks over a query point's activity list:
// bit b of a point's mask is set when the point offers query activity b.
// This keeps the subset dynamic program allocation-free for the activity
// counts the paper evaluates (|q.Φ| ≤ 5).
package matcher

import "math"

// Inf is the distance reported for candidates with no (order-sensitive)
// match.
var Inf = math.Inf(1)

// WeightedPoint is one candidate trajectory point as seen from a single
// query point: its distance to that query point and the bitmask of query
// activities it covers.
type WeightedPoint struct {
	Dist float64
	Mask uint32
}

// maxArrayActs bounds the activity-count for which the subset table uses a
// dense array (2^16 float64 = 512 KiB of reusable scratch). Queries beyond
// this are rejected by query.Validate long before reaching the matcher.
const maxArrayActs = 16

// Matcher owns the reusable scratch space for the subset dynamic programs.
// A Matcher is not safe for concurrent use; each search goroutine should
// own one. The zero value is ready to use.
type Matcher struct {
	table []float64
	queue []uint32
	gPrev []float64
	gCur  []float64
	// wpts and maskSlot are rowPointMatch's scratch: the one-per-mask points
	// and the mask → wpts position table.
	wpts     []WeightedPoint
	maskSlot []int32
	// Subtrajectory (span) scratch; see span.go.
	spanUnion []int32
	spanRows  []QueryRow
	spanIdx   []int32
	rowSuffix []float64
}

// resetTable returns a subset table of size 1<<nq with every entry +Inf
// and entry 0 (the empty cover) set to 0.
func (m *Matcher) resetTable(nq int) []float64 {
	size := 1 << uint(nq)
	if cap(m.table) < size {
		m.table = make([]float64, size)
	}
	t := m.table[:size]
	t[0] = 0
	for i := 1; i < size; i++ {
		t[i] = Inf
	}
	return t
}

// subsetTable is the incremental form of the cover DP used by Algorithm 4:
// AddPoint relaxes the table with one more candidate point; Best reports the
// current cost of covering the full query activity set.
type subsetTable struct {
	vals []float64
	full uint32
}

func (m *Matcher) newSubsetTable(nq int) subsetTable {
	return subsetTable{vals: m.resetTable(nq), full: uint32(1)<<uint(nq) - 1}
}

// AddPoint relaxes the table with a point covering mask at cost dist.
// Ascending in-place iteration may chain a point's contribution through
// masks it just improved; that only re-adds the same point to a cover,
// which never beats the true optimum and never dips below it (set-cover
// costs are subadditive), so the table stays exact.
func (t *subsetTable) AddPoint(mask uint32, dist float64) {
	mask &= t.full
	if mask == 0 || dist == Inf {
		return
	}
	vals := t.vals
	for s, v := range vals {
		if v == Inf {
			continue
		}
		key := uint32(s) | mask
		if nv := v + dist; nv < vals[key] {
			vals[key] = nv
		}
	}
}

// Best returns the cost of covering the full query set, or Inf.
func (t *subsetTable) Best() float64 { return t.vals[t.full] }
