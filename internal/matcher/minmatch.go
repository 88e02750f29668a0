package matcher

// QueryRow is one query point's view of a candidate trajectory: the indexes
// (ascending trajectory positions), distances and coverage masks of the
// points that carry at least one of the query point's activities. NumActs
// is |q.Φ| for that query point. Rows are built from Activity Posting Lists
// (RowBuilder, every engine) or by scanning trajectory points (the
// reference builder); see rows.go.
type QueryRow struct {
	NumActs int
	Idx     []int32
	Dist    []float64
	Mask    []uint32
}

// Empty reports whether the row has no relevant points (no point match can
// exist for this query point).
func (r QueryRow) Empty() bool { return len(r.Idx) == 0 }

// MinMatch computes Dmm(Q, Tr), the minimum match distance of Definition 6.
// By Lemma 1 it is the sum of per-query-point minimum point match distances.
// The computation abandons early and returns Inf once the partial sum
// exceeds threshold (pass Inf to disable): such a candidate can never enter
// the current top-k, which is the same pruning every engine applies.
func (m *Matcher) MinMatch(rows []QueryRow, threshold float64) float64 {
	var sum float64
	for _, row := range rows {
		if row.Empty() && row.NumActs > 0 {
			return Inf
		}
		d := m.rowPointMatch(row.NumActs, row.Dist, row.Mask)
		if d == Inf {
			return Inf
		}
		sum += d
		if sum > threshold {
			return Inf
		}
	}
	return sum
}

// BruteMinMatch is the exhaustive reference for MinMatch (test-only).
func BruteMinMatch(rows []QueryRow) float64 {
	var sum float64
	for _, row := range rows {
		pts := make([]WeightedPoint, len(row.Idx))
		for i := range row.Idx {
			pts[i] = WeightedPoint{Dist: row.Dist[i], Mask: row.Mask[i]}
		}
		d := BruteMinPointMatch(row.NumActs, pts)
		if d == Inf {
			return Inf
		}
		sum += d
	}
	return sum
}
