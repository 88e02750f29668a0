package matcher

import "slices"

// Subtrajectory (span-constrained) match distances: the distance of a
// candidate under Request.Subtrajectory is the minimum, over contiguous
// trajectory point spans of an allowed length, of the whole-trajectory
// distance computed as if only the span's points existed. Both follow-up
// lines of work (the RL variant of arXiv:2003.02542 and the exact
// non-learning variant of arXiv:2307.10082) show the split-point structure
// this file exploits; everything here is the exact variant.
//
// Two observations turn the O(n^2) window enumeration into a scan over at
// most r "runs" (r = number of relevant trajectory points):
//
//  1. Monotonicity: growing a span can only lower its distance (every match
//     inside the smaller span is a match inside the larger, for the ordered
//     distance with unchanged relative order). Hence only spans of the
//     maximum allowed length L = min(MaxSpanPoints, n) need evaluation, and
//     MinSpanPoints only decides whether any legal span exists at all.
//  2. Only the RELEVANT points inside a span matter. Let u_1 < … < u_r be
//     the sorted union of the rows' point indexes. Every length-L window's
//     relevant content equals some maximal "run" {u_a, …, u_b(a)} with
//     u_b(a) − u_a ≤ L−1, every such run fits inside a legal window, and a
//     run with the same endpoint as its predecessor is a subset of it
//     (dominated, skipped). The scan is two-pointer, so span search costs
//     O(r) window evaluations instead of O(n).
//
// Pruning mirrors the whole-trajectory machinery and stays exact under the
// same strictly-above-threshold abandonment rule:
//
//   - prefix: the per-row UNCONSTRAINED minimum point match distances are
//     computed once; their sum lower-bounds every span's distance, so a
//     candidate over threshold is abandoned before any window is scored.
//   - suffix: inside a window evaluation, partial sum + the unconstrained
//     tail sum lower-bounds the window's distance, abandoning it early.
//   - ordered runs additionally go through the Lemma-3 layering: the
//     unordered run cost lower-bounds the ordered one and skips
//     Algorithm 4 when it already overshoots.

// spanLen returns the effective window length for a trajectory of n points
// under the request's span limits (0 = unset), and whether any legal span
// exists. minSpan never binds beyond feasibility: a shorter optimal span can
// always be padded to length L without raising its cost (monotonicity), so
// windows of length exactly L are the only ones evaluated.
func spanLen(n, minSpan, maxSpan int) (int, bool) {
	if n <= 0 {
		return 0, false
	}
	if minSpan > n {
		return 0, false // no span long enough exists
	}
	if maxSpan > 0 && minSpan > maxSpan {
		return 0, false // contradictory limits: no legal span length
	}
	if maxSpan > 0 && maxSpan < n {
		return maxSpan, true
	}
	return n, true
}

// MinMatchSpan computes the subtrajectory minimum match distance: the
// minimum of Dmm(Q, Tr[s..e]) over all contiguous spans [s, e] with
// minSpan <= e-s+1 <= maxSpan (0 = unlimited; with both unset this equals
// MinMatch exactly). Computations abandoning past threshold return Inf,
// under MinMatch's strictly-above rule. n is the candidate trajectory's
// point count.
func (m *Matcher) MinMatchSpan(n int, rows []QueryRow, minSpan, maxSpan int, threshold float64) float64 {
	L, ok := spanLen(n, minSpan, maxSpan)
	if !ok {
		return Inf
	}
	if L >= n {
		return m.MinMatch(rows, threshold)
	}
	if !m.spanRowMins(rows, threshold) {
		return Inf
	}
	u := m.spanUnionIdx(rows)
	if len(u) == 0 {
		return 0 // every requirement vacuous (spanRowMins caught the rest)
	}
	mins := m.rowSuffix[:len(rows)]
	best := Inf
	limit := threshold
	bPrev := -1
	for a := range u {
		b := max(bPrev, a)
		for b+1 < len(u) && int(u[b+1])-int(u[a]) < L {
			b++
		}
		if a > 0 && b == bPrev {
			continue // run is a subset of its predecessor: dominated
		}
		bPrev = b
		if d := m.runCostATSQ(rows, u[a], u[b], limit, mins); d < best {
			best = d
			if best < limit {
				limit = best
			}
		}
	}
	if best > threshold {
		return Inf
	}
	return best
}

// MinOrderMatchSpan is MinMatchSpan for the order-sensitive distance Dmom:
// the minimum of Dmom(Q, Tr[s..e]) over the allowed spans. Each run's DP is
// the existing MinOrderMatch over the run's rows rebased to the window
// start — leading and trailing positions without relevant points cannot
// change Algorithm 4's answer, so the rebased window is exact.
func (m *Matcher) MinOrderMatchSpan(n int, rows []QueryRow, minSpan, maxSpan int, threshold float64) float64 {
	L, ok := spanLen(n, minSpan, maxSpan)
	if !ok {
		return Inf
	}
	if L >= n {
		return m.MinOrderMatch(n, rows, threshold)
	}
	if len(rows) == 0 {
		return 0
	}
	if !m.spanRowMins(rows, threshold) {
		return Inf
	}
	u := m.spanUnionIdx(rows)
	if len(u) == 0 {
		return 0
	}
	mins := m.rowSuffix[:len(rows)]
	best := Inf
	limit := threshold
	bPrev := -1
	for a := range u {
		b := max(bPrev, a)
		for b+1 < len(u) && int(u[b+1])-int(u[a]) < L {
			b++
		}
		if a > 0 && b == bPrev {
			continue
		}
		bPrev = b
		// Lemma 3 per run: the (much cheaper) unordered run cost lower-bounds
		// the ordered one; a run already over the limit skips Algorithm 4.
		if m.runCostATSQ(rows, u[a], u[b], limit, mins) == Inf {
			continue
		}
		if d := m.runCostOATSQ(rows, u[a], u[b], limit); d < best {
			best = d
			if best < limit {
				limit = best
			}
		}
	}
	if best > threshold {
		return Inf
	}
	return best
}

// spanRowMins fills m.rowSuffix with the per-row UNCONSTRAINED minimum
// point match distances: rowSuffix[i] lower-bounds what query point i must
// cost inside ANY span. It returns false when no whole-trajectory match
// exists or the running forward sum of the minima strictly exceeds
// threshold — then every span is over threshold too. (The sum runs
// forward, left to right, so by monotonicity of rounded addition it never
// exceeds the forward-summed cost of any actual window — exactness at the
// threshold boundary is preserved bit-for-bit.)
func (m *Matcher) spanRowMins(rows []QueryRow, threshold float64) bool {
	if cap(m.rowSuffix) < len(rows) {
		m.rowSuffix = make([]float64, len(rows))
	}
	mins := m.rowSuffix[:len(rows)]
	var total float64
	for i := range rows {
		row := &rows[i]
		if row.NumActs == 0 {
			mins[i] = 0
			continue
		}
		if row.Empty() {
			return false
		}
		d := m.rowPointMatch(row.NumActs, row.Dist, row.Mask)
		if d == Inf {
			return false
		}
		mins[i] = d
		if total += d; total > threshold {
			return false
		}
	}
	return true
}

// spanUnionIdx returns the ascending union of all rows' trajectory point
// indexes, in matcher scratch.
func (m *Matcher) spanUnionIdx(rows []QueryRow) []int32 {
	u := m.spanUnion[:0]
	for i := range rows {
		u = append(u, rows[i].Idx...)
	}
	m.spanUnion = u
	slices.Sort(u)
	return slices.Compact(u)
}

// runCostATSQ scores one run: Σ over query points of the minimum point
// match over the row entries with trajectory index in [lo, hi], abandoning
// (returning Inf) once the partial sum, continued forward with the
// unconstrained per-row tail minima, strictly exceeds limit. The tail bound
// extends the SAME left-to-right summation the real cost uses, so rounded
// addition's monotonicity guarantees bound ≤ final sum — a prune never
// fires on a run whose true computed cost is at or under limit.
func (m *Matcher) runCostATSQ(rows []QueryRow, lo, hi int32, limit float64, mins []float64) float64 {
	var sum float64
	for i := range rows {
		row := &rows[i]
		if row.NumActs == 0 {
			continue
		}
		rlo := lowerBoundIdx(row.Idx, lo)
		rhi := upperBound(row.Idx, hi)
		if rlo == rhi {
			return Inf // a required query point has no point in this window
		}
		d := m.rowPointMatch(row.NumActs, row.Dist[rlo:rhi], row.Mask[rlo:rhi])
		if d == Inf {
			return Inf
		}
		sum += d
		bound := sum
		for j := i + 1; j < len(rows); j++ {
			bound += mins[j]
		}
		if bound > limit {
			return Inf // suffix prune: even the best-case tail overshoots
		}
	}
	return sum
}

// runCostOATSQ scores one run with the order-sensitive DP: the rows are
// sliced to [lo, hi], rebased to lo, and handed to the existing
// MinOrderMatch over the window's n' = hi-lo+1 positions.
func (m *Matcher) runCostOATSQ(rows []QueryRow, lo, hi int32, limit float64) float64 {
	sub := m.spanSubRows(rows, lo, hi)
	return m.MinOrderMatch(int(hi-lo)+1, sub, limit)
}

// spanSubRows slices every row to the window [lo, hi] and rebases the
// trajectory indexes to the window start. Dist/Mask alias the caller's
// rows; Idx lives in matcher scratch valid until the next call.
func (m *Matcher) spanSubRows(rows []QueryRow, lo, hi int32) []QueryRow {
	if cap(m.spanRows) < len(rows) {
		m.spanRows = make([]QueryRow, len(rows))
	}
	sub := m.spanRows[:len(rows)]
	idx := m.spanIdx[:0]
	for i := range rows {
		row := &rows[i]
		rlo := lowerBoundIdx(row.Idx, lo)
		rhi := upperBound(row.Idx, hi)
		start := len(idx)
		for r := rlo; r < rhi; r++ {
			idx = append(idx, row.Idx[r]-lo)
		}
		sub[i] = QueryRow{
			NumActs: row.NumActs,
			Idx:     idx[start:len(idx):len(idx)],
			Dist:    row.Dist[rlo:rhi],
			Mask:    row.Mask[rlo:rhi],
		}
	}
	m.spanIdx = idx
	return sub
}

// MinMatchSpanCover recomputes the subtrajectory minimum match distance
// together with its covers (see MinMatchCover): the winning run is
// re-derived deterministically (ascending scan, strict improvement), then
// each row's cover comes from the existing window cover DP restricted to
// the run. (Inf, nil) when no span match exists.
func (m *Matcher) MinMatchSpanCover(n int, rows []QueryRow, minSpan, maxSpan int) (float64, [][]int32) {
	L, ok := spanLen(n, minSpan, maxSpan)
	if !ok {
		return Inf, nil
	}
	if L >= n {
		return m.MinMatchCover(rows)
	}
	if !m.spanRowMins(rows, Inf) {
		return Inf, nil
	}
	u := m.spanUnionIdx(rows)
	if len(u) == 0 {
		return 0, emptyCovers(len(rows))
	}
	mins := m.rowSuffix[:len(rows)]
	bestD := Inf
	var bestLo, bestHi int32
	bPrev := -1
	for a := range u {
		b := max(bPrev, a)
		for b+1 < len(u) && int(u[b+1])-int(u[a]) < L {
			b++
		}
		if a > 0 && b == bPrev {
			continue
		}
		bPrev = b
		if d := m.runCostATSQ(rows, u[a], u[b], bestD, mins); d < bestD {
			bestD, bestLo, bestHi = d, u[a], u[b]
		}
	}
	if bestD == Inf {
		return Inf, nil
	}
	covers := make([][]int32, len(rows))
	var sum float64
	for i := range rows {
		row := &rows[i]
		rlo := lowerBoundIdx(row.Idx, bestLo)
		rhi := upperBound(row.Idx, bestHi)
		d, picked := windowCover(row.NumActs, row, rlo, rhi)
		if d == Inf {
			return Inf, nil
		}
		sum += d
		covers[i] = rowIndexes(row, picked)
	}
	return sum, covers
}

// MinOrderMatchSpanCover is MinMatchSpanCover for the order-sensitive
// distance: the winning run's rebased rows go through the existing
// MinOrderMatchCover, and the returned indexes are shifted back to
// trajectory positions.
func (m *Matcher) MinOrderMatchSpanCover(n int, rows []QueryRow, minSpan, maxSpan int) (float64, [][]int32) {
	L, ok := spanLen(n, minSpan, maxSpan)
	if !ok {
		return Inf, nil
	}
	if L >= n {
		return m.MinOrderMatchCover(n, rows)
	}
	if len(rows) == 0 {
		return 0, [][]int32{}
	}
	if !m.spanRowMins(rows, Inf) {
		return Inf, nil
	}
	u := m.spanUnionIdx(rows)
	if len(u) == 0 {
		return 0, emptyCovers(len(rows))
	}
	mins := m.rowSuffix[:len(rows)]
	bestD := Inf
	var bestLo, bestHi int32
	bPrev := -1
	for a := range u {
		b := max(bPrev, a)
		for b+1 < len(u) && int(u[b+1])-int(u[a]) < L {
			b++
		}
		if a > 0 && b == bPrev {
			continue
		}
		bPrev = b
		if m.runCostATSQ(rows, u[a], u[b], bestD, mins) == Inf {
			continue
		}
		if d := m.runCostOATSQ(rows, u[a], u[b], bestD); d < bestD {
			bestD, bestLo, bestHi = d, u[a], u[b]
		}
	}
	if bestD == Inf {
		return Inf, nil
	}
	sub := m.spanSubRows(rows, bestLo, bestHi)
	d, covers := m.MinOrderMatchCover(int(bestHi-bestLo)+1, sub)
	if covers == nil {
		return Inf, nil
	}
	for _, c := range covers {
		for j := range c {
			c[j] += bestLo
		}
	}
	return d, covers
}

func emptyCovers(n int) [][]int32 {
	covers := make([][]int32, n)
	for i := range covers {
		covers[i] = []int32{}
	}
	return covers
}

// lowerBoundIdx returns the number of elements of a (ascending) that are
// strictly less than v — the position of the first element >= v.
func lowerBoundIdx(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RestrictRows returns fresh rows holding only the entries with trajectory
// index in [lo, hi], rebased to lo — the span a brute-force scorer feeds to
// the whole-trajectory reference algorithms (test-only; the search path
// uses matcher scratch via spanSubRows instead).
func RestrictRows(rows []QueryRow, lo, hi int32) []QueryRow {
	out := make([]QueryRow, len(rows))
	for i := range rows {
		row := &rows[i]
		r := QueryRow{NumActs: row.NumActs}
		for j, idx := range row.Idx {
			if idx >= lo && idx <= hi {
				r.Idx = append(r.Idx, idx-lo)
				r.Dist = append(r.Dist, row.Dist[j])
				r.Mask = append(r.Mask, row.Mask[j])
			}
		}
		out[i] = r
	}
	return out
}

// BruteMinMatchSpan enumerates every allowed span [s, e] and scores it with
// the exhaustive whole-trajectory reference over the restricted rows
// (test-only, O(n^2) windows).
func BruteMinMatchSpan(n int, rows []QueryRow, minSpan, maxSpan int) float64 {
	best := Inf
	for s := 0; s < n; s++ {
		for e := s; e < n; e++ {
			length := e - s + 1
			if (minSpan > 0 && length < minSpan) || (maxSpan > 0 && length > maxSpan) {
				continue
			}
			if d := BruteMinMatch(RestrictRows(rows, int32(s), int32(e))); d < best {
				best = d
			}
		}
	}
	return best
}

// BruteMinOrderMatchSpan is BruteMinMatchSpan for the order-sensitive
// distance (test-only, exponential per window).
func BruteMinOrderMatchSpan(n int, rows []QueryRow, minSpan, maxSpan int) float64 {
	best := Inf
	for s := 0; s < n; s++ {
		for e := s; e < n; e++ {
			length := e - s + 1
			if (minSpan > 0 && length < minSpan) || (maxSpan > 0 && length > maxSpan) {
				continue
			}
			if d := BruteMinOrderMatch(length, RestrictRows(rows, int32(s), int32(e))); d < best {
				best = d
			}
		}
	}
	return best
}
