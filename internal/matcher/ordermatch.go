package matcher

// CheckMIB applies the matching-index-bound filter of Section VI-B: for
// each query point the bound is the first and last trajectory position
// carrying any of its activities; if an earlier query point's lower bound
// exceeds a later one's upper bound, no order-sensitive match can exist.
// It returns false when the candidate can be discarded.
func CheckMIB(rows []QueryRow) bool {
	for i := range rows {
		if rows[i].Empty() {
			return false
		}
	}
	for i := 0; i < len(rows); i++ {
		lbI := rows[i].Idx[0]
		for j := i + 1; j < len(rows); j++ {
			ubJ := rows[j].Idx[len(rows[j].Idx)-1]
			if lbI > ubJ {
				return false
			}
		}
	}
	return true
}

// MinOrderMatch computes Dmom(Q, Tr), the minimum order-sensitive match
// distance (Definition 7), by the dynamic program of Algorithm 4:
//
//	G(i,j) = min_{1<=k<=j} { G(i-1,k) + Dmpm(q_i, Tr[k..j]) }
//
// with G(0,·) = 0. Two optimizations preserve exactness:
//
//   - Only k equal to a relevant point index of q_i needs evaluation: for k
//     between consecutive relevant points the window's cover table is
//     unchanged and G(i-1,k) is minimized at the largest such k (Lemma 4).
//   - The cover table is built incrementally while k descends, exactly the
//     paper's "evaluation of Dmpm can be done incrementally".
//
// The k-descent stops at the first k with G(i-1,k) = +Inf (Lemma 4), and
// the whole computation aborts with Inf once a row's full-trajectory entry
// exceeds threshold (Algorithm 4, line 9); threshold is the k-th smallest
// Dmom found so far (pass Inf to disable).
//
// n is the number of points of the candidate trajectory; rows[i] describes
// query point i's relevant points with ascending 0-based trajectory indexes.
func (m *Matcher) MinOrderMatch(n int, rows []QueryRow, threshold float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	if n == 0 {
		return Inf
	}
	// G rows are 0-indexed by trajectory position j in [0,n).
	if cap(m.gPrev) < n {
		m.gPrev = make([]float64, n)
		m.gCur = make([]float64, n)
	}
	prev := m.gPrev[:n]
	cur := m.gCur[:n]
	for j := range prev {
		prev[j] = 0 // guardian row G(0,*) = 0
	}
	for i := range rows {
		row := &rows[i]
		if row.Empty() && row.NumActs > 0 {
			return Inf
		}
		for j := 0; j < n; j++ {
			cur[j] = Inf
		}
		m.fillOrderRow(n, row, prev, cur)
		if cur[n-1] > threshold {
			return Inf
		}
		prev, cur = cur, prev
	}
	return prev[n-1] // rows were swapped after the last iteration
}

// fillOrderRow computes cur[j] = G(i,j) for all j given prev = G(i-1,·);
// cur must arrive all +Inf. G(i,j) depends on j only through the relevant
// points at or before j, so it is computed once per relevant point r — the
// descent from rel[r] through the earlier relevant points — and copied
// forward up to the next relevant point: O(|rel|^2) cover-table relaxations
// instead of O(n·|rel|). Positions before the first relevant point keep
// +Inf.
func (m *Matcher) fillOrderRow(n int, row *QueryRow, prev, cur []float64) {
	if row.NumActs == 0 {
		// Vacuous activity requirement: the empty point match costs 0 and
		// imposes no ordering constraint, so G(i,j) = G(i-1,j).
		copy(cur, prev)
		return
	}
	rel := row.Idx
	for hi := 1; hi <= len(rel); hi++ {
		// Descend through the relevant points rel[hi-1], rel[hi-2], …,
		// growing the window cover table, and relax against G(i-1,k).
		t := m.newSubsetTable(row.NumActs)
		best := Inf
		for r := hi - 1; r >= 0; r-- {
			k := rel[r]
			if prev[k] == Inf {
				break // Lemma 4: G(i-1,k') is +Inf for all k' < k too
			}
			t.AddPoint(row.Mask[r], row.Dist[r])
			if d := t.Best(); d < Inf {
				if v := prev[k] + d; v < best {
					best = v
				}
			}
		}
		end := n
		if hi < len(rel) {
			end = min(n, int(rel[hi]))
		}
		for j := int(rel[hi-1]); j < end; j++ {
			cur[j] = best
		}
	}
}

// upperBound returns the number of elements of a (ascending) that are <= v.
func upperBound(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MinOrderMatchNaive is Algorithm 4 exactly as printed — the k loop visits
// every position, rebuilding the window table from scratch. It is the
// cross-check oracle for MinOrderMatch in property tests.
func (m *Matcher) MinOrderMatchNaive(n int, rows []QueryRow, threshold float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	if n == 0 {
		return Inf
	}
	prev := make([]float64, n)
	cur := make([]float64, n)
	for i := range rows {
		row := &rows[i]
		for j := 0; j < n; j++ {
			if row.NumActs == 0 {
				cur[j] = prev[j]
				continue
			}
			cur[j] = Inf
			t := m.newSubsetTable(row.NumActs)
			// Incrementally extend the window leftward, k = j..0.
			for k := j; k >= 0; k-- {
				if prev[k] == Inf {
					break
				}
				if r := findIdx(row.Idx, int32(k)); r >= 0 {
					t.AddPoint(row.Mask[r], row.Dist[r])
				}
				if d := t.Best(); d < Inf {
					if v := prev[k] + d; v < cur[j] {
						cur[j] = v
					}
				}
			}
		}
		if cur[n-1] > threshold {
			return Inf
		}
		prev, cur = cur, prev
	}
	return prev[n-1]
}

func findIdx(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a) && a[lo] == v {
		return lo
	}
	return -1
}

// BruteMinOrderMatch enumerates every order-sensitive match (test-only,
// exponential). Consecutive matches may share a boundary point, per
// Definition 7's "smaller than or equal to".
func BruteMinOrderMatch(n int, rows []QueryRow) float64 {
	var rec func(i int, lo int32) float64
	rec = func(i int, lo int32) float64 {
		if i == len(rows) {
			return 0
		}
		row := rows[i]
		if row.NumActs == 0 {
			return rec(i+1, lo)
		}
		full := uint32(1)<<uint(row.NumActs) - 1
		// Candidate points at positions >= lo.
		var cand []int
		for r := range row.Idx {
			if row.Idx[r] >= lo {
				cand = append(cand, r)
			}
		}
		best := Inf
		for sub := 1; sub < 1<<uint(len(cand)); sub++ {
			var mask uint32
			var cost float64
			maxIdx := int32(-1)
			for b, r := range cand {
				if sub&(1<<uint(b)) != 0 {
					mask |= row.Mask[r]
					cost += row.Dist[r]
					if row.Idx[r] > maxIdx {
						maxIdx = row.Idx[r]
					}
				}
			}
			if mask != full {
				continue
			}
			if rest := rec(i+1, maxIdx); rest < Inf && cost+rest < best {
				best = cost + rest
			}
		}
		return best
	}
	if n == 0 && len(rows) > 0 {
		return Inf
	}
	return rec(0, 0)
}
