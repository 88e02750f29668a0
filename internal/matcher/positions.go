package matcher

import (
	"slices"

	"activitytraj/internal/query"
)

// Exact position tests on a candidate's posting lists, in RowBuilder's
// (pts, slots, lists) form: they decide, from trajectory point indexes
// alone, whether a distance of the requested kind can be finite at all, so
// a candidate that has none is dropped before its coordinates are fetched
// and its rows built. Distances play no part — every point's distance is
// finite — so what remains is which query activities occur where.

// OrderFeasible reports whether the candidate has an order-sensitive match
// at all: exactly MinOrderMatch(n, rows, Inf) < Inf for the rows
// RowBuilder.Build makes of the same lists (n > 0). It replaces the MIB
// filter, which it implies: it reads every posting up to the match, not
// just each row's first and last.
//
// The test is greedy. With e₋₁ = 0, let eᵢ be the largest, over query
// point i's activities, of the activity's first posting at or after eᵢ₋₁;
// a point without activities passes e through. Every eᵢ exists if and only
// if the match exists, because G(i,·) of Algorithm 4 is finite exactly from
// eᵢ on: G(0,·) = 0 everywhere, and if G(i−1,·) is finite exactly from
// eᵢ₋₁, then G(i,j) is finite if and only if some window [k, j] with
// k ≥ eᵢ₋₁ covers point i's activities — the widest, k = eᵢ₋₁, covers them
// if and only if j ≥ eᵢ. Windows may share their boundary point, as
// consecutive matches may (Definition 7), so the next search starts at eᵢ,
// not after it.
func OrderFeasible(pts []query.Point, slots []int, lists [][]uint32) bool {
	var e uint32
	for _, p := range pts {
		next := e
		for _, slot := range slots[:len(p.Acts)] {
			l := lists[slot]
			i, _ := slices.BinarySearch(l, e)
			if i == len(l) {
				return false
			}
			next = max(next, l[i])
		}
		slots = slots[len(p.Acts):]
		e = next
	}
	return true
}

// SpanFeasible reports whether a candidate of n points has a subtrajectory
// match under the span limits minSpan and maxSpan (0 = unset): exactly
// MinMatchSpan(n, rows, minSpan, maxSpan, Inf) < Inf for the rows
// RowBuilder.Build makes of lists, of which every one must be asked for by
// some query point. A window holds a match if and only if every query
// activity occurs in it, and a covering window no longer than the span
// length L grows into one of exactly L points inside the trajectory, so
// the test is whether the shortest window covering every list is at most
// L long. For the order-sensitive distance the test is necessary, not
// sufficient; OrderFeasible is the other necessary condition.
func (rb *RowBuilder) SpanFeasible(n, minSpan, maxSpan int, lists [][]uint32) bool {
	L, ok := spanLen(n, minSpan, maxSpan)
	if !ok {
		return false
	}
	for _, l := range lists {
		if len(l) == 0 {
			return false
		}
	}
	return L >= n || len(lists) == 0 || rb.coverWithin(lists, L)
}

// coverWithin reports whether some window of at most L points holds a
// posting of every list (at least one, none empty) by a k-pointer sweep: the window from
// the smallest to the largest of the lists' heads is the shortest one that
// starts at the smallest head, which then advances, so the sweep visits the
// shortest window starting at every posting.
func (rb *RowBuilder) coverWithin(lists [][]uint32, L int) bool {
	heads := rb.heads[:0]
	for range lists {
		heads = append(heads, 0)
	}
	rb.heads = heads
	for {
		lo, hi, at := ^uint32(0), uint32(0), 0
		for i, l := range lists {
			p := l[heads[i]]
			if p < lo {
				lo, at = p, i
			}
			hi = max(hi, p)
		}
		if int(hi-lo) < L {
			return true
		}
		if heads[at]++; heads[at] == len(lists[at]) {
			return false
		}
	}
}
