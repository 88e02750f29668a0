package gat

import "activitytraj/internal/grid"

// nearCell is one unvisited cell tracked for a query point: its minimum
// distance to the query location and the bitmask of the query point's
// activities present in the cell (per the HICL), from which the lower
// bound's virtual points are made.
type nearCell struct {
	dist float64
	cell grid.Cell
	mask uint32
}

// nearLess is the strict weak order of the search frontier: ascending
// distance, ties broken by (level, Z) so expansion order — and therefore
// every statistic — is deterministic.
func nearLess(a, b nearCell) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.cell.Level != b.cell.Level {
		return a.cell.Level < b.cell.Level
	}
	return a.cell.Z < b.cell.Z
}

// pointQueue is the per-query-point search frontier: a binary min-heap of
// the unvisited cells relevant to one query point. It serves double duty as
// the paper's priority queue (Algorithm 1 pops the globally nearest cell —
// the searcher scans the per-point heads) and as the cellsn(q_i) structure
// of Algorithm 2 (firstM yields the m nearest unvisited cells). Merging the
// two removes the old lazy-deletion map entirely, and the heap is
// hand-rolled on a concrete slice — no container/heap, so pushes and pops
// never box through interface{}.
//
// Unlike the paper's truncated cellsn list we retain every unvisited cell
// and cap the bound with the (m+1)-th cell instead of the m-th — same
// intent, sound under any expansion order: an unseen trajectory's match uses
// only points in the m nearest unvisited cells, which the virtual points
// bound, or some point in a cell no nearer than the (m+1)-th.
type pointQueue struct {
	h []nearCell
}

// reset empties the queue, keeping its backing array for reuse.
func (q *pointQueue) reset() { q.h = q.h[:0] }

// Len returns the number of unvisited cells tracked.
func (q *pointQueue) Len() int { return len(q.h) }

// head returns the nearest unvisited cell. It panics on an empty queue.
func (q *pointQueue) head() nearCell { return q.h[0] }

// push tracks an unvisited cell. Each cell is pushed at most once per query
// point (it has a single parent in the hierarchy).
func (q *pointQueue) push(c nearCell) {
	q.h = append(q.h, c)
	q.up(len(q.h) - 1)
}

// pop removes and returns the nearest unvisited cell.
func (q *pointQueue) pop() nearCell {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.h = h[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

func (q *pointQueue) up(i int) {
	h := q.h
	for i > 0 {
		parent := (i - 1) / 2
		if !nearLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *pointQueue) down(i int) {
	h := q.h
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && nearLess(h[r], h[l]) {
			least = r
		}
		if !nearLess(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// firstM appends the min(m, Len) nearest unvisited cells to dst in
// ascending order and returns it. The queue is unchanged afterwards: the
// cells are popped in order and pushed back, so the call is O(m log n) and
// allocation-free once dst has capacity.
func (q *pointQueue) firstM(dst []nearCell, m int) []nearCell {
	if m > len(q.h) {
		m = len(q.h)
	}
	for i := 0; i < m; i++ {
		dst = append(dst, q.pop())
	}
	for _, c := range dst[len(dst)-m:] {
		q.push(c)
	}
	return dst
}
