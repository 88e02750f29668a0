package matcher

import (
	"math/bits"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// BuildRowsFromPoints builds the per-query-point candidate rows for a
// trajectory whose points are fully in memory, by scanning every point
// against every query point. Every engine scores through RowBuilder; this
// is the independent reference the tests (and the benchmark's matcher
// probe) compare it against.
func BuildRowsFromPoints(qpts []query.Point, pts []trajectory.Point) []QueryRow {
	rows := make([]QueryRow, len(qpts))
	for qi, qp := range qpts {
		row := QueryRow{NumActs: len(qp.Acts)}
		for pi, p := range pts {
			mask := p.Acts.MaskAgainst(qp.Acts)
			if mask == 0 {
				continue
			}
			row.Idx = append(row.Idx, int32(pi))
			row.Dist = append(row.Dist, geo.Dist(qp.Loc, p.Loc))
			row.Mask = append(row.Mask, mask)
		}
		rows[qi] = row
	}
	return rows
}

// RowBuilder builds candidate rows from posting lists into reusable scratch,
// so the per-candidate hot path of a search allocates nothing once warm.
// The returned rows alias the builder and are valid until the next Build.
type RowBuilder struct {
	rows []QueryRow
	// Per-trajectory-point scratch, all zero between rows: bit p of words
	// is set and mask[p] holds point p's coverage while a row is scattered.
	words []uint64
	mask  []uint32
	// heads is SpanFeasible's scratch: one list position per activity.
	heads []int
}

// Build builds candidate rows from Activity Posting Lists. lists holds the
// candidate's posting list (ascending trajectory point indexes) of every
// distinct query activity; slots names, query point by query point and in
// the order of each point's Acts, which of them that activity is. coords
// are the trajectory's point locations, and every posting must index into
// them.
//
// Each query point's lists are scattered into a bitmap and a per-point mask
// over the trajectory's points, and one ascending scan of the bitmap emits
// the row, so a row costs its postings plus a word or two of bitmap — no
// cursor merge, no sort.
func (rb *RowBuilder) Build(qpts []query.Point, slots []int, lists [][]uint32, coords []geo.Point) []QueryRow {
	if cap(rb.rows) < len(qpts) {
		grown := make([]QueryRow, len(qpts))
		copy(grown, rb.rows)
		rb.rows = grown
	}
	rb.rows = rb.rows[:len(qpts)]
	if len(rb.mask) < len(coords) {
		rb.mask = make([]uint32, len(coords))
		rb.words = make([]uint64, (len(coords)+63)/64)
	}
	words := rb.words[:(len(coords)+63)/64]
	for qi := range qpts {
		qp := &qpts[qi]
		row := &rb.rows[qi]
		row.NumActs = len(qp.Acts)
		row.Idx = row.Idx[:0]
		row.Dist = row.Dist[:0]
		row.Mask = row.Mask[:0]

		for b, slot := range slots[:len(qp.Acts)] {
			for _, p := range lists[slot] {
				words[p>>6] |= 1 << (p & 63)
				rb.mask[p] |= 1 << uint(b)
			}
		}
		slots = slots[len(qp.Acts):]
		for w, word := range words {
			for ; word != 0; word &= word - 1 {
				p := w<<6 | bits.TrailingZeros64(word)
				row.Idx = append(row.Idx, int32(p))
				row.Dist = append(row.Dist, geo.Dist(qp.Loc, coords[p]))
				row.Mask = append(row.Mask, rb.mask[p])
				rb.mask[p] = 0
			}
			words[w] = 0
		}
	}
	return rb.rows
}
