package gat

import (
	"activitytraj/internal/geo"
	"activitytraj/internal/query"
)

// BatchKey implements query.BatchKeyer: the Z-order code of the leaf cell
// holding the query's centroid. Z codes interleave coordinate bits, so
// numerically close keys index spatially close cells — exactly the order
// the cross-query planner wants, because co-located queries expand the
// same cells and touch the same ITL lists and APL pages. Empty queries
// (which Search rejects anyway) key to zero.
func (e *Engine) BatchKey(q query.Query) uint64 {
	if len(q.Pts) == 0 {
		return 0
	}
	var cx, cy float64
	for _, p := range q.Pts {
		cx += p.Loc.X
		cy += p.Loc.Y
	}
	n := float64(len(q.Pts))
	c := geo.Point{X: cx / n, Y: cy / n}
	return uint64(e.idx.g.LeafAt(c).Z)
}
