package gat

import (
	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
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

// WarmSuperbatch implements query.SuperbatchWarmer: before a group of
// co-located requests executes, it collects the union of the trajectories
// their query points' leaf-cell ITLs post under the requested activities —
// the candidates those searches are most likely to score first — and
// issues one coalesced, ascending readahead over their APL header pages.
// Each shared page faults into the buffer pool once here instead of once
// per query. A group has no single query to screen the candidates by, so
// the readahead is unscreened. Purely a hint: it reads only immutable index
// structures, charges no per-search statistics, and changes no search's
// results.
func (e *Engine) WarmSuperbatch(reqs []query.Request) {
	var ids []trajectory.TrajID
	for _, req := range reqs {
		for _, p := range req.Query.Pts {
			z := e.idx.g.LeafAt(p.Loc).Z
			for _, a := range p.Acts {
				for _, id := range e.idx.itl.postings(z, a) {
					ids = append(ids, trajectory.TrajID(id))
				}
			}
		}
	}
	s := e.scratch.Get()
	defer e.scratch.Put(s)
	s.ev.PrefetchBatch(ids)
}
