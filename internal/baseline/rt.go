package baseline

import (
	"activitytraj/internal/evaluate"
	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/rtree"
)

// BuildRT bulk-loads the R-tree baseline (Section III-B): every trajectory
// point is indexed; the search retrieves trajectories in best-match-distance
// order using purely spatial pruning and validates/scores them like every
// other method. Activity information plays no part in retrieval, which is
// the baseline's weakness the paper demonstrates.
func BuildRT(ts *evaluate.TrajStore, fanout, lambda int) *Spatial {
	if fanout <= 0 {
		fanout = rtree.DefaultMaxEntries
	}
	ds := ts.Dataset()
	var entries []rtree.Entry
	for ti := range ds.Trajs {
		tr := &ds.Trajs[ti]
		for pi, p := range tr.Pts {
			entries = append(entries, rtree.Entry{
				Rect: geo.RectFromPoint(p.Loc),
				ID:   encodePayload(tr.ID, pi),
			})
		}
	}
	tree := rtree.BulkLoad(entries, fanout)
	return newSpatial("RT", tree.MemBytes(), ts, lambda, func(qp query.Point) pointIter {
		return rtIter{it: tree.NewNearestIter(qp.Loc)}
	})
}

type rtIter struct{ it *rtree.NearestIter }

func (r rtIter) next() (int64, float64, bool) {
	e, d, ok := r.it.Next()
	return e.ID, d, ok
}
func (r rtIter) peek() (float64, bool) { return r.it.PeekDist() }
func (r rtIter) nodesVisited() int     { return r.it.NodesVisited() }
