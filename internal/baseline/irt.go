package baseline

import (
	"activitytraj/internal/evaluate"
	"activitytraj/internal/irtree"
	"activitytraj/internal/query"
)

// BuildIRT bulk-loads the IR-tree baseline (Section III-C) over every
// trajectory point: the point R-tree augmented with per-node inverted
// files. Each query location gets an activity-filtered nearest-point
// iterator: points (and subtrees) carrying none of q_i's activities are
// invisible to iterator i, so the frontier distance r_i bounds the minimum
// point match distance of unseen trajectories — a per-query-point
// sharpening of the plain R-tree bound that remains sound because point
// matches only ever use activity-carrying points.
func BuildIRT(ts *evaluate.TrajStore, fanout, lambda int) *Spatial {
	if fanout <= 0 {
		fanout = irtree.DefaultMaxEntries
	}
	ds := ts.Dataset()
	var entries []irtree.Entry
	for ti := range ds.Trajs {
		tr := &ds.Trajs[ti]
		for pi, p := range tr.Pts {
			entries = append(entries, irtree.Entry{
				Loc:  p.Loc,
				ID:   encodePayload(tr.ID, pi),
				Acts: p.Acts,
			})
		}
	}
	tree := irtree.Build(entries, fanout)
	return newSpatial("IRT", tree.MemBytes(), ts, lambda, func(qp query.Point) pointIter {
		return irtIter{it: tree.NewNearestIter(qp.Loc, qp.Acts)}
	})
}

type irtIter struct{ it *irtree.NearestIter }

func (r irtIter) next() (int64, float64, bool) {
	e, d, ok := r.it.Next()
	return e.ID, d, ok
}
func (r irtIter) peek() (float64, bool) { return r.it.PeekDist() }
func (r irtIter) nodesVisited() int     { return r.it.NodesVisited() }
