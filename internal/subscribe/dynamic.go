package subscribe

import (
	"context"

	"activitytraj/internal/delta"
	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// dynBackend adapts a delta.Engine to Backend.
type dynBackend struct{ e *delta.Engine }

func (b dynBackend) Search(ctx context.Context, req query.Request) (query.Response, error) {
	return b.e.Search(ctx, req)
}

func (b dynBackend) Score(req query.Request, id trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, bool, error) {
	return b.e.ScoreOne(req, id, threshold, stats)
}

// dynObserver forwards a delta.Dynamic's mutation stream into the hub.
type dynObserver struct{ h *Hub }

func (o dynObserver) OnInsert(id trajectory.TrajID, pts []geo.Point, acts trajectory.ActivitySet) {
	o.h.FeedInsert(0, id, pts, acts)
}

func (o dynObserver) OnDelete(id trajectory.TrajID) { o.h.FeedDelete(0, id) }

// NewDynamicHub builds a hub over a single dynamic index: a dedicated
// serving engine backs seeds/re-searches/scoring, and the index's mutation
// observer feeds the dispatcher. Close detaches the observer. Options.
// Resolve and Options.Detach are overwritten (IDs are already global on a
// single index).
func NewDynamicHub(d *delta.Dynamic, opts Options) *Hub {
	opts.Resolve = nil
	opts.Detach = func() { d.SetObserver(nil) }
	h := New(dynBackend{d.NewEngine()}, opts)
	d.SetObserver(dynObserver{h})
	return h
}
