package shard

import (
	"context"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/subscribe"
	"activitytraj/internal/trajectory"
)

// routerBackend adapts a scatter-gather Engine to subscribe.Backend.
type routerBackend struct{ e *Engine }

func (b routerBackend) Search(ctx context.Context, req query.Request) (query.Response, error) {
	return b.e.Search(ctx, req)
}

func (b routerBackend) Score(req query.Request, id trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, bool, error) {
	return b.e.ScoreOne(req, id, threshold, stats)
}

// shardObserver forwards one shard's mutation stream (shard-local IDs) into
// the hub, tagged with the shard index for global-ID resolution.
type shardObserver struct {
	h  *subscribe.Hub
	si int32
}

func (o shardObserver) OnInsert(id trajectory.TrajID, pts []geo.Point, acts trajectory.ActivitySet) {
	o.h.FeedInsert(o.si, id, pts, acts)
}

func (o shardObserver) OnDelete(id trajectory.TrajID) { o.h.FeedDelete(o.si, id) }

// NewHub builds a subscription hub over the sharded index: every shard's
// mutation observer feeds one hub, whose dispatcher resolves shard-local
// IDs through the router's global-ID maps and maintains each standing query
// with the scatter-gather engine (seeds and member-delete re-searches fan
// out across shards exactly like one-shot searches, so subscription top-ks
// stay byte-identical to a from-scratch search).
//
// Resolution is race-free: Router.Insert holds the shard's ID-map write
// lock from before the delta apply (where the observer fires) until after
// the global mapping is appended, so by the time the dispatcher can look a
// local ID up under the read lock, its mapping is in place. A missing
// mapping therefore only occurs for mutations that bypassed the router, and
// drops the event (subscribe.Stats.Dropped) instead of corrupting a top-k.
//
// Close detaches every shard observer. Options.Resolve and Options.Detach
// are overwritten.
func (r *Router) NewHub(opts subscribe.Options) *subscribe.Hub {
	opts.Resolve = func(si int32, local trajectory.TrajID) (trajectory.TrajID, bool) {
		sh := r.shards[si]
		sh.idmu.RLock()
		defer sh.idmu.RUnlock()
		if int(local) >= len(sh.globalIDs) {
			return 0, false
		}
		return sh.globalIDs[local], true
	}
	opts.Detach = func() {
		for _, sh := range r.shards {
			sh.d.SetObserver(nil)
		}
	}
	h := subscribe.New(routerBackend{e: r.NewEngine()}, opts)
	for si, sh := range r.shards {
		sh.d.SetObserver(shardObserver{h: h, si: int32(si)})
	}
	return h
}
