// Package subscribe maintains continuous standing queries over the ingest
// stream: a Subscription holds a standing query.Request plus its live top-k,
// and a Hub — fed by a delta.MutationObserver hooked at the index's
// apply-then-bump points — incrementally keeps every subscriber's top-k
// byte-identical to a from-scratch Search of the same Request.
//
// The paper's Algorithm-2 lower bound is admissible in reverse: a freshly
// inserted trajectory can only enter a standing top-k if the sum over query
// points of the minimum distance to the trajectory's bounding box beats the
// subscriber's current k-th distance (the per-cell bound of Algorithm 2,
// run per trajectory). Inserts that fail the bound — or the activity
// containment, region, or span prefilters before it — are rejected without
// scoring (Stats.PrefilterRejected); survivors are scored exactly with the
// k-th distance as the pruning threshold, which is exact because the
// matcher abandons only strictly above the threshold. A delete of a current
// member triggers a bounded re-search seeded with InitialBound = the old
// k-th distance, falling back to an unbounded search when fewer than k
// results come back (the new k-th distance may exceed the old one). A
// not-yet-full top-k needs no re-search on member deletes: it already holds
// every qualifying trajectory, so plain removal is exact.
//
// Every accepted update appends a monotone-sequenced Event (join/leave,
// each carrying the full post-mutation top-k) to the subscription's ring
// buffer; consumers that fall behind the buffer receive a synthesized
// resync event carrying the current state instead of the lost deltas.
//
// Lifecycle: NewDynamicHub (or shard.Router.NewHub for the sharded tier)
// attaches the hub to a live index; Subscribe seeds a subscription with a
// from-scratch search and registers it; consumers page events with
// Subscription.Next; Unsubscribe frees one subscription; Close detaches the
// observer, cancels in-flight re-searches and stops the dispatcher. With no
// subscriptions registered, a fed mutation costs one atomic load on the
// ingest path.
package subscribe

import (
	"context"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// DefaultEventBuffer is the per-subscription event ring size used when
// Options.EventBuffer is zero.
const DefaultEventBuffer = 256

// Backend is the search engine a Hub maintains subscriptions against
// (delta.Engine, shard.Engine). Both methods are called from the hub's
// single dispatcher goroutine only, in queue order.
type Backend interface {
	// Search runs a from-scratch search (subscription seeding and member-
	// delete re-searches).
	Search(ctx context.Context, req query.Request) (query.Response, error)
	// Score computes the request's exact distance for one trajectory under
	// an exact pruning threshold: ok reports that the trajectory scored
	// finitely within the threshold (the matcher abandons only strictly
	// above it, so a candidate at exactly the threshold scores fully).
	Score(req query.Request, id trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, bool, error)
}

// Options tunes a Hub.
type Options struct {
	// EventBuffer is the per-subscription event ring size (default
	// DefaultEventBuffer). A consumer that falls more than EventBuffer
	// events behind is resynchronized with a full-state resync event.
	EventBuffer int
	// Resolve translates a feed's (shard, local ID) into the global ID
	// subscriptions report. nil is the identity (single-index hubs). It is
	// called from the dispatcher goroutine; returning ok=false drops the
	// event (Stats.Dropped) — the sharded tier uses this for a mapping
	// that never became visible.
	Resolve func(shard int32, local trajectory.TrajID) (trajectory.TrajID, bool)
	// Detach, when non-nil, is called exactly once by Close, before the
	// dispatcher stops: it must disconnect the hub from its mutation
	// feed(s) (e.g. delta.Dynamic.SetObserver(nil)).
	Detach func()
}

// EventKind classifies a subscription event.
type EventKind uint8

const (
	// EventJoin reports a trajectory entering the top-k (ID, Dist set).
	EventJoin EventKind = iota + 1
	// EventLeave reports a trajectory leaving the top-k (ID set).
	EventLeave
	// EventResync replaces lost history: the consumer fell behind the
	// event buffer (or asked for a pre-buffer sequence), so instead of the
	// lost deltas it gets the current full top-k and resumes from Seq.
	EventResync
)

// String returns the wire name of the kind ("join", "leave", "resync").
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventResync:
		return "resync"
	}
	return "unknown"
}

// Event is one monotone-sequenced change to a subscription's top-k. Seq
// starts at 1 and increments by one per event; TopK is the subscription's
// full top-k after the triggering mutation's effect was applied (both
// events of an insert-evicts-worst pair carry the same final state), so any
// single event is sufficient to resynchronize a consumer.
type Event struct {
	Seq  uint64
	Kind EventKind
	// ID is the joining/leaving trajectory (global ID); zero for resync.
	ID trajectory.TrajID
	// Dist is the joining trajectory's distance; zero for leave/resync.
	Dist float64
	// TopK is the full current top-k, ascending (Dist, ID).
	TopK []query.Result
}

// Stats is a snapshot of a Hub's counters (all monotone except Active and
// Pending).
type Stats struct {
	// Active is the number of registered subscriptions.
	Active int64
	// Pending is the current dispatcher queue depth.
	Pending int64
	// Inserts and Deletes count mutations the dispatcher processed (events
	// skipped by the zero-subscriber fast path are not enqueued at all).
	Inserts uint64
	Deletes uint64
	// PrefilterRejected counts insert×subscription pairs rejected without
	// scoring: activity containment, region, span length, or the
	// Algorithm-2 per-trajectory lower bound vs the current k-th distance.
	PrefilterRejected uint64
	// Scored counts insert×subscription pairs that reached exact scoring;
	// Admitted counts those that entered a top-k.
	Scored   uint64
	Admitted uint64
	// Researches counts member-delete re-searches (bounded attempt and its
	// unbounded fallback count as one).
	Researches uint64
	// Events counts events appended across all subscriptions; Resyncs
	// counts synthesized resync events served to lagging consumers.
	Events  uint64
	Resyncs uint64
	// Dropped counts feed events whose ID could not be resolved; Errors
	// counts backend failures while scoring or re-searching (normally only
	// the cancellation at Close).
	Dropped uint64
	Errors  uint64
}

// ptsBounds returns the bounding box of pts (caller guarantees len > 0).
// The box covers every point, a superset of the activity-carrying points a
// match could use, so distances to it lower-bound distances to any relevant
// point — the bound below stays admissible.
func ptsBounds(pts []geo.Point) geo.Rect {
	r := geo.Rect{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// lowerBound is the Algorithm-2 bound run per trajectory: the sum over
// query points of the minimum distance to the trajectory's bounding box
// lower-bounds Dmm, which lower-bounds Dmom and every span-constrained
// distance — so a trajectory with lowerBound above the current k-th
// distance can be rejected without scoring, never missing a qualifier.
func lowerBound(q query.Query, bbox geo.Rect) float64 {
	var lb float64
	for _, p := range q.Pts {
		lb += bbox.MinDist(p.Loc)
	}
	return lb
}
