package subscribe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// ErrClosed is returned by Subscribe on a closed (or closing) hub.
var ErrClosed = errors.New("subscribe: hub closed")

type itemKind uint8

const (
	itemInsert itemKind = iota + 1
	itemDelete
	itemSubscribe
)

// item is one dispatcher queue entry: a mutation observed on the index, or
// a subscribe control (the seed search must run in the dispatcher goroutine:
// running it in queue order is what makes the zero-subscriber fast path
// sound — any mutation skipped because nsubs was 0 applied before the
// subscription's registration was enqueued, so the seed search sees it).
type item struct {
	kind  itemKind
	shard int32
	id    trajectory.TrajID
	pts   []geo.Point
	acts  trajectory.ActivitySet
	sub   *Subscription
	done  chan error
}

// Hub dispatches the mutation feed to every registered subscription from a
// single dispatcher goroutine. Feed methods are safe to call from mutation
// paths holding index locks: they only enqueue under the hub mutex, which
// the dispatcher never holds while touching the backend.
type Hub struct {
	backend Backend
	resolve func(int32, trajectory.TrajID) (trajectory.TrajID, bool)
	detach  func()
	bufSize int

	ctx    context.Context
	cancel context.CancelFunc

	// nsubs is the zero-subscriber fast path: feeds drop mutations with one
	// atomic load when no subscription exists (incremented before the
	// subscribe control is enqueued, decremented on unsubscribe).
	nsubs atomic.Int64

	mu        sync.Mutex
	qcond     *sync.Cond // dispatcher waits for queue items
	scond     *sync.Cond // Sync waiters wait for processed to advance
	queue     []item
	qhead     int
	closing   bool
	stopped   bool
	subs      map[uint64]*Subscription
	nextSubID uint64
	enqueued  uint64
	processed uint64

	done chan struct{} // dispatcher exited

	inserts, deletes, prefilterRejected, scored, admitted,
	researches, events, resyncs, dropped, errs atomic.Uint64

	scratch query.SearchStats // dispatcher-only scoring stats scratch
}

// New builds a hub over backend and starts its dispatcher. Wire the
// mutation feed afterwards (see NewDynamicHub / shard.Router.NewHub for the
// packaged constructors).
func New(backend Backend, opts Options) *Hub {
	h := &Hub{
		backend: backend,
		resolve: opts.Resolve,
		detach:  opts.Detach,
		bufSize: opts.EventBuffer,
		subs:    make(map[uint64]*Subscription),
		done:    make(chan struct{}),
	}
	if h.bufSize <= 0 {
		h.bufSize = DefaultEventBuffer
	}
	if h.resolve == nil {
		h.resolve = func(_ int32, local trajectory.TrajID) (trajectory.TrajID, bool) {
			return local, true
		}
	}
	h.qcond = sync.NewCond(&h.mu)
	h.scond = sync.NewCond(&h.mu)
	h.ctx, h.cancel = context.WithCancel(context.Background())
	go h.dispatch()
	return h
}

// FeedInsert reports an applied insert. It is called by mutation observers
// (under index locks): with no subscriptions it is one atomic load; with
// subscriptions it enqueues and returns. Per feed source, calls must arrive
// in apply order (delta.Dynamic fires observers under its mutation lock).
func (h *Hub) FeedInsert(shard int32, local trajectory.TrajID, pts []geo.Point, acts trajectory.ActivitySet) {
	if h.nsubs.Load() == 0 {
		return
	}
	h.feed(item{kind: itemInsert, shard: shard, id: local, pts: pts, acts: acts})
}

// FeedDelete reports an applied (first-time) delete. See FeedInsert.
func (h *Hub) FeedDelete(shard int32, local trajectory.TrajID) {
	if h.nsubs.Load() == 0 {
		return
	}
	h.feed(item{kind: itemDelete, shard: shard, id: local})
}

func (h *Hub) feed(it item) {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.queue = append(h.queue, it)
	h.enqueued++
	h.qcond.Signal()
	h.mu.Unlock()
}

// Subscribe registers a standing request: the dispatcher seeds it with a
// from-scratch search (in queue order, so every mutation skipped by the
// zero-subscriber fast path is already visible to the seed) and maintains
// it until Unsubscribe or Close. WithMatches requests are rejected —
// incremental maintenance tracks distances, not covers.
func (h *Hub) Subscribe(ctx context.Context, req query.Request) (*Subscription, error) {
	if err := req.ValidateSpan(); err != nil {
		return nil, err
	}
	if err := req.Query.Validate(); err != nil {
		return nil, err
	}
	if req.WithMatches {
		return nil, fmt.Errorf("subscribe: WithMatches is not supported for standing queries")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := req.K
	if k < 1 {
		k = 1
	}
	s := &Subscription{
		hub:      h,
		req:      req,
		allActs:  req.Query.AllActs(),
		k:        k,
		ring:     make([]Event, h.bufSize),
		firstSeq: 1,
		notify:   make(chan struct{}),
	}
	done := make(chan error, 1)
	h.mu.Lock()
	if h.closing {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	h.nextSubID++
	s.id = h.nextSubID
	h.nsubs.Add(1)
	h.queue = append(h.queue, item{kind: itemSubscribe, sub: s, done: done})
	h.enqueued++
	h.qcond.Signal()
	h.mu.Unlock()
	if err := <-done; err != nil {
		h.nsubs.Add(-1)
		return nil, err
	}
	return s, nil
}

// Unsubscribe removes subscription id, reporting whether it was registered.
// The subscription closes immediately; consumers blocked in Next wake up.
func (h *Hub) Unsubscribe(id uint64) bool {
	h.mu.Lock()
	s, ok := h.subs[id]
	if ok {
		delete(h.subs, id)
	}
	h.mu.Unlock()
	if !ok {
		return false
	}
	h.nsubs.Add(-1)
	s.close()
	return true
}

// Get returns the registered subscription with the given id.
func (h *Hub) Get(id uint64) (*Subscription, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	return s, ok
}

// Sync blocks until every feed event enqueued before the call has been
// processed (or the hub closes). Differential tests and benchmarks use it
// as the convergence barrier.
func (h *Hub) Sync() {
	h.mu.Lock()
	target := h.enqueued
	for h.processed < target && !h.stopped {
		h.scond.Wait()
	}
	h.mu.Unlock()
}

// Close detaches the mutation feed, cancels in-flight backend calls, closes
// every subscription and stops the dispatcher. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closing {
		h.mu.Unlock()
		<-h.done
		return
	}
	h.closing = true
	h.mu.Unlock()
	// Detach outside h.mu: observers fire under index locks and block on
	// h.mu in feed, while SetObserver(nil) takes the same index lock —
	// holding h.mu here would deadlock that handshake.
	if h.detach != nil {
		h.detach()
	}
	h.cancel()
	h.mu.Lock()
	h.stopped = true
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.subs = make(map[uint64]*Subscription)
	h.qcond.Broadcast()
	h.scond.Broadcast()
	h.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
	h.nsubs.Store(0)
	<-h.done
}

// Stats returns a snapshot of the hub's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	pending := int64(len(h.queue) - h.qhead)
	h.mu.Unlock()
	return Stats{
		Active:            h.nsubs.Load(),
		Pending:           pending,
		Inserts:           h.inserts.Load(),
		Deletes:           h.deletes.Load(),
		PrefilterRejected: h.prefilterRejected.Load(),
		Scored:            h.scored.Load(),
		Admitted:          h.admitted.Load(),
		Researches:        h.researches.Load(),
		Events:            h.events.Load(),
		Resyncs:           h.resyncs.Load(),
		Dropped:           h.dropped.Load(),
		Errors:            h.errs.Load(),
	}
}

// dispatch is the hub's single worker: it pops queue items in order and
// applies them. It holds h.mu only for queue/registry operations, never
// while calling the backend, so feeders (who may hold index mutation locks)
// are never blocked behind a search.
func (h *Hub) dispatch() {
	defer close(h.done)
	for {
		h.mu.Lock()
		for h.qhead >= len(h.queue) && !h.stopped {
			h.qcond.Wait()
		}
		if h.qhead >= len(h.queue) {
			h.mu.Unlock()
			return
		}
		it := h.queue[h.qhead]
		h.queue[h.qhead] = item{}
		h.qhead++
		if h.qhead == len(h.queue) {
			h.queue = h.queue[:0]
			h.qhead = 0
		}
		stopped := h.stopped
		h.mu.Unlock()
		if stopped {
			// Drain without processing; answer subscribers so they never hang.
			if it.done != nil {
				it.done <- ErrClosed
			}
		} else {
			h.process(it)
		}
		h.mu.Lock()
		h.processed++
		h.scond.Broadcast()
		h.mu.Unlock()
	}
}

func (h *Hub) process(it item) {
	switch it.kind {
	case itemSubscribe:
		err := h.seed(it.sub)
		if err == nil {
			h.mu.Lock()
			h.subs[it.sub.id] = it.sub
			h.mu.Unlock()
		}
		it.done <- err
	case itemInsert:
		h.inserts.Add(1)
		gid, ok := h.resolve(it.shard, it.id)
		if !ok {
			h.dropped.Add(1)
			return
		}
		subs := h.snapshotSubs()
		if len(subs) == 0 {
			return
		}
		var bbox geo.Rect
		if len(it.pts) > 0 {
			bbox = ptsBounds(it.pts)
		}
		for _, s := range subs {
			h.applyInsert(s, gid, it.pts, it.acts, bbox)
		}
	case itemDelete:
		h.deletes.Add(1)
		gid, ok := h.resolve(it.shard, it.id)
		if !ok {
			h.dropped.Add(1)
			return
		}
		for _, s := range h.snapshotSubs() {
			h.applyDelete(s, gid)
		}
	}
}

func (h *Hub) snapshotSubs() []*Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		out = append(out, s)
	}
	return out
}

// seed runs the subscription's from-scratch search and installs the result.
func (h *Hub) seed(s *Subscription) error {
	req := s.req
	req.K = s.k
	resp, err := h.backend.Search(h.ctx, req)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.topk = append(s.topk[:0], resp.Results...)
	s.mu.Unlock()
	return nil
}

// applyInsert maintains one subscription against one freshly inserted
// trajectory. The insert is scored only if it passes the activity/region/
// span prefilters and its Algorithm-2 per-trajectory lower bound beats the
// current k-th distance (or the request bound while the top-k is not full);
// admission then mirrors query.TopK.Offer exactly, including the equal-
// distance smaller-ID tie-break — which is sound because a candidate at
// exactly the threshold still scores fully.
func (h *Hub) applyInsert(s *Subscription, gid trajectory.TrajID, pts []geo.Point, acts trajectory.ActivitySet, bbox geo.Rect) {
	s.mu.Lock()
	if s.closed || s.contains(gid) {
		// contains: a member-delete re-search already observed this insert
		// (it was applied to the index before this event was processed).
		s.mu.Unlock()
		return
	}
	full := len(s.topk) >= s.k
	thr := s.req.Bound()
	if full {
		if kth := s.topk[len(s.topk)-1].Dist; kth < thr {
			thr = kth
		}
	}
	s.mu.Unlock()

	// Prefilters: each implies the trajectory's distance is +Inf or above
	// the threshold, so skipping the exact scoring can never lose a member.
	if len(pts) == 0 || !acts.ContainsAll(s.allActs) {
		h.prefilterRejected.Add(1)
		return
	}
	if s.req.Region != nil && !s.req.Region.Intersects(bbox) {
		h.prefilterRejected.Add(1)
		return
	}
	if s.req.Subtrajectory && s.req.MinSpanPoints > len(pts) {
		h.prefilterRejected.Add(1)
		return
	}
	if lb := lowerBound(s.req.Query, bbox); lb > thr {
		h.prefilterRejected.Add(1)
		return
	}

	h.scored.Add(1)
	h.scratch = query.SearchStats{}
	req := s.req
	req.K = s.k
	d, ok, err := h.backend.Score(req, gid, thr, &h.scratch)
	if err != nil {
		h.errs.Add(1)
		return
	}
	if !ok || math.IsInf(d, 1) {
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.topk) < s.k {
		s.insertResult(query.Result{ID: gid, Dist: d})
		h.admitted.Add(1)
		s.emit(EventJoin, gid, d)
		return
	}
	worst := s.topk[len(s.topk)-1]
	if d < worst.Dist || (d == worst.Dist && gid < worst.ID) {
		s.topk = s.topk[:len(s.topk)-1]
		s.insertResult(query.Result{ID: gid, Dist: d})
		h.admitted.Add(1)
		s.emit(EventLeave, worst.ID, 0)
		s.emit(EventJoin, gid, d)
	}
}

// applyDelete maintains one subscription against one applied delete. A
// delete of a non-member changes nothing (a not-yet-full top-k holds every
// qualifying trajectory, so non-members stay non-members when anything is
// removed). A member delete from a full top-k triggers a re-search: first
// bounded with InitialBound = the old k-th distance — if k results come
// back they are exactly the new top-k — falling back to the request's own
// bound when fewer return (the new k-th distance may exceed the old one).
func (h *Hub) applyDelete(s *Subscription, gid trajectory.TrajID) {
	s.mu.Lock()
	if s.closed || !s.contains(gid) {
		s.mu.Unlock()
		return
	}
	if len(s.topk) < s.k {
		// Not full ⇒ the top-k holds every in-bound match; plain removal
		// is exact, no re-search can promote anything.
		s.removeID(gid)
		s.emit(EventLeave, gid, 0)
		s.mu.Unlock()
		return
	}
	old := append([]query.Result(nil), s.topk...)
	oldKth := s.topk[len(s.topk)-1].Dist
	s.mu.Unlock()

	h.researches.Add(1)
	req := s.req
	req.K = s.k
	var resp query.Response
	var err error
	if oldKth > 0 && !math.IsInf(oldKth, 1) && oldKth != req.InitialBound {
		// Bounded attempt (InitialBound == 0 means unset, so a zero k-th
		// distance cannot be expressed as a bound — search unbounded).
		breq := req
		breq.InitialBound = oldKth
		resp, err = h.backend.Search(h.ctx, breq)
		if err == nil && len(resp.Results) < s.k {
			resp, err = h.backend.Search(h.ctx, req)
		}
	} else {
		resp, err = h.backend.Search(h.ctx, req)
	}
	if err != nil {
		h.errs.Add(1)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.topk = append(s.topk[:0], resp.Results...)
	for _, r := range old {
		if !s.contains(r.ID) {
			s.emit(EventLeave, r.ID, 0)
		}
	}
	for _, r := range s.topk {
		found := false
		for _, o := range old {
			if o.ID == r.ID {
				found = true
				break
			}
		}
		if !found {
			s.emit(EventJoin, r.ID, r.Dist)
		}
	}
}
