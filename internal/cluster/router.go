package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

// DefaultTryTimeout bounds one HTTP attempt against one replica. A search
// with a tighter context deadline inherits it automatically (the per-try
// context is derived from the request's), so the budget is the MINIMUM of
// the two — a slow replica burns at most one try's worth of the request
// before failover moves on.
const DefaultTryTimeout = 2 * time.Second

// ErrNotFound reports a delete whose trajectory no shard owns.
var ErrNotFound = errors.New("cluster: trajectory not found")

// IncompleteError is the planner's RequireComplete failure: every replica
// of some shard was unreachable. Routers map it to 503.
type IncompleteError = shard.IncompleteError

// statusError is a non-2xx node reply.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("http %d: %s", e.code, e.msg) }

// transientErr reports whether a node interaction's failure is worth
// retrying on a sibling replica: network faults and gateway-class statuses
// (502/503/504) are; anything else the next replica would answer the same.
func transientErr(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code == http.StatusBadGateway || se.code == http.StatusServiceUnavailable ||
			se.code == http.StatusGatewayTimeout
	}
	return err != nil
}

// RouterConfig wires a Router to its cluster.
type RouterConfig struct {
	Topology Topology
	// Client issues every node request; nil selects a plain http.Client
	// (per-call contexts carry the deadlines).
	Client *http.Client
	// TryTimeout bounds one attempt against one replica (0 selects
	// DefaultTryTimeout).
	TryTimeout time.Duration
	// Backoff paces successive failed tries within one shard fan-out leg.
	Backoff Backoff
	// BreakerThreshold / BreakerCooldown tune the per-replica circuit
	// breakers (0 selects the package defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval runs the background /healthz sweep (0 disables it;
	// call Probe manually). CatchupInterval likewise for WAL catch-up.
	ProbeInterval   time.Duration
	CatchupInterval time.Duration
	// ErrorLog receives replica fault and catch-up progress lines; nil uses
	// the standard logger.
	ErrorLog *log.Logger
}

// replica is one shard server the router knows, with its failure-tracking
// state: the circuit breaker gates tries, and the lagging flag — set the
// moment a mutation fan-out skips or fails the replica — excludes it from
// reads and direct mutations until WAL catch-up proves it converged.
type replica struct {
	url     string
	br      *Breaker
	lagging atomic.Bool
	lastSeq atomic.Uint64 // highest sequence the router has seen acked
}

// ReplicaStatus is one replica's externally visible health.
type ReplicaStatus struct {
	URL     string `json:"url"`
	State   string `json:"state"`
	Lagging bool   `json:"lagging"`
	LastSeq uint64 `json:"last_seq"`
}

// shardGroup is one shard's replica set plus the router-side planning state.
type shardGroup struct {
	si       int
	replicas []*replica
	// mutmu serializes mutations to this shard: every replica sees the same
	// mutation sequence in the same order, the invariant that keeps replica
	// WALs record-identical (and catch-up a plain file copy).
	mutmu sync.Mutex
	rr    atomic.Uint64 // read round-robin cursor

	// bounds is the planning rectangle: the union of every point the shard
	// has ever held, seeded from the replicas' meta and grown on inserts.
	bounds shard.Bounds
}

// Router is the cluster's query tier: it scatter-gathers searches across
// shard replica sets with the same planning and exactness contract as the
// in-process shard.Engine, fails over within each replica set, degrades to
// partial answers when a whole shard is down, and serializes mutations per
// shard so replicas stay byte-identical. All methods are safe for
// concurrent use.
type Router struct {
	layout *shard.Layout
	groups []*shardGroup
	client *http.Client
	tryTO  time.Duration
	bo     Backoff
	errlog *log.Logger

	nextID atomic.Uint32 // next global trajectory ID
	epoch  atomic.Uint64 // bumped per mutation (result-cache invalidation)

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter boots a router against the topology: it fetches every
// replica's meta, requires at least one reachable replica per shard, resumes dense
// global ID assignment from the maximum NextGID any replica reports, seeds
// the planning bounds, and marks behind-or-unreachable replicas lagging.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	layout, err := cfg.Topology.Layout()
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	tryTO := cfg.TryTimeout
	if tryTO <= 0 {
		tryTO = DefaultTryTimeout
	}
	errlog := cfg.ErrorLog
	if errlog == nil {
		errlog = log.Default()
	}
	r := &Router{
		layout: layout,
		client: client,
		tryTO:  tryTO,
		bo:     cfg.Backoff,
		errlog: errlog,
		stop:   make(chan struct{}),
	}
	for si, urls := range cfg.Topology.Shards {
		g := &shardGroup{si: si}
		for _, u := range urls {
			g.replicas = append(g.replicas, &replica{
				url: strings.TrimRight(u, "/"),
				br:  NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil),
			})
		}
		r.groups = append(r.groups, g)
	}

	var maxNext uint32
	for _, g := range r.groups {
		var maxSeq uint64
		reachable := 0
		metas := make([]*NodeMeta, len(g.replicas))
		for i, rep := range g.replicas {
			var meta NodeMeta
			if err := r.getJSON(context.Background(), rep.url+"/v1/cluster/meta", &meta); err != nil {
				r.errlog.Printf("cluster router: boot: shard %d replica %s unreachable: %v", g.si, rep.url, err)
				rep.br.Failure()
				rep.lagging.Store(true)
				continue
			}
			if meta.Shard != g.si {
				return nil, fmt.Errorf("cluster: replica %s serves shard %d, topology lists it under shard %d", rep.url, meta.Shard, g.si)
			}
			metas[i] = &meta
			reachable++
			rep.lastSeq.Store(meta.LastSeq)
			if meta.LastSeq > maxSeq {
				maxSeq = meta.LastSeq
			}
			if meta.NextGID > maxNext {
				maxNext = meta.NextGID
			}
			if meta.Bounds != nil {
				g.bounds.ExtendRect(geo.NewRect(meta.Bounds.MinX, meta.Bounds.MinY, meta.Bounds.MaxX, meta.Bounds.MaxY))
			}
		}
		if reachable == 0 {
			return nil, fmt.Errorf("cluster: shard %d: no reachable replica", g.si)
		}
		for i, rep := range g.replicas {
			if metas[i] != nil && metas[i].LastSeq < maxSeq {
				rep.lagging.Store(true)
			}
		}
	}
	r.nextID.Store(maxNext)

	if cfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.loop(cfg.ProbeInterval, r.Probe)
	}
	if cfg.CatchupInterval > 0 {
		r.wg.Add(1)
		go r.loop(cfg.CatchupInterval, func() { r.CatchUp(context.Background()) })
	}
	return r, nil
}

// Layout returns the frozen partition layout the router routes by.
func (r *Router) Layout() *shard.Layout { return r.layout }

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.groups) }

// NextID returns the next global trajectory ID the router would assign.
func (r *Router) NextID() trajectory.TrajID { return trajectory.TrajID(r.nextID.Load()) }

// Epoch counts the mutations this router has applied — a cache-epoch for
// result caches layered above it.
func (r *Router) Epoch() uint64 { return r.epoch.Load() }

// Replicas reports every replica's health, grouped by shard.
func (r *Router) Replicas() [][]ReplicaStatus {
	out := make([][]ReplicaStatus, len(r.groups))
	for si, g := range r.groups {
		for _, rep := range g.replicas {
			out[si] = append(out[si], ReplicaStatus{
				URL:     rep.url,
				State:   rep.br.State().String(),
				Lagging: rep.lagging.Load(),
				LastSeq: rep.lastSeq.Load(),
			})
		}
	}
	return out
}

// Close stops the background probe and catch-up loops.
func (r *Router) Close() error {
	close(r.stop)
	r.wg.Wait()
	return nil
}

func (r *Router) loop(every time.Duration, fn func()) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// ---- search ----

// searchRequestJSON converts the engine request to the wire shape for the
// per-shard fan-out (activity IDs only; the router never needs the vocab).
func searchRequestJSON(req query.Request) server.SearchRequest {
	sreq := server.SearchRequest{
		K:             req.K,
		Ordered:       req.Ordered,
		InitialBound:  req.InitialBound,
		WithMatches:   req.WithMatches,
		Subtrajectory: req.Subtrajectory,
		MinSpanPoints: req.MinSpanPoints,
		MaxSpanPoints: req.MaxSpanPoints,
	}
	for _, p := range req.Query.Pts {
		wp := server.QueryPointJSON{X: p.Loc.X, Y: p.Loc.Y}
		for _, a := range p.Acts {
			wp.Acts = append(wp.Acts, int(a))
		}
		sreq.Points = append(sreq.Points, wp)
	}
	if req.Region != nil {
		sreq.Region = &server.RectJSON{
			MinX: req.Region.MinX, MinY: req.Region.MinY,
			MaxX: req.Region.MaxX, MaxY: req.Region.MaxY,
		}
	}
	return sreq
}

// Search runs one exact (or deliberately partial) global top-k over the
// cluster. It is the in-process shard engine's planner (shard.Planner) with
// network legs: within each shard the router fails over across replicas,
// and a shard whose every replica is down degrades the answer as the
// planner describes (Response.Partial, or *IncompleteError under
// req.RequireComplete).
func (r *Router) Search(ctx context.Context, req query.Request) (query.Response, error) {
	hl := make([]httpLeg, len(r.groups))
	legs := make([]shard.Leg, len(r.groups))
	for i, g := range r.groups {
		hl[i] = httpLeg{r: r, g: g}
		legs[i] = &hl[i]
	}
	var p shard.Planner
	resp, err := p.Search(ctx, req, legs)
	if err != nil || !req.WithMatches {
		return resp, err
	}
	matches := make(map[uint32][][]int32)
	for i := range hl {
		for _, res := range hl[i].results {
			matches[res.ID] = res.Matches
		}
	}
	resp.Matches = make([][][]int32, len(resp.Results))
	for i, res := range resp.Results {
		resp.Matches[i] = matches[uint32(res.ID)]
	}
	if req.Subtrajectory {
		// Derived from the same covers every tier reports, so the spans are
		// byte-identical to the single-index and sharded answers.
		resp.Spans = query.SpansFromMatches(resp.Matches)
	}
	return resp, nil
}

// httpLeg is the network shard.Leg: one shard's replica set, searched over
// HTTP with failover. results keeps the reply for Router.Search to pick the
// surviving results' matches from.
type httpLeg struct {
	r       *Router
	g       *shardGroup
	results []server.ResultJSON
}

func (l *httpLeg) Bounds() *shard.Bounds { return &l.g.bounds }

// Search offers the reply's results (nodes answer under global IDs) once
// the shard has answered, and sends the planner's threshold as the ?bound=
// pruning hint.
func (l *httpLeg) Search(ctx context.Context, req query.Request, shared *query.SharedTopK) (query.SearchStats, error) {
	req.RequireComplete = false // per-shard legs are complete by definition
	body, err := json.Marshal(searchRequestJSON(req))
	if err != nil {
		return query.SearchStats{}, err
	}
	resp, err := l.r.searchShard(ctx, l.g, body, func() float64 { return min(shared.Threshold(), req.Bound()) })
	if err != nil {
		return query.SearchStats{}, err
	}
	l.results = resp.Results
	for _, res := range resp.Results {
		shared.Offer(query.Result{ID: trajectory.TrajID(res.ID), Dist: res.Dist})
	}
	return resp.Stats, nil
}

// searchShard runs one shard's leg with replica failover: replicas are
// tried round-robin (skipping lagging ones — they may miss recent inserts —
// and open breakers), each try under its own deadline, with jittered
// backoff between failed tries; two passes before the leg is declared down.
// The ?bound= hint is recomputed per try so late tries prune harder.
func (r *Router) searchShard(ctx context.Context, g *shardGroup, body []byte, boundHint func() float64) (server.SearchResponse, error) {
	var resp server.SearchResponse
	start := int(g.rr.Add(1) - 1)
	n := len(g.replicas)
	var lastErr error
	attempt := 0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			rep := g.replicas[(start+i)%n]
			if rep.lagging.Load() || !rep.br.Allow() {
				continue
			}
			if attempt > 0 {
				if err := sleepCtx(ctx, r.bo.Delay(attempt-1)); err != nil {
					return resp, err
				}
			}
			attempt++
			url := rep.url + "/v1/search"
			if b := boundHint(); !math.IsInf(b, 1) {
				url += "?bound=" + strconv.FormatFloat(b, 'g', -1, 64)
			}
			err := r.postJSON(ctx, url, body, &resp)
			if err == nil {
				rep.br.Success()
				return resp, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return resp, ctx.Err()
			}
			if !transientErr(err) {
				// The next replica would answer identically (bad request,
				// unknown route): a permanent fault, not a failover case.
				return resp, err
			}
			rep.br.Failure()
			r.errlog.Printf("cluster router: shard %d replica %s search failed: %v", g.si, rep.url, err)
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no eligible replica (all lagging or circuit-open)")
	}
	return resp, &shard.LegDownError{Cause: lastErr}
}

// ---- mutations ----

// Insert routes the trajectory to its shard, assigns the next global ID and
// fans the insert out (see fanOut) under the shard's mutation lock. At least
// one replica must apply; otherwise the assigned ID is burned (IDs are dense
// but a hole is harmless) and the insert fails.
func (r *Router) Insert(ctx context.Context, pts []trajectory.Point) (trajectory.TrajID, error) {
	if len(pts) == 0 {
		return 0, fmt.Errorf("cluster: trajectory has no points")
	}
	g := r.groups[r.layout.Route(pts)]
	g.mutmu.Lock()
	defer g.mutmu.Unlock()
	gid := r.nextID.Add(1) - 1
	if err := r.fanOut(ctx, g, "insert", gid, server.InsertRequest{GID: &gid, Points: server.PointsJSON(pts)}); err != nil {
		return 0, fmt.Errorf("%w (gid %d burned)", err, gid)
	}
	g.bounds.Extend(pts)
	r.epoch.Add(1)
	return trajectory.TrajID(gid), nil
}

// Delete locates gid's owning shard with an ownership probe (global IDs are
// dense across shards, so only the owner knows it) and fans the delete out
// under the shard's mutation lock. Unknown IDs return ErrNotFound.
func (r *Router) Delete(ctx context.Context, gid trajectory.TrajID) error {
	var owner *shardGroup
	var probeErr error
	for _, g := range r.groups {
		owns, err := r.probeOwns(ctx, g, gid)
		if err != nil {
			probeErr = fmt.Errorf("shard %d: %w", g.si, err)
			continue
		}
		if owns {
			owner = g
			break
		}
	}
	if owner == nil {
		if probeErr != nil {
			// An unreachable shard might own it: failing the delete is the
			// only honest answer (a not-found would lie).
			return fmt.Errorf("cluster: cannot locate trajectory %d: %w", gid, probeErr)
		}
		return fmt.Errorf("%w: trajectory %d", ErrNotFound, gid)
	}
	owner.mutmu.Lock()
	defer owner.mutmu.Unlock()
	if err := r.fanOut(ctx, owner, "delete", uint32(gid), server.DeleteRequest{ID: uint32(gid)}); err != nil {
		return err
	}
	r.epoch.Add(1)
	return nil
}

// fanOut posts one mutation (op is the /v1 route: insert or delete) to
// every eligible replica of g, whose mutation lock the caller holds.
// Replicas that are skipped (lagging, circuit-open) or fail the fan-out are
// marked lagging — they reconverge via WAL catch-up, never via a re-send,
// so a half-applied fan-out cannot reorder anyone's WAL. It is an error
// when no replica applied.
func (r *Router) fanOut(ctx context.Context, g *shardGroup, op string, gid uint32, req any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	applied := 0
	for _, rep := range g.replicas {
		if rep.lagging.Load() || !rep.br.Allow() {
			rep.lagging.Store(true)
			continue
		}
		// Only inserts acknowledge with the replica's sequence; after a
		// delete the next probe refreshes it.
		var ack struct {
			LastSeq uint64 `json:"last_seq"`
		}
		if err := r.postJSON(ctx, rep.url+"/v1/"+op, body, &ack); err != nil {
			rep.br.Failure()
			rep.lagging.Store(true)
			r.errlog.Printf("cluster router: shard %d replica %s %s gid %d failed (replica now lagging): %v", g.si, rep.url, op, gid, err)
			continue
		}
		rep.br.Success()
		if ack.LastSeq > 0 {
			rep.lastSeq.Store(ack.LastSeq)
		}
		applied++
	}
	if applied == 0 {
		return fmt.Errorf("cluster: %s failed on every replica of shard %d", op, g.si)
	}
	return nil
}

// probeOwns asks the shard (first eligible replica, with failover) whether
// it owns gid. A shard with no answering replica is an error, not a "no" —
// the caller must not conclude the trajectory doesn't exist.
func (r *Router) probeOwns(ctx context.Context, g *shardGroup, gid trajectory.TrajID) (bool, error) {
	var lastErr error
	for _, rep := range g.replicas {
		if rep.lagging.Load() || !rep.br.Allow() {
			continue
		}
		var owns OwnsResponse
		err := r.getJSON(ctx, rep.url+"/v1/cluster/owns?gid="+strconv.FormatUint(uint64(gid), 10), &owns)
		if err == nil {
			rep.br.Success()
			return true, nil
		}
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusNotFound {
			rep.br.Success()
			return false, nil
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		if transientErr(err) {
			rep.br.Failure()
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no eligible replica")
	}
	return false, lastErr
}

// ---- health & catch-up ----

// Probe sweeps every replica's /healthz once, feeding the circuit breakers:
// a healthy reply closes (or keeps closed) the breaker, a fault or
// unhealthy status counts a failure. The background loop calls this every
// ProbeInterval; tests drive it manually.
func (r *Router) Probe() {
	for _, g := range r.groups {
		for _, rep := range g.replicas {
			var h struct {
				LastSeq uint64 `json:"last_seq"`
			}
			if err := r.getJSON(context.Background(), rep.url+"/healthz", &h); err != nil {
				rep.br.Failure()
				continue
			}
			rep.br.Success()
			rep.lastSeq.Store(h.LastSeq)
		}
	}
}

// CatchUp converges every lagging-but-reachable replica by shipping WAL
// segments from a healthy sibling, then clears its lagging flag under the
// shard's mutation lock (no mutation can slip between the final shipment
// and the flag clear, so the replica resumes the fan-out with no gap).
func (r *Router) CatchUp(ctx context.Context) {
	for _, g := range r.groups {
		var donor *replica
		for _, rep := range g.replicas {
			if !rep.lagging.Load() && rep.br.State() == BreakerClosed {
				donor = rep
				break
			}
		}
		if donor == nil {
			continue
		}
		for _, rep := range g.replicas {
			if !rep.lagging.Load() {
				continue
			}
			if err := r.catchUpReplica(ctx, g, donor, rep); err != nil {
				r.errlog.Printf("cluster router: shard %d replica %s catch-up: %v", g.si, rep.url, err)
			}
		}
	}
}

func (r *Router) catchUpReplica(ctx context.Context, g *shardGroup, donor, rep *replica) error {
	var meta NodeMeta
	if err := r.getJSON(ctx, rep.url+"/v1/cluster/meta", &meta); err != nil {
		return err // still down; the probe loop keeps watching it
	}
	// Bulk phase: ship without blocking mutations until (almost) converged.
	for rounds := 0; rounds < 8; rounds++ {
		var dm NodeMeta
		if err := r.getJSON(ctx, donor.url+"/v1/cluster/meta", &dm); err != nil {
			return fmt.Errorf("donor %s: %w", donor.url, err)
		}
		if meta.LastSeq >= dm.LastSeq {
			break
		}
		seq, err := r.shipOnce(ctx, donor, rep, meta.LastSeq)
		if err != nil {
			return err
		}
		if seq <= meta.LastSeq {
			return fmt.Errorf("catch-up made no progress at seq %d", seq)
		}
		meta.LastSeq = seq
	}
	// Convergence phase: under the mutation lock the donor's sequence is
	// frozen, so one more shipment reaches it exactly; then the replica can
	// rejoin the fan-out with no possible gap.
	g.mutmu.Lock()
	defer g.mutmu.Unlock()
	var dm NodeMeta
	if err := r.getJSON(ctx, donor.url+"/v1/cluster/meta", &dm); err != nil {
		return fmt.Errorf("donor %s: %w", donor.url, err)
	}
	if meta.LastSeq < dm.LastSeq {
		seq, err := r.shipOnce(ctx, donor, rep, meta.LastSeq)
		if err != nil {
			return err
		}
		meta.LastSeq = seq
	}
	if meta.LastSeq != dm.LastSeq {
		return fmt.Errorf("replica at seq %d after final shipment, donor at %d", meta.LastSeq, dm.LastSeq)
	}
	rep.lastSeq.Store(meta.LastSeq)
	rep.lagging.Store(false)
	rep.br.Success()
	r.errlog.Printf("cluster router: shard %d replica %s caught up to seq %d", g.si, rep.url, meta.LastSeq)
	return nil
}

// shipOnce moves one batch of WAL segments donor → rep and returns rep's
// resulting sequence.
func (r *Router) shipOnce(ctx context.Context, donor, rep *replica, from uint64) (uint64, error) {
	var wresp WALResponse
	if err := r.getJSON(ctx, donor.url+"/v1/cluster/wal?from="+strconv.FormatUint(from, 10), &wresp); err != nil {
		return 0, fmt.Errorf("fetch wal from donor %s: %w", donor.url, err)
	}
	body, err := json.Marshal(CatchupRequest{Segments: wresp.Segments})
	if err != nil {
		return 0, err
	}
	var cresp CatchupResponse
	if err := r.postJSON(ctx, rep.url+"/v1/cluster/catchup", body, &cresp); err != nil {
		return 0, fmt.Errorf("apply on %s: %w", rep.url, err)
	}
	return cresp.LastSeq, nil
}

// ---- HTTP plumbing ----

func (r *Router) getJSON(ctx context.Context, url string, dst any) error {
	tctx, cancel := context.WithTimeout(ctx, r.tryTO)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return r.doJSON(req, dst)
}

func (r *Router) postJSON(ctx context.Context, url string, body []byte, dst any) error {
	tctx, cancel := context.WithTimeout(ctx, r.tryTO)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return r.doJSON(req, dst)
}

func (r *Router) doJSON(req *http.Request, dst any) error {
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var eresp server.ErrorResponse
		msg := ""
		if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eresp); err == nil {
			msg = eresp.Error
		}
		return &statusError{code: resp.StatusCode, msg: msg}
	}
	if dst == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
