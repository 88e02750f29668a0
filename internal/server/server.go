// Package server implements the HTTP JSON query service of every serving
// tier: search, insert, delete and stats endpoints plus a health probe,
// each search reporting its per-request SearchStats. One handler set serves
// a Backend — the single-process sharded index (New), a cluster shard
// replica or the cluster router (internal/cluster) — so the tiers cannot
// drift apart on the wire. The cmd/atsqserve command is a thin main around
// this package; keeping the handlers here makes them testable with httptest.
//
// Every search runs under the HTTP request's context, so a client hanging
// up cancels the in-flight scatter-gather search; a per-request
// `?timeout=DURATION` query parameter additionally caps the search budget,
// answering 504 Gateway Timeout when it expires — distinct from 400 (bad
// request) and 500 (engine fault).
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
	"activitytraj/internal/subscribe"
	"activitytraj/internal/trajectory"
)

// QueryPointJSON is one query or trajectory point on the wire. Activities
// may be given as vocabulary IDs (acts) and/or names (names); the union is
// used.
type QueryPointJSON struct {
	X     float64  `json:"x"`
	Y     float64  `json:"y"`
	Acts  []int    `json:"acts,omitempty"`
	Names []string `json:"names,omitempty"`
}

// RectJSON is an axis-aligned rectangle on the wire.
type RectJSON struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// SearchRequest is the /v1/search body.
type SearchRequest struct {
	// K is the result count (default DefaultK).
	K int `json:"k,omitempty"`
	// Ordered selects OATSQ instead of ATSQ.
	Ordered bool `json:"ordered,omitempty"`
	// Points are the query locations with their desired activities.
	Points []QueryPointJSON `json:"points"`
	// InitialBound, when > 0, seeds the pruning threshold: results farther
	// than it are excluded (see query.Request.InitialBound).
	InitialBound float64 `json:"initial_bound,omitempty"`
	// Region, when present, restricts matching to trajectory points inside
	// the rectangle (see query.Request.Region).
	Region *RectJSON `json:"region,omitempty"`
	// WithMatches asks for each result's matched trajectory point indexes,
	// one list per query point.
	WithMatches bool `json:"with_matches,omitempty"`
	// RequireComplete makes a cluster router fail the search (503) instead
	// of answering with a partial top-k when every replica of some shard is
	// down. Single-process servers always answer completely, so the flag is
	// a no-op for them.
	RequireComplete bool `json:"require_complete,omitempty"`
	// Subtrajectory scores each trajectory by its best contiguous point
	// span instead of the whole trajectory (see
	// query.Request.Subtrajectory). Combine with with_matches to get each
	// result's winning span.
	Subtrajectory bool `json:"subtrajectory,omitempty"`
	// MinSpanPoints/MaxSpanPoints bound the allowed span length in points
	// (0 = unlimited); only valid with subtrajectory.
	MinSpanPoints int `json:"min_span_points,omitempty"`
	MaxSpanPoints int `json:"max_span_points,omitempty"`
}

// ResultJSON is one top-k entry on the wire.
type ResultJSON struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
	// Matches is present only when the request set with_matches: one
	// ascending list of matched trajectory point indexes per query point.
	Matches [][]int32 `json:"matches,omitempty"`
	// Span is present only when the request set both subtrajectory and
	// with_matches: the [start, end] trajectory point index pair (inclusive)
	// of the winning span behind Dist.
	Span []int32 `json:"span,omitempty"`
}

// SearchResponse is the /v1/search reply.
type SearchResponse struct {
	Results []ResultJSON      `json:"results"`
	Stats   query.SearchStats `json:"stats"`
	TookUS  int64             `json:"took_us"`
	// Truncated is true when the reply carries partial results of a search
	// cut short (only on the 504 deadline path).
	Truncated bool `json:"truncated,omitempty"`
	// Partial is true when the results deliberately exclude shards whose
	// every replica was unreachable; Stats.ShardsFailed counts them and the
	// X-Atsq-Partial response header carries the same marker (see
	// query.Response.Partial for the exactness promise).
	Partial bool `json:"partial,omitempty"`
}

// InsertRequest is the /v1/insert body: the trajectory's points in order.
type InsertRequest struct {
	// GID is cluster-internal: the global trajectory ID a cluster router
	// assigned, fanned out to every replica of the owning shard. Only shard
	// replicas accept it (and require it); the public tiers assign IDs
	// themselves and reject it.
	GID    *uint32          `json:"gid,omitempty"`
	Points []QueryPointJSON `json:"points"`
}

// InsertResponse reports the assigned global trajectory ID.
type InsertResponse struct {
	ID uint32 `json:"id"`
}

// DeleteRequest is the /v1/delete body.
type DeleteRequest struct {
	ID uint32 `json:"id"`
}

// DeleteResponse acknowledges a delete.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

// ErrorResponse carries any non-2xx reply's message.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatsResponse is the single-process server's /v1/stats reply (the cluster
// tiers report the same serving counters beside their own index shape).
type StatsResponse struct {
	UptimeSec float64     `json:"uptime_sec"`
	Searches  int64       `json:"searches"`
	Inserts   int64       `json:"inserts"`
	Deletes   int64       `json:"deletes"`
	Workers   int         `json:"workers"`
	Index     shard.Stats `json:"index"`
	// MutationEpoch is the router's composed mutation counter (the sum of
	// every shard's apply count) — the same value that invalidates the
	// result cache and sequences subscription maintenance. It also appears
	// per shard inside Index; surfacing it here lets clients watch ingest
	// progress without parsing shard detail.
	MutationEpoch uint64 `json:"mutation_epoch"`
	// Subscriptions reports the standing-query hub: active subscriptions,
	// queue depth, prefilter/admission counters and event totals.
	Subscriptions subscribe.Stats `json:"subscriptions"`
}

// DefaultK is the result count used when a search request leaves K unset
// (the Table V default shared with the rest of the library).
const DefaultK = queries.DefaultK

// Options tunes a Server.
type Options struct {
	// Workers bounds the searches served concurrently; a search past the
	// bound waits for a slot (see Admission). <= 0 selects GOMAXPROCS. The
	// cluster router searches no index itself and ignores it.
	Workers int
	// Vocab resolves activity names in requests; nil restricts requests to
	// numeric activity IDs.
	Vocab *trajectory.Vocabulary
	// Recovery, when the router was opened from a durable data directory
	// (shard.OpenOrCreate), is that boot's replay summary; /healthz reports
	// it so operators can see what a restart recovered.
	Recovery *shard.RecoveryInfo
	// ErrorLog receives the server-side detail of 5xx faults, whose wire
	// bodies are sanitized. Nil uses the process-wide standard logger.
	ErrorLog *log.Logger
	// SubscriptionBuffer sizes each standing query's event ring (<= 0
	// selects subscribe.DefaultEventBuffer). A consumer that falls more than
	// a full ring behind is resynchronized with a single `resync` event
	// carrying the complete current top-k instead of the evicted backlog.
	SubscriptionBuffer int
	// ResultCacheEntries, when > 0, enables an epoch-invalidated result
	// cache of that many entries in front of the backend: a search whose
	// canonical request was already answered at the current mutation epoch
	// replies without waiting for an admission slot, and any insert, delete
	// or compaction invalidates every older entry at once (see
	// query.ResultCache). A hit's stats carry only the ResultCacheHits
	// marker — the cached search's work was not performed for the serving
	// request. 0 (the default) disables caching, keeping every reply's stats
	// an exact account of work done for that request.
	ResultCacheEntries int
}

// Backend is the index tier behind a Server. Its methods are called
// concurrently.
type Backend interface {
	// Epoch is the mutation counter that invalidates the result cache.
	query.EpochSource
	// Search answers one request. On a context error the response carries
	// whatever partial top-k was gathered (Truncated).
	Search(ctx context.Context, req query.Request) (query.Response, error)
	// Insert adds one trajectory and returns the reply body. gid is
	// InsertRequest.GID.
	Insert(ctx context.Context, gid *uint32, pts []trajectory.Point) (any, error)
	// Delete tombstones one trajectory by global ID.
	Delete(ctx context.Context, id trajectory.TrajID) error
	// Health returns the /healthz body; ok false answers 503 instead of 200,
	// flipping load balancers away.
	Health() (body map[string]any, ok bool)
	// Stats adds the tier's index shape to the /v1/stats body.
	Stats(body map[string]any)
}

// SearchTuner is implemented by backends that accept per-search URL
// parameters beyond the common ones; an error answers 400.
type SearchTuner interface {
	TuneSearch(r *http.Request, req *query.Request) error
}

// StatusError is a backend failure that names its own HTTP status. Its
// message travels verbatim — the backend vouches that it is fit for clients
// (a cluster router's 503 describes degradation the client should see) —
// where any other fault is a sanitized 500.
type StatusError struct {
	Status int
	Err    error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// Admission bounds the searches a backend runs at once; a request past the
// bound waits for a slot. It is a counting semaphore of Options.Workers
// slots.
type Admission chan struct{}

// NewAdmission returns a bound of workers slots (<= 0 selects GOMAXPROCS).
func NewAdmission(workers int) Admission {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return make(Admission, workers)
}

// Search runs search once a slot is free. Waiting honors ctx: a budget
// spent queueing behind busy searches fails immediately — Truncated, never
// having run — and a hung-up client leaves the queue right away. The slot
// is released when search returns, before the caller writes its reply, so
// a client stalling on the read side does not pin serving capacity.
func (a Admission) Search(ctx context.Context, req query.Request, search func(context.Context, query.Request) (query.Response, error)) (query.Response, error) {
	select {
	case a <- struct{}{}:
		defer func() { <-a }()
		return search(ctx, req)
	case <-ctx.Done():
		return query.Response{Truncated: true}, ctx.Err()
	}
}

// Server serves ATSQ/OATSQ queries and mutations over a Backend.
type Server struct {
	backend Backend
	tuner   SearchTuner // backend's, nil when it has none
	vocab   *trajectory.Vocabulary
	started time.Time
	errlog  *log.Logger
	mux     *http.ServeMux
	// rcache, when non-nil, answers repeated searches without reaching the
	// backend; its epoch source is the backend's mutation counter.
	rcache *query.ResultCache
	// hub maintains standing queries against the mutation stream of a
	// backend that can feed one (nil otherwise). With zero subscribers its
	// per-mutation cost is one atomic load, so the search/ingest fast paths
	// are unaffected.
	hub *subscribe.Hub

	searches atomic.Int64
	inserts  atomic.Int64
	deletes  atomic.Int64
}

// New builds the single-process server over r: one scatter-gather engine
// running at most opts.Workers searches at once.
func New(r *shard.Router, opts Options) *Server {
	b := &shardedBackend{Router: r, eng: r.NewEngine(), admit: NewAdmission(opts.Workers), recovery: opts.Recovery}
	return NewServer(b, opts)
}

// NewServer builds a server over any backend. A backend with a NewHub
// method (the single-process router) additionally gets the standing-query
// endpoints.
func NewServer(b Backend, opts Options) *Server {
	s := &Server{backend: b, vocab: opts.Vocab, started: time.Now(), errlog: opts.ErrorLog, mux: http.NewServeMux()}
	s.tuner, _ = b.(SearchTuner)
	if s.errlog == nil {
		s.errlog = log.Default()
	}
	if opts.ResultCacheEntries > 0 {
		s.rcache = query.NewResultCache(opts.ResultCacheEntries, b)
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/search", s.handleSearch)
	s.mux.HandleFunc("/v1/insert", s.handleInsert)
	s.mux.HandleFunc("/v1/delete", s.handleDelete)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	if hb, ok := b.(interface {
		NewHub(subscribe.Options) *subscribe.Hub
	}); ok {
		s.hub = hb.NewHub(subscribe.Options{EventBuffer: opts.SubscriptionBuffer})
		s.mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
		s.mux.HandleFunc("/v1/unsubscribe", s.handleUnsubscribe)
	}
	return s
}

// Hub exposes the standing-query hub (for in-process embedders and tests);
// nil when the backend has none.
func (s *Server) Hub() *subscribe.Hub { return s.hub }

// Close stops the subscription hub, if any: the mutation observers are
// detached, the dispatcher exits, and every live subscription is closed
// (streaming handlers see it and end their responses). Call after the HTTP
// listener has stopped accepting requests.
func (s *Server) Close() {
	if s.hub != nil {
		s.hub.Close()
	}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler { return s.mux }

// HandleFunc adds a tier-specific route beside the common ones.
func (s *Server) HandleFunc(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body, ok := s.backend.Health()
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, body)
}

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// reported when the client hung up mid-search; the reply is rarely
// observable, but handler tests and access logs distinguish it from a
// server-side fault.
const StatusClientClosedRequest = 499

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !s.ReadJSON(w, r, &req, 0) {
		return
	}
	sreq, err := ToQueryRequest(s.vocab, req)
	if err == nil && s.tuner != nil {
		err = s.tuner.TuneSearch(r, &sreq)
	}
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The search runs under the HTTP request's context (a client hanging up
	// cancels the scatter-gather fan-out), optionally capped by a
	// per-request ?timeout= budget.
	ctx := r.Context()
	if tstr := r.URL.Query().Get("timeout"); tstr != "" {
		d, err := time.ParseDuration(tstr)
		if err != nil || d <= 0 {
			s.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q: want a positive Go duration", tstr))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// With a result cache enabled, probe before reaching the backend: a hit
	// replies immediately (no admission wait, no search). The epoch is
	// read once here and reused for the post-search Put, so a cached entry
	// can never claim mutations its search did not observe.
	var cacheEpoch uint64
	if s.rcache != nil {
		cacheEpoch = s.rcache.Epoch()
		if qresp, ok := s.rcache.Get(cacheEpoch, sreq); ok {
			s.searches.Add(1)
			WriteJSON(w, http.StatusOK, SearchResponseJSON(qresp, 0))
			return
		}
	}
	start := time.Now()
	qresp, err := s.backend.Search(ctx, sreq)
	took := time.Since(start)
	if s.rcache != nil {
		qresp.Stats.ResultCacheMisses++
		if err == nil {
			s.rcache.Put(cacheEpoch, sreq, qresp)
		}
	}
	switch {
	case err == nil:
		s.searches.Add(1)
		if qresp.Partial {
			w.Header().Set(PartialHeader, "1")
		}
		WriteJSON(w, http.StatusOK, SearchResponseJSON(qresp, took))
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request budget ran out: 504, with whatever partial top-k
		// the search had gathered (Truncated marks it).
		WriteJSON(w, http.StatusGatewayTimeout, SearchResponseJSON(qresp, took))
	default:
		s.fail(w, err)
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !s.ReadJSON(w, r, &req, 0) {
		return
	}
	pts, err := ToInsertPoints(s.vocab, req.Points)
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Request-shaped problems were rejected above (coordinates, activity
	// resolution); what a backend reports beyond that is its own fault.
	reply, err := s.backend.Insert(r.Context(), req.GID, pts)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.inserts.Add(1)
	WriteJSON(w, http.StatusOK, reply)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !s.ReadJSON(w, r, &req, 0) {
		return
	}
	if err := s.backend.Delete(r.Context(), trajectory.TrajID(req.ID)); err != nil {
		s.fail(w, err)
		return
	}
	s.deletes.Add(1)
	WriteJSON(w, http.StatusOK, DeleteResponse{Deleted: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	body := map[string]any{
		"uptime_sec": time.Since(s.started).Seconds(),
		"searches":   s.searches.Load(),
		"inserts":    s.inserts.Load(),
		"deletes":    s.deletes.Load(),
	}
	if s.hub != nil {
		body["subscriptions"] = s.hub.Stats()
	}
	s.backend.Stats(body)
	WriteJSON(w, http.StatusOK, body)
}

// ReadJSON decodes a POST body into dst (size-capped at maxBytes, unknown
// fields rejected — see DecodeJSON), replying with the appropriate error
// status itself when it returns false.
func (s *Server) ReadJSON(w http.ResponseWriter, r *http.Request, dst any, maxBytes int64) bool {
	if status, err := DecodeJSON(w, r, dst, maxBytes); status != 0 {
		s.WriteError(w, status, err)
		return false
	}
	return true
}

// fail answers a backend error: the status a StatusError names, 499 for a
// client that hung up, otherwise a 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		WriteJSON(w, se.Status, ErrorResponse{Error: se.Error()})
	case errors.Is(err, context.Canceled):
		s.WriteError(w, StatusClientClosedRequest, err)
	default:
		s.WriteError(w, http.StatusInternalServerError, err)
	}
}

// WriteError replies with a JSON error body. Client-addressable statuses
// (4xx, including 499) carry the actionable detail verbatim; server-side
// faults (5xx) are sanitized on the wire — engine and router error strings
// can name files, shard layout and index internals, which belong in the
// server log, not in a reply to an arbitrary network client.
func (s *Server) WriteError(w http.ResponseWriter, status int, err error) {
	if status >= 500 {
		s.errlog.Printf("server: %d fault: %v", status, err)
		err = errors.New(http.StatusText(status))
	}
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

// shardedBackend serves the single-process sharded index.
type shardedBackend struct {
	*shard.Router // Epoch, NewHub
	eng           *shard.Engine
	admit         Admission
	recovery      *shard.RecoveryInfo
}

func (b *shardedBackend) Search(ctx context.Context, req query.Request) (query.Response, error) {
	return b.admit.Search(ctx, req, b.eng.Search)
}

func (b *shardedBackend) Insert(_ context.Context, gid *uint32, pts []trajectory.Point) (any, error) {
	if gid != nil {
		return nil, &StatusError{Status: http.StatusBadRequest, Err: errors.New("gid is assigned by the server")}
	}
	id, err := b.Router.Insert(trajectory.Trajectory{Pts: pts})
	return InsertResponse{ID: uint32(id)}, err
}

func (b *shardedBackend) Delete(_ context.Context, id trajectory.TrajID) error {
	if err := b.Router.Delete(id); err != nil {
		return &StatusError{Status: http.StatusNotFound, Err: err}
	}
	return nil
}

// Health reports, beyond the shard count, what a durable boot recovered
// (replayed journal records, torn tails, synthesized inserts) and surfaces
// any persisting background compaction failure: a shard whose last
// compaction failed serves stale generations with a growing delta, so the
// probe is unhealthy until a later compaction succeeds and clears it.
func (b *shardedBackend) Health() (map[string]any, bool) {
	body := map[string]any{"status": "ok", "shards": b.NumShards()}
	if b.recovery != nil {
		body["recovery"] = b.recovery
	}
	compact := map[string]string{}
	for si, ss := range b.Router.Stats().PerShard {
		if ss.CompactErr != "" {
			compact[strconv.Itoa(si)] = ss.CompactErr
		}
	}
	if len(compact) > 0 {
		body["status"] = "compaction-failed"
		body["compact_errors"] = compact
	}
	return body, len(compact) == 0
}

// Stats fills StatsResponse's index fields. MutationEpoch also appears per
// shard inside Index; surfacing it at the top lets clients watch ingest
// progress without parsing shard detail.
func (b *shardedBackend) Stats(body map[string]any) {
	body["workers"] = cap(b.admit)
	body["index"] = b.Router.Stats()
	body["mutation_epoch"] = b.Epoch()
}
