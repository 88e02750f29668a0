package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/trajectory"
)

// Cluster-internal wire types. The public search/delete shapes are reused
// from internal/server so a shard node speaks the same dialect as the
// single-process server; the types below exist only on node endpoints the
// router calls.

// NodeInsertResponse acknowledges a replicated insert (the request is
// server.InsertRequest with the router-assigned GID set). Applied is false
// when the node already knew the gid (an idempotent re-send).
type NodeInsertResponse struct {
	Applied bool   `json:"applied"`
	LastSeq uint64 `json:"last_seq"`
}

// NodeMeta is the /v1/cluster/meta reply: everything the router needs to
// admit a replica — which shard it replicates, how far its mutation
// sequence reaches, and the planning bounds.
type NodeMeta struct {
	Shard        int              `json:"shard"`
	LastSeq      uint64           `json:"last_seq"`
	NextGID      uint32           `json:"next_gid"`
	Trajectories int              `json:"trajectories"`
	Bounds       *server.RectJSON `json:"bounds,omitempty"`
}

// WALResponse is the /v1/cluster/wal reply: the segment files covering the
// requested suffix plus the sender's current sequence.
type WALResponse struct {
	Segments []WALSegment `json:"segments"`
	LastSeq  uint64       `json:"last_seq"`
}

// CatchupRequest is the /v1/cluster/catchup body: segments shipped from a
// healthy replica for this node to dedupe and apply.
type CatchupRequest struct {
	Segments []WALSegment `json:"segments"`
}

// CatchupResponse reports the node's sequence after applying a catch-up.
type CatchupResponse struct {
	LastSeq uint64 `json:"last_seq"`
}

// OwnsResponse is the /v1/cluster/owns reply (200 only; unknown gids 404).
type OwnsResponse struct {
	Owns bool `json:"owns"`
}

// catchupMaxBodyBytes caps /v1/cluster/catchup bodies: segment files are
// bounded by the WAL rotation size, but a catch-up may ship several.
const catchupMaxBodyBytes = 512 << 20

// nodeBackend is one shard replica behind the common HTTP face: the same
// /v1 dialect as the single-process server, plus what only a replica has —
// the router's ?bound= pruning hint, upstream-assigned insert gids, deletes
// that 404 when the trajectory lives on another shard, and the WAL catch-up
// routes.
type nodeBackend struct {
	*Node // Epoch
	admit server.Admission
	srv   *server.Server
}

// NewNodeServer builds the HTTP server over n, running at most
// opts.Workers searches at once.
func NewNodeServer(n *Node, opts server.Options) *server.Server {
	b := &nodeBackend{Node: n, admit: server.NewAdmission(opts.Workers)}
	b.srv = server.NewServer(b, opts)
	b.srv.HandleFunc("GET /v1/cluster/meta", b.handleMeta)
	b.srv.HandleFunc("GET /v1/cluster/wal", b.handleWAL)
	b.srv.HandleFunc("GET /v1/cluster/owns", b.handleOwns)
	b.srv.HandleFunc("/v1/cluster/catchup", b.handleCatchup)
	return b.srv
}

func (b *nodeBackend) Search(ctx context.Context, req query.Request) (query.Response, error) {
	return b.admit.Search(ctx, req, b.Node.Search)
}

// TuneSearch applies ?bound=, the router's cross-shard pruning hint: the
// running global k-th distance at dispatch time. It composes with the
// body's own InitialBound by taking the minimum — both mean "results
// strictly farther are already beaten elsewhere", so the hint can only
// prune, never change what the surviving results are.
func (b *nodeBackend) TuneSearch(r *http.Request, req *query.Request) error {
	bstr := r.URL.Query().Get("bound")
	if bstr == "" {
		return nil
	}
	hint, err := strconv.ParseFloat(bstr, 64)
	if err != nil || hint < 0 {
		return fmt.Errorf("bad bound %q: want a non-negative float", bstr)
	}
	if hint > 0 && (req.InitialBound <= 0 || hint < req.InitialBound) {
		req.InitialBound = hint
	}
	return nil
}

func (b *nodeBackend) Insert(_ context.Context, gid *uint32, pts []trajectory.Point) (any, error) {
	if gid == nil {
		return nil, &server.StatusError{Status: http.StatusBadRequest, Err: errors.New("shard replicas take inserts from the router: gid required")}
	}
	applied, err := b.Node.Insert(trajectory.TrajID(*gid), pts)
	return NodeInsertResponse{Applied: applied, LastSeq: b.LastSeq()}, err
}

func (b *nodeBackend) Delete(_ context.Context, gid trajectory.TrajID) error {
	if !b.Owns(gid) {
		return &server.StatusError{Status: http.StatusNotFound, Err: fmt.Errorf("trajectory %d not on this shard", gid)}
	}
	return b.Node.Delete(gid)
}

func (b *nodeBackend) Health() (map[string]any, bool) {
	body := map[string]any{"status": "ok", "shard": b.Shard(), "last_seq": b.LastSeq()}
	if b.recovery != nil {
		body["recovery"] = b.recovery
	}
	err := b.Dynamic().LastCompactErr()
	if err != nil {
		// A node that silently stopped compacting serves stale generations
		// with a growing delta: flip load balancers away until it heals.
		body["status"] = "compaction-failed"
		body["compact_error"] = err.Error()
	}
	return body, err == nil
}

func (b *nodeBackend) Stats(body map[string]any) {
	body["shard"] = b.Shard()
	body["last_seq"] = b.LastSeq()
	body["workers"] = cap(b.admit)
	body["trajectories"] = b.Trajectories()
	body["index"] = b.Dynamic().Stats()
}

func (b *nodeBackend) handleMeta(w http.ResponseWriter, r *http.Request) {
	m := NodeMeta{
		Shard:        b.Shard(),
		LastSeq:      b.LastSeq(),
		NextGID:      uint32(b.NextGID()),
		Trajectories: b.Trajectories(),
	}
	if bb, ok := b.Bounds(); ok {
		m.Bounds = &server.RectJSON{MinX: bb.MinX, MinY: bb.MinY, MaxX: bb.MaxX, MaxY: bb.MaxY}
	}
	server.WriteJSON(w, http.StatusOK, m)
}

func (b *nodeBackend) handleWAL(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if fstr := r.URL.Query().Get("from"); fstr != "" {
		v, err := strconv.ParseUint(fstr, 10, 64)
		if err != nil {
			b.srv.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad from %q: %v", fstr, err))
			return
		}
		from = v
	}
	segs, err := b.Segments(from)
	if err != nil {
		b.srv.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, WALResponse{Segments: segs, LastSeq: b.LastSeq()})
}

func (b *nodeBackend) handleCatchup(w http.ResponseWriter, r *http.Request) {
	var req CatchupRequest
	if !b.srv.ReadJSON(w, r, &req, catchupMaxBodyBytes) {
		return
	}
	last, err := b.ApplySegments(req.Segments)
	if err != nil {
		b.srv.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, CatchupResponse{LastSeq: last})
}

func (b *nodeBackend) handleOwns(w http.ResponseWriter, r *http.Request) {
	gstr := r.URL.Query().Get("gid")
	gid, err := strconv.ParseUint(gstr, 10, 32)
	if err != nil {
		b.srv.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad gid %q", gstr))
		return
	}
	if !b.Owns(trajectory.TrajID(gid)) {
		b.srv.WriteError(w, http.StatusNotFound, fmt.Errorf("trajectory %d not on this shard", gid))
		return
	}
	server.WriteJSON(w, http.StatusOK, OwnsResponse{Owns: true})
}
