package cluster

import (
	"context"
	"errors"
	"net/http"

	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/trajectory"
)

// routerBackend is the cluster's public tier behind the common HTTP face:
// the same /v1 dialect as the single-process server, served by
// scatter-gather over the shard replica sets. It contributes only its error
// classes. Degradation is visible on the wire: partial answers carry the
// X-Atsq-Partial header and "partial" body field, and a 503 describes
// cluster degradation the client should see verbatim.
type routerBackend struct{ *Router }

// NewRouterServer builds the HTTP server over r.
func NewRouterServer(r *Router, opts server.Options) *server.Server {
	return server.NewServer(routerBackend{r}, opts)
}

// unavailable makes a failure the 503 it is.
func unavailable(err error) error {
	return &server.StatusError{Status: http.StatusServiceUnavailable, Err: err}
}

func (b routerBackend) Search(ctx context.Context, req query.Request) (query.Response, error) {
	resp, err := b.Router.Search(ctx, req)
	var inc *IncompleteError
	if errors.As(err, &inc) {
		// RequireComplete over a dead shard fails closed: the client asked
		// for all-or-nothing and gets the honest "nothing".
		err = unavailable(err)
	}
	return resp, err
}

func (b routerBackend) Insert(ctx context.Context, gid *uint32, pts []trajectory.Point) (any, error) {
	if gid != nil {
		return nil, &server.StatusError{Status: http.StatusBadRequest, Err: errors.New("gid is assigned by the router")}
	}
	id, err := b.Router.Insert(ctx, pts)
	if err != nil {
		return nil, unavailable(err)
	}
	return server.InsertResponse{ID: uint32(id)}, nil
}

func (b routerBackend) Delete(ctx context.Context, gid trajectory.TrajID) error {
	err := b.Router.Delete(ctx, gid)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrNotFound):
		return &server.StatusError{Status: http.StatusNotFound, Err: err}
	default:
		return unavailable(err)
	}
}

// Health is always ok: the router itself is healthy as long as it runs —
// shard availability is per-request (degradation), not a router liveness
// question. The replica table gives load balancers the full picture.
func (b routerBackend) Health() (map[string]any, bool) {
	return map[string]any{"status": "ok", "shards": b.NumShards(), "replicas": b.Replicas()}, true
}

func (b routerBackend) Stats(body map[string]any) {
	body["shards"] = b.NumShards()
	body["next_id"] = uint32(b.NextID())
	body["epoch"] = b.Epoch()
	body["replicas"] = b.Replicas()
}
