package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// DefaultMaxBodyBytes caps request bodies on every JSON endpoint. The wire
// is server-to-server inside a cluster, so an oversized body is a fault to
// reject loudly (413), not a stream to buffer.
const DefaultMaxBodyBytes = 16 << 20

// PartialHeader marks a search reply whose results deliberately exclude
// failed shards (the JSON body's "partial" field carries the same fact; the
// header lets proxies and load-balancers see it without parsing the body).
const PartialHeader = "X-Atsq-Partial"

// DecodeJSON decodes a POST body of at most maxBytes (<= 0 selects
// DefaultMaxBodyBytes) into dst, rejecting unknown fields. On failure it
// returns the HTTP status the caller should answer: 405 for a non-POST, 413
// when the body exceeds the cap, 400 for malformed JSON or unknown fields.
// On success the returned status is 0. The cluster's node and router
// servers share this with the single-process server so every tier rejects
// garbage identically.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any, maxBytes int64) (int, error) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, fmt.Errorf("use POST")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBodyBytes
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	return 0, nil
}

// WriteJSON writes v as the JSON reply body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// ToQuery converts wire points to a validated query. vocab resolves
// activity names; nil restricts points to numeric activity IDs. Search
// points may reference IDs outside the vocabulary (they simply match
// nothing).
func ToQuery(vocab *trajectory.Vocabulary, pts []QueryPointJSON) (query.Query, error) {
	var q query.Query
	for i, p := range pts {
		acts, err := toActs(vocab, p, false)
		if err != nil {
			return q, fmt.Errorf("point %d: %w", i, err)
		}
		q.Pts = append(q.Pts, query.Point{Loc: pointOf(p), Acts: acts})
	}
	return q, q.Validate()
}

// ToQueryRequest converts a wire SearchRequest into the engine request,
// applying the DefaultK fallback.
func ToQueryRequest(vocab *trajectory.Vocabulary, req SearchRequest) (query.Request, error) {
	q, err := ToQuery(vocab, req.Points)
	if err != nil {
		return query.Request{}, err
	}
	sreq := query.Request{
		Query:           q,
		K:               req.K,
		Ordered:         req.Ordered,
		InitialBound:    req.InitialBound,
		WithMatches:     req.WithMatches,
		RequireComplete: req.RequireComplete,
		Subtrajectory:   req.Subtrajectory,
		MinSpanPoints:   req.MinSpanPoints,
		MaxSpanPoints:   req.MaxSpanPoints,
	}
	if sreq.K <= 0 {
		sreq.K = DefaultK
	}
	if req.Region != nil {
		rect := geo.NewRect(req.Region.MinX, req.Region.MinY, req.Region.MaxX, req.Region.MaxY)
		sreq.Region = &rect
	}
	// Span options are request-shape errors: reject at the wire door (400),
	// like malformed points, rather than surfacing an engine error as a 500.
	if err := sreq.ValidateSpan(); err != nil {
		return query.Request{}, err
	}
	return sreq, nil
}

// ToInsertPoints converts wire points into trajectory points for insertion,
// rejecting non-finite coordinates and (when vocab is non-nil) activity IDs
// outside the vocabulary.
func ToInsertPoints(vocab *trajectory.Vocabulary, pts []QueryPointJSON) ([]trajectory.Point, error) {
	if len(pts) == 0 {
		// A point-less trajectory can never match and its global ID could
		// never be reclaimed (IDs are dense and stable forever).
		return nil, fmt.Errorf("trajectory has no points")
	}
	out := make([]trajectory.Point, len(pts))
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("point %d: non-finite coordinates", i)
		}
		acts, err := toActs(vocab, p, true)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out[i] = trajectory.Point{Loc: pointOf(p), Acts: acts}
	}
	return out, nil
}

// PointsJSON converts trajectory points to the wire shape (the inverse of
// ToInsertPoints up to name resolution); the cluster router uses it to fan
// inserts out to shard replicas.
func PointsJSON(pts []trajectory.Point) []QueryPointJSON {
	out := make([]QueryPointJSON, len(pts))
	for i, p := range pts {
		out[i] = QueryPointJSON{X: p.Loc.X, Y: p.Loc.Y}
		if len(p.Acts) > 0 {
			acts := make([]int, len(p.Acts))
			for k, a := range p.Acts {
				acts[k] = int(a)
			}
			out[i].Acts = acts
		}
	}
	return out
}

// SearchResponseJSON converts an engine response to the wire shape.
func SearchResponseJSON(qresp query.Response, took time.Duration) SearchResponse {
	resp := SearchResponse{
		Results:   make([]ResultJSON, len(qresp.Results)),
		Stats:     qresp.Stats,
		TookUS:    took.Microseconds(),
		Truncated: qresp.Truncated,
		Partial:   qresp.Partial,
	}
	for i, r := range qresp.Results {
		resp.Results[i] = ResultJSON{ID: uint32(r.ID), Dist: r.Dist}
		if i < len(qresp.Matches) {
			resp.Results[i].Matches = qresp.Matches[i]
		}
		if i < len(qresp.Spans) {
			resp.Results[i].Span = []int32{qresp.Spans[i][0], qresp.Spans[i][1]}
		}
	}
	return resp
}

// toActs resolves a wire point's activity IDs and names into a normalized
// set. Inserts must stay within the vocabulary (the index would reject them
// later with a server-side status otherwise); searches may reference any
// representable ID and simply match nothing. An ID beyond 32 bits is
// refused rather than wrapped onto a real activity.
func toActs(vocab *trajectory.Vocabulary, p QueryPointJSON, forInsert bool) (trajectory.ActivitySet, error) {
	ids := make([]trajectory.ActivityID, 0, len(p.Acts)+len(p.Names))
	for _, a := range p.Acts {
		if a < 0 {
			return nil, fmt.Errorf("negative activity ID %d", a)
		}
		if uint64(a) > math.MaxUint32 {
			return nil, fmt.Errorf("activity ID %d exceeds 32 bits", a)
		}
		if forInsert && vocab != nil && a >= vocab.Size() {
			return nil, fmt.Errorf("activity ID %d outside vocabulary (size %d)", a, vocab.Size())
		}
		ids = append(ids, trajectory.ActivityID(a))
	}
	for _, name := range p.Names {
		if vocab == nil {
			return nil, fmt.Errorf("activity names not supported (no vocabulary)")
		}
		id, ok := vocab.ID(name)
		if !ok {
			return nil, fmt.Errorf("activity %q not in vocabulary", name)
		}
		ids = append(ids, id)
	}
	return trajectory.NewActivitySet(ids...), nil
}

func pointOf(p QueryPointJSON) geo.Point {
	return geo.Point{X: p.X, Y: p.Y}
}
