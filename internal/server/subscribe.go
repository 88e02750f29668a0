package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"activitytraj/internal/query"
	"activitytraj/internal/subscribe"
)

// Subscription wire protocol.
//
// POST /v1/subscribe with a SearchRequest body registers a standing query
// whose top-k the server maintains incrementally against the ingest stream.
// Two consumption modes:
//
//   - Default (SSE): the response is a text/event-stream. The first frame is
//     a `resync` event carrying the seeded top-k; every later frame is a
//     `join`, `leave` or `resync` event. Each frame's SSE id is the event
//     sequence number. The subscription lives exactly as long as the stream:
//     a client hang-up frees it.
//   - ?mode=poll: the response is a SubscribeResponse carrying the new
//     subscription's ID, current sequence and seeded top-k. The client then
//     long-polls GET /v1/subscribe?id=N&from=SEQ[&wait=DUR] and must
//     eventually POST /v1/unsubscribe (poll subscriptions are owned by the
//     client, not a connection).
//
// Every event carries the full post-mutation top-k, so a consumer is wholly
// resynchronized by any single event. A consumer that falls more than an
// event ring behind receives one `resync` event (full state, current
// sequence) instead of the evicted backlog — slow consumers lose history,
// never correctness.

// DefaultLongPollWait caps how long GET /v1/subscribe parks waiting for an
// event before answering an empty page; clients pass ?wait= up to
// MaxLongPollWait to tune it.
const (
	DefaultLongPollWait = 30 * time.Second
	MaxLongPollWait     = 2 * time.Minute
	// sseKeepaliveEvery spaces comment keepalive frames on idle SSE streams
	// so intermediaries don't reap the connection and the per-write deadline
	// below keeps being re-armed.
	sseKeepaliveEvery = 15 * time.Second
	// sseWriteDeadline bounds each SSE frame write. The enclosing
	// http.Server's WriteTimeout is absolute and would kill long streams;
	// the handler re-arms this rolling deadline per frame instead, so only a
	// stalled client — not a long-lived one — times the stream out.
	sseWriteDeadline = 30 * time.Second
)

// EventJSON is one subscription event on the wire.
type EventJSON struct {
	Sub  uint64 `json:"sub"`
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	// ID/Dist describe the trajectory that joined or left (absent on
	// resync). Dist is meaningful on join only.
	ID   uint32  `json:"id,omitempty"`
	Dist float64 `json:"dist,omitempty"`
	// TopK is the complete top-k after the event, ascending (dist, id).
	TopK []ResultJSON `json:"topk"`
}

// SubscribeResponse is the ?mode=poll reply to POST /v1/subscribe.
type SubscribeResponse struct {
	ID      uint64       `json:"id"`
	Seq     uint64       `json:"seq"`
	Results []ResultJSON `json:"results"`
}

// PollResponse is the GET /v1/subscribe long-poll reply. Events is empty
// when the wait expired with nothing new; Closed reports that the
// subscription is gone and polling should stop.
type PollResponse struct {
	ID     uint64      `json:"id"`
	Events []EventJSON `json:"events"`
	Closed bool        `json:"closed,omitempty"`
}

// UnsubscribeRequest is the /v1/unsubscribe body.
type UnsubscribeRequest struct {
	ID uint64 `json:"id"`
}

// UnsubscribeResponse acknowledges an unsubscribe; Removed is false when the
// ID was unknown (already removed or never existed).
type UnsubscribeResponse struct {
	Removed bool `json:"removed"`
}

func resultsJSON(rs []query.Result) []ResultJSON {
	out := make([]ResultJSON, len(rs))
	for i, r := range rs {
		out[i] = ResultJSON{ID: uint32(r.ID), Dist: r.Dist}
	}
	return out
}

func eventJSON(subID uint64, ev subscribe.Event) EventJSON {
	ej := EventJSON{Sub: subID, Seq: ev.Seq, Kind: ev.Kind.String(), TopK: resultsJSON(ev.TopK)}
	if ev.Kind != subscribe.EventResync {
		ej.ID = uint32(ev.ID)
		ej.Dist = ev.Dist
	}
	return ej
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubscribeCreate(w, r)
	case http.MethodGet:
		s.handleSubscribePoll(w, r)
	default:
		s.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST to subscribe or GET to poll"))
	}
}

func (s *Server) handleSubscribeCreate(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !s.ReadJSON(w, r, &req, 0) {
		return
	}
	sreq, err := ToQueryRequest(s.vocab, req)
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, err)
		return
	}
	sub, err := s.hub.Subscribe(r.Context(), sreq)
	if err != nil {
		if errors.Is(err, subscribe.ErrClosed) {
			s.WriteError(w, http.StatusServiceUnavailable, err)
		} else {
			// Everything else Subscribe rejects is request-shaped (span
			// options, WithMatches, a hung-up client).
			s.WriteError(w, http.StatusBadRequest, err)
		}
		return
	}
	if r.URL.Query().Get("mode") == "poll" {
		seq, topk := sub.Snapshot()
		WriteJSON(w, http.StatusOK, SubscribeResponse{ID: sub.ID(), Seq: seq, Results: resultsJSON(topk)})
		return
	}
	// SSE mode: the subscription's lifetime is the stream's.
	defer s.hub.Unsubscribe(sub.ID())
	s.streamEvents(w, r, sub, 0)
}

// handleSubscribePoll long-polls an existing subscription for events after
// ?from= (or streams it as SSE when the client asks for text/event-stream —
// reattaching to a poll-created subscription after a dropped stream, resumed
// from Last-Event-ID).
func (s *Server) handleSubscribePoll(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id, err := strconv.ParseUint(q.Get("id"), 10, 64)
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad id %q: want the decimal subscription ID", q.Get("id")))
		return
	}
	sub, ok := s.hub.Get(id)
	if !ok {
		s.WriteError(w, http.StatusNotFound, fmt.Errorf("no subscription %d", id))
		return
	}
	var from uint64
	if fs := q.Get("from"); fs != "" {
		if from, err = strconv.ParseUint(fs, 10, 64); err != nil {
			s.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad from %q: want a sequence number", fs))
			return
		}
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		if lid := r.Header.Get("Last-Event-ID"); lid != "" {
			if from, err = strconv.ParseUint(lid, 10, 64); err != nil {
				s.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad Last-Event-ID %q", lid))
				return
			}
		}
		s.streamEvents(w, r, sub, from)
		return
	}
	wait := DefaultLongPollWait
	if ws := q.Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			s.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: want a positive Go duration", ws))
			return
		}
		wait = min(d, MaxLongPollWait)
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		evs, waitCh, closed := sub.Next(from)
		if len(evs) > 0 || closed {
			resp := PollResponse{ID: id, Events: make([]EventJSON, len(evs)), Closed: closed}
			for i, ev := range evs {
				resp.Events[i] = eventJSON(id, ev)
			}
			WriteJSON(w, http.StatusOK, resp)
			return
		}
		select {
		case <-r.Context().Done():
			s.WriteError(w, StatusClientClosedRequest, r.Context().Err())
			return
		case <-deadline.C:
			WriteJSON(w, http.StatusOK, PollResponse{ID: id, Events: []EventJSON{}})
			return
		case <-waitCh:
		}
	}
}

// streamEvents writes the subscription as a server-sent-event stream,
// starting from cursor (0 = snapshot now). The first frame is always a
// resync carrying the state at the cursor clamp, so a consumer needs no
// state besides the frames. Returns when the client hangs up, a write
// fails, or the subscription closes.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, sub *subscribe.Subscription, cursor uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.WriteError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	send := func(ej EventJSON) bool {
		data, err := json.Marshal(ej)
		if err != nil {
			return false
		}
		// Rolling per-frame deadline; see sseWriteDeadline. Errors are
		// ignored: test recorders don't support deadlines, real conns do.
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteDeadline))
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ej.Seq, ej.Kind, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if cursor == 0 {
		// Opening snapshot: full state as a resync frame, then follow from
		// its sequence.
		seq, topk := sub.Snapshot()
		ej := EventJSON{Sub: sub.ID(), Seq: seq, Kind: subscribe.EventResync.String(), TopK: resultsJSON(topk)}
		if !send(ej) {
			return
		}
		cursor = seq
	}
	keepalive := time.NewTicker(sseKeepaliveEvery)
	defer keepalive.Stop()
	for {
		evs, waitCh, closed := sub.Next(cursor)
		for _, ev := range evs {
			if !send(eventJSON(sub.ID(), ev)) {
				return
			}
			cursor = ev.Seq
		}
		if closed {
			return
		}
		if len(evs) > 0 {
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-waitCh:
		case <-keepalive.C:
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteDeadline))
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	var req UnsubscribeRequest
	if !s.ReadJSON(w, r, &req, 0) {
		return
	}
	WriteJSON(w, http.StatusOK, UnsubscribeResponse{Removed: s.hub.Unsubscribe(req.ID)})
}
