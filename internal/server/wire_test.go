package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDecodeJSON pins the shared request-door contract every tier (single
// server, cluster nodes, cluster router) inherits: 405 for the wrong
// method, 413 — not 400 or a buffering 500 — for an oversized body, 400
// for garbage or unknown fields, strict field checking always on.
func TestDecodeJSON(t *testing.T) {
	type msg struct {
		A int `json:"a"`
	}
	decode := func(method, body string, maxBytes int64) (int, error) {
		r := httptest.NewRequest(method, "/x", strings.NewReader(body))
		var m msg
		return DecodeJSON(httptest.NewRecorder(), r, &m, maxBytes)
	}

	if status, _ := decode(http.MethodGet, `{"a":1}`, 0); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", status)
	}
	if status, _ := decode(http.MethodPost, `{"a":1}`, 0); status != 0 {
		t.Fatalf("valid body: status %d, want 0", status)
	}
	if status, _ := decode(http.MethodPost, `{"a":1,"zzz":2}`, 0); status != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", status)
	}
	if status, _ := decode(http.MethodPost, `nope`, 0); status != http.StatusBadRequest {
		t.Fatalf("garbage: status %d, want 400", status)
	}

	// One byte over the cap is 413 with the limit in the message; at the
	// cap it still decodes.
	body := `{"a":12345}`
	status, err := decode(http.MethodPost, body, int64(len(body))-1)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized: status %d, want 413", status)
	}
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized: error %v should name the limit", err)
	}
	if status, err := decode(http.MethodPost, body, int64(len(body))); status != 0 {
		t.Fatalf("at cap: status %d (%v), want success", status, err)
	}
}

// TestToQueryRequestValidation: malformed span options and activity IDs
// beyond 32 bits are request-shape faults caught at the wire door (every
// tier maps ToQueryRequest and ToInsertPoints errors to 400) — never an
// engine error surfacing as 500, and never an ID wrapped onto a real
// activity.
func TestToQueryRequestValidation(t *testing.T) {
	pts := []QueryPointJSON{{X: 1, Y: 2, Acts: []int{1}}}
	wide := []QueryPointJSON{{X: 1, Y: 2, Acts: []int{5 + 1<<32}}} // would wrap to activity 5
	bad := []SearchRequest{
		{Points: pts, K: 3, Subtrajectory: true, MinSpanPoints: 9, MaxSpanPoints: 2},
		{Points: pts, K: 3, Subtrajectory: true, MinSpanPoints: -1},
		{Points: pts, K: 3, MaxSpanPoints: 4}, // limits without the mode
		{Points: wide, K: 3},
	}
	for i, req := range bad {
		if _, err := ToQueryRequest(nil, req); err == nil {
			t.Fatalf("bad request %d accepted", i)
		}
	}
	if _, err := ToInsertPoints(nil, wide); err == nil {
		t.Fatal("insert of an activity ID beyond 32 bits accepted")
	}
	good := SearchRequest{Points: pts, K: 3, Subtrajectory: true, MaxSpanPoints: 12}
	sreq, err := ToQueryRequest(nil, good)
	if err != nil {
		t.Fatalf("valid subtrajectory request rejected: %v", err)
	}
	if !sreq.Subtrajectory || sreq.MaxSpanPoints != 12 {
		t.Fatalf("span fields lost in conversion: %+v", sreq)
	}
}

// TestServerBodyCapAndStrictMutations pins the HTTP satellite end to end:
// a body over DefaultMaxBodyBytes answers 413 on every JSON endpoint, and
// the mutation endpoints reject unknown fields rather than silently
// dropping them (a misspelled field on a mutation is data loss).
func TestServerBodyCapAndStrictMutations(t *testing.T) {
	s, _ := testServer(t, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An insert whose points array exceeds the 16 MiB cap: the server must
	// refuse with 413 instead of buffering or mislabeling it a 400.
	var big bytes.Buffer
	big.WriteString(`{"points":[`)
	point := `{"x":1.5,"y":2.5,"acts":[1]}`
	for big.Len() < DefaultMaxBodyBytes+1024 {
		if big.Len() > len(`{"points":[`) {
			big.WriteByte(',')
		}
		big.WriteString(point)
	}
	big.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(big.Bytes()))
	if err != nil {
		t.Fatalf("oversized insert: %v", err)
	}
	var e ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized insert: status %d (%s), want 413", resp.StatusCode, e.Error)
	}

	// Unknown fields on the mutation endpoints are 400s.
	for _, c := range []struct{ path, body string }{
		{"/v1/insert", `{"points":[{"x":1,"y":2,"acts":[1]}],"replica":3}`},
		{"/v1/insert", `{"points":[{"x":1,"y":2,"acts":[1],"weight":2}]}`},
		{"/v1/delete", `{"id":1,"force":true}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST %s: %v", c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %q: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}
