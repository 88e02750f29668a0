package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"activitytraj/internal/trajectory"
)

// FuzzSearchRequestJSON feeds arbitrary bytes through the /v1/search wire
// door — DecodeJSON, then ToQueryRequest — and requires that it never
// panics, and that whatever it accepts is a request every engine may run:
// a query that passes Query.Validate, span options that pass
// Request.ValidateSpan, and the wire's K (or DefaultK for an unset or
// non-positive one), never a wrapped or zero count.
func FuzzSearchRequestJSON(f *testing.F) {
	vb := trajectory.NewVocabularyBuilder()
	for _, name := range []string{"coffee", "museum", "park"} {
		vb.Add(name)
	}
	vocab := vb.Build()
	for _, seed := range []string{
		`{"k":3,"points":[{"x":5,"y":5,"acts":[1,2]}]}`,
		`{"k":4294967301,"ordered":true,"points":[{"x":1,"y":2,"names":["coffee"]},{"x":-3,"y":4,"acts":[0]}]}`,
		`{"points":[{"x":1e308,"y":-1e308,"acts":[2]}],"region":{"min_x":0,"min_y":0,"max_x":-1,"max_y":9}}`,
		`{"k":-7,"subtrajectory":true,"min_span_points":3,"max_span_points":2,"points":[{"x":0,"y":0,"acts":[1]}]}`,
		`{"k":2,"subtrajectory":true,"max_span_points":5,"initial_bound":12.5,"with_matches":true,"points":[{"x":0,"y":0,"acts":[1,1,4294967296]}]}`,
		`{"points":[{"x":0,"y":0,"acts":[-1]}]}`,
		`{"points":[{"x":0,"y":0,"names":["nowhere"]}]}`,
		`{"points":[]}`,
		`{"k":1,"points":[{"x":0,"y":0}],"unknown":1}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
		var wire SearchRequest
		if status, _ := DecodeJSON(httptest.NewRecorder(), r, &wire, 0); status != 0 {
			return
		}
		req, err := ToQueryRequest(vocab, wire)
		if err != nil {
			return
		}
		if err := req.Query.Validate(); err != nil {
			t.Fatalf("accepted %q with an invalid query: %v", body, err)
		}
		if err := req.ValidateSpan(); err != nil {
			t.Fatalf("accepted %q with invalid span options: %v", body, err)
		}
		wantK := wire.K
		if wantK <= 0 {
			wantK = DefaultK
		}
		if req.K != wantK || req.K < 1 {
			t.Fatalf("accepted %q with K %d, want %d", body, req.K, wantK)
		}
	})
}
