package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

func testServer(t *testing.T, shards int) (*Server, *trajectory.Dataset) {
	t.Helper()
	return testServerOpts(t, shards, Options{Workers: 2})
}

// testServerOpts builds a server over a fresh small corpus with explicit
// options (Vocab is filled in from the generated dataset).
func testServerOpts(t *testing.T, shards int, opts Options) (*Server, *trajectory.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name:            "srv",
		Seed:            3,
		NumTrajectories: 200,
		NumVenues:       400,
		VocabSize:       150,
		RegionW:         30,
		RegionH:         30,
		Clusters:        5,
		TrajLenMean:     10,
		TrajLenStd:      4,
	})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	r, err := shard.NewRouter(ds, shard.Config{Shards: shards})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	opts.Vocab = ds.Vocab
	s := New(r, opts)
	t.Cleanup(s.Close)
	return s, ds
}

func post[T any](t *testing.T, ts *httptest.Server, path string, body any, wantStatus int) T {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d (want %d): %s", path, resp.StatusCode, wantStatus, e.Error)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	return out
}

func get[T any](t *testing.T, ts *httptest.Server, path string) T {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return out
}

// searchReqOf converts a generated query to its wire form.
func searchReqOf(q query.Query, k int, ordered bool) SearchRequest {
	req := SearchRequest{K: k, Ordered: ordered}
	for _, p := range q.Pts {
		wire := QueryPointJSON{X: p.Loc.X, Y: p.Loc.Y}
		for _, a := range p.Acts {
			wire.Acts = append(wire.Acts, int(a))
		}
		req.Points = append(req.Points, wire)
	}
	return req
}

// TestSearchMatchesEngine: HTTP search results must equal a direct
// single-index engine's on the same corpus, proving the whole wire path
// (decode → sharded search → encode) is lossless.
func TestSearchMatchesEngine(t *testing.T) {
	s, ds := testServer(t, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d, err := delta.NewDynamic(ds, delta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := d.NewEngine()
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		for _, ordered := range []bool{false, true} {
			resp, err := oracle.Search(context.Background(), query.Request{Query: q, K: 9, Ordered: ordered})
			if err != nil {
				t.Fatal(err)
			}
			want := resp.Results
			got := post[SearchResponse](t, ts, "/v1/search", searchReqOf(q, 9, ordered), http.StatusOK)
			if len(got.Results) != len(want) {
				t.Fatalf("q%d: %d results, want %d", qi, len(got.Results), len(want))
			}
			for i := range want {
				if uint32(want[i].ID) != got.Results[i].ID || want[i].Dist != got.Results[i].Dist {
					t.Fatalf("q%d result %d: got %+v want %+v", qi, i, got.Results[i], want[i])
				}
			}
			if got.Stats.ShardsSearched+got.Stats.ShardsSkipped != 4 {
				t.Fatalf("q%d: stats do not cover the 4 shards: %+v", qi, got.Stats)
			}
		}
	}
}

// TestInsertDeleteStats drives the mutation endpoints: an inserted
// trajectory becomes findable over HTTP, a deleted one disappears, and the
// stats endpoint tracks the traffic.
func TestInsertDeleteStats(t *testing.T) {
	s, ds := testServer(t, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An insert at a fresh far-away location with a distinctive activity.
	actName := ""
	for id := 0; id < ds.Vocab.Size(); id++ {
		actName = ds.Vocab.Name(trajectory.ActivityID(id))
		if actName != "" {
			break
		}
	}
	ins := post[InsertResponse](t, ts, "/v1/insert", InsertRequest{Points: []QueryPointJSON{
		{X: 1.5, Y: 2.5, Names: []string{actName}},
		{X: 1.6, Y: 2.6, Names: []string{actName}},
	}}, http.StatusOK)
	if int(ins.ID) != len(ds.Trajs) {
		t.Fatalf("insert assigned ID %d, want %d", ins.ID, len(ds.Trajs))
	}

	q := SearchRequest{K: 3, Points: []QueryPointJSON{{X: 1.5, Y: 2.5, Names: []string{actName}}}}
	res := post[SearchResponse](t, ts, "/v1/search", q, http.StatusOK)
	if len(res.Results) == 0 || res.Results[0].ID != ins.ID {
		t.Fatalf("inserted trajectory not top result: %+v", res.Results)
	}

	post[DeleteResponse](t, ts, "/v1/delete", DeleteRequest{ID: ins.ID}, http.StatusOK)
	res = post[SearchResponse](t, ts, "/v1/search", q, http.StatusOK)
	for _, r := range res.Results {
		if r.ID == ins.ID {
			t.Fatalf("deleted trajectory still served: %+v", res.Results)
		}
	}

	st := get[StatsResponse](t, ts, "/v1/stats")
	if st.Inserts != 1 || st.Deletes != 1 || st.Searches != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Index.Shards != 4 || st.Index.NextID != len(ds.Trajs)+1 {
		t.Fatalf("index stats = %+v", st.Index)
	}

	hz := get[map[string]any](t, ts, "/healthz")
	if hz["status"] != "ok" {
		t.Fatalf("healthz = %v", hz)
	}
}

// TestBadRequests pins the error contract: malformed bodies, unknown
// fields, invalid queries, unknown activities and unknown deletes.
func TestBadRequests(t *testing.T) {
	s, _ := testServer(t, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path   string
		body   string
		status int
	}{
		{"/v1/search", `{"points":[]}`, http.StatusBadRequest},                              // no query points
		{"/v1/search", `{"points":[{"x":1,"y":2}]}`, http.StatusBadRequest},                 // point without activities
		{"/v1/search", `{"nope":1}`, http.StatusBadRequest},                                 // unknown field
		{"/v1/search", `{"points":[{"x":1,"y":2,"acts":[-3]}]}`, http.StatusBadRequest},     // negative ID
		{"/v1/search", `{"points":[{"x":1,"y":2,"names":["zzz"]}]}`, http.StatusBadRequest}, // unknown name
		{"/v1/search", `not json`, http.StatusBadRequest},                                   //
		{"/v1/delete", `{"id":4000000}`, http.StatusNotFound},                               // unknown trajectory
		{"/v1/insert", `{"points":[{"x":1,"y":2,"names":["zzz"]}]}`, http.StatusBadRequest}, // unknown name
		{"/v1/insert", `{"points":[{"x":1,"y":2,"acts":[999999]}]}`, http.StatusBadRequest}, // out-of-vocab insert
		{"/v1/insert", `{"points":[]}`, http.StatusBadRequest},                              // point-less trajectory
		{"/v1/insert", `{"points":[{"x":1e999,"y":2}]}`, 0},                                 // non-finite coordinate -> decode error
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatalf("POST %s: %v", c.path, err)
		}
		resp.Body.Close()
		if c.status != 0 && resp.StatusCode != c.status {
			t.Fatalf("POST %s %q: status %d, want %d", c.path, c.body, resp.StatusCode, c.status)
		}
		if c.status == 0 && resp.StatusCode == http.StatusOK {
			t.Fatalf("POST %s %q: accepted", c.path, c.body)
		}
	}

	// Method misuse.
	if resp, err := http.Get(ts.URL + "/v1/search"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/search: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(ts.URL+"/v1/stats", "application/json", bytes.NewReader(nil)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /v1/stats: %d", resp.StatusCode)
		}
	}
}
