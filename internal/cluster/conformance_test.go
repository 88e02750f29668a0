package cluster

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"activitytraj/internal/server"
	"activitytraj/internal/shard"
)

// TestHTTPConformance runs one table of wire-edge cases against the three
// serving tiers — the single-process server, a shard replica, and the
// router over two replicas — which share one handler set and must answer
// the common /v1 routes alike. The servers run without a vocabulary, so an
// out-of-vocabulary insert passes the wire door and faults in the index:
// the one natural server-side fault every tier can be driven into.
func TestHTTPConformance(t *testing.T) {
	ds := testDataset(t, 200)
	quiet := log.New(io.Discard, "", 0)

	sr, err := shard.NewRouter(ds, shard.Config{Shards: 2})
	if err != nil {
		t.Fatalf("single-process router: %v", err)
	}
	single := server.New(sr, server.Options{Workers: 2, ErrorLog: quiet})
	defer single.Close()
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	l := testLayout(t, ds, 2)
	urls := make([][]string, 2)
	for si := range urls {
		n, _, err := OpenNode(ds, l, NodeConfig{Shard: si})
		if err != nil {
			t.Fatalf("node %d: %v", si, err)
		}
		defer n.Close()
		ts := httptest.NewServer(NewNodeServer(n, server.Options{Workers: 2, ErrorLog: quiet}).Handler())
		defer ts.Close()
		urls[si] = []string{ts.URL}
	}
	// The background loops run so that Close (and the package's goroutine
	// leak check) covers them.
	r, err := NewRouter(RouterConfig{
		Topology:        TopologyOf(l, urls),
		ProbeInterval:   time.Millisecond,
		CatchupInterval: time.Millisecond,
		ErrorLog:        quiet,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()
	routerTS := httptest.NewServer(NewRouterServer(r, server.Options{ErrorLog: quiet}).Handler())
	defer routerTS.Close()

	const (
		search   = `{"k":3,"points":[{"x":20,"y":20,"acts":[1]}]}`
		badActs  = `"points":[{"x":20,"y":20,"acts":[1048576]}]`
		oversize = server.DefaultMaxBodyBytes + 1024
	)
	big := `{"k":3,"points":[` + strings.Repeat(`{"x":1,"y":2,"acts":[1]},`, oversize/25) + `{"x":1,"y":2,"acts":[1]}]}`
	statusText := func(code int) string {
		return fmt.Sprintf("{\"error\":%q}\n", http.StatusText(code))
	}

	type tier struct {
		name, url string
		// faultyInsert is an out-of-vocabulary insert in the tier's dialect
		// (replicas take the router-assigned gid), answered faultStatus with
		// a body faultBody accepts.
		faultyInsert string
		faultStatus  int
		faultBody    func(body string) bool
	}
	sanitized500 := func(body string) bool { return body == statusText(http.StatusInternalServerError) }
	tiers := []tier{
		{"single", singleTS.URL, `{` + badActs + `}`, http.StatusInternalServerError, sanitized500},
		{"node", urls[0][0], `{"gid":100000,` + badActs + `}`, http.StatusInternalServerError, sanitized500},
		// The documented exception: a router's 503 describes cluster
		// degradation and travels verbatim.
		{"router", routerTS.URL, `{` + badActs + `}`, http.StatusServiceUnavailable,
			func(body string) bool { return strings.Contains(body, "insert failed on every replica") }},
	}
	cases := []struct {
		name, method, path, body string
		want                     int
		wantBody                 func(body string) bool
	}{
		{"GET on search", http.MethodGet, "/v1/search", "", http.StatusMethodNotAllowed, nil},
		{"GET on insert", http.MethodGet, "/v1/insert", "", http.StatusMethodNotAllowed, nil},
		{"GET on delete", http.MethodGet, "/v1/delete", "", http.StatusMethodNotAllowed, nil},
		{"POST on stats", http.MethodPost, "/v1/stats", "{}", http.StatusMethodNotAllowed, nil},
		{"healthy search", http.MethodPost, "/v1/search", search, http.StatusOK, nil},
		{"oversize body", http.MethodPost, "/v1/search", big, http.StatusRequestEntityTooLarge, nil},
		{"unknown search field", http.MethodPost, "/v1/search", `{"k":3,"bogus":1,"points":[{"x":20,"y":20,"acts":[1]}]}`, http.StatusBadRequest, nil},
		{"unknown delete field", http.MethodPost, "/v1/delete", `{"id":1,"force":true}`, http.StatusBadRequest, nil},
		{"bad timeout", http.MethodPost, "/v1/search?timeout=nope", search, http.StatusBadRequest, nil},
		{"expired timeout", http.MethodPost, "/v1/search?timeout=1ns", search, http.StatusGatewayTimeout,
			func(body string) bool { return strings.Contains(body, `"truncated":true`) }},
	}
	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			do := func(name, method, path, body string, want int, wantBody func(string) bool) {
				t.Helper()
				req, err := http.NewRequest(method, tr.url+path, bytes.NewReader([]byte(body)))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != want || (wantBody != nil && !wantBody(string(got))) {
					t.Errorf("%s: status %d body %.300q, want %d", name, resp.StatusCode, got, want)
				}
			}
			for _, c := range cases {
				do(c.name, c.method, c.path, c.body, c.want, c.wantBody)
			}
			// Only replicas take a gid, and they require one.
			wrongGID := `{"gid":100001,"points":[{"x":20,"y":20,"acts":[1]}]}`
			if tr.name == "node" {
				wrongGID = `{"points":[{"x":20,"y":20,"acts":[1]}]}`
			}
			do("gid on the wrong tier", http.MethodPost, "/v1/insert", wrongGID, http.StatusBadRequest, nil)
			// Last: on the router this fault marks the shard's only replica
			// lagging.
			do("index fault", http.MethodPost, "/v1/insert", tr.faultyInsert, tr.faultStatus, tr.faultBody)
		})
	}
}
