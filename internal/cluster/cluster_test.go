package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"activitytraj/internal/delta"
	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

func postTestJSON(url string, body map[string]any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return http.Post(url, "application/json", bytes.NewReader(data))
}

// flakyHandler fronts a node server with a kill switch: while down, every
// request answers 503 — the transient class the router fails over on.
type flakyHandler struct {
	h    http.Handler
	down atomic.Bool
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"replica down (test)"}`))
		return
	}
	f.h.ServeHTTP(w, r)
}

type testReplica struct {
	node  *Node
	flaky *flakyHandler
	srv   *httptest.Server
}

type testCluster struct {
	layout   *shard.Layout
	replicas [][]*testReplica // [shard][replica]
	router   *Router
}

func (tc *testCluster) close() {
	if tc.router != nil {
		tc.router.Close()
	}
	for _, g := range tc.replicas {
		for _, rep := range g {
			rep.srv.Close()
			rep.node.Close()
		}
	}
}

// startCluster boots shards × nReplicas node servers (volatile unless dirs
// is non-nil, which must then hold one WAL directory per replica) and a
// router over them, tuned for fast tests: millisecond backoff, short
// breaker cooldown, no background loops (tests drive Probe/CatchUp).
func startCluster(t *testing.T, ds *trajectory.Dataset, shards, nReplicas int, dirs [][]string) *testCluster {
	t.Helper()
	l := testLayout(t, ds, shards)
	tc := &testCluster{layout: l}
	urls := make([][]string, shards)
	for si := 0; si < shards; si++ {
		var group []*testReplica
		for ri := 0; ri < nReplicas; ri++ {
			cfg := NodeConfig{Shard: si}
			if dirs != nil {
				cfg.Durability.Dir = dirs[si][ri]
			}
			n, _, err := OpenNode(ds, l, cfg)
			if err != nil {
				t.Fatalf("shard %d replica %d: %v", si, ri, err)
			}
			ns := NewNodeServer(n, server.Options{Workers: 2, Vocab: ds.Vocab})
			fh := &flakyHandler{h: ns.Handler()}
			srv := httptest.NewServer(fh)
			group = append(group, &testReplica{node: n, flaky: fh, srv: srv})
			urls[si] = append(urls[si], srv.URL)
		}
		tc.replicas = append(tc.replicas, group)
	}
	r, err := NewRouter(RouterConfig{
		Topology:         TopologyOf(l, urls),
		TryTimeout:       5 * time.Second,
		Backoff:          Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond},
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	tc.router = r
	t.Cleanup(tc.close)
	return tc
}

// refDynamic builds the single-index oracle over the same corpus.
func refDynamic(t *testing.T, ds *trajectory.Dataset) *delta.Dynamic {
	t.Helper()
	d, err := delta.NewDynamic(ds, delta.Config{})
	if err != nil {
		t.Fatalf("reference index: %v", err)
	}
	return d
}

func routerSearch(t *testing.T, r *Router, q query.Query, k int) query.Response {
	t.Helper()
	resp, err := r.Search(context.Background(), query.Request{Query: q, K: k})
	if err != nil {
		t.Fatalf("router search: %v", err)
	}
	return resp
}

// TestClusterMatchesSingleIndex pins the tentpole exactness contract: with
// every replica healthy, the network scatter-gather answers byte-identical
// to the unpartitioned single index — ATSQ and OATSQ, and matches too.
func TestClusterMatchesSingleIndex(t *testing.T) {
	ds := testDataset(t, 300)
	tc := startCluster(t, ds, 3, 2, nil)
	ref := refDynamic(t, ds).NewEngine()

	for qi, q := range testWorkload(t, ds, 30) {
		for _, ordered := range []bool{false, true} {
			want, err := ref.Search(context.Background(), query.Request{Query: q, K: 10, Ordered: ordered})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := tc.router.Search(context.Background(), query.Request{Query: q, K: 10, Ordered: ordered})
			if err != nil {
				t.Fatalf("query %d (ordered=%v): %v", qi, ordered, err)
			}
			if got.Partial {
				t.Fatalf("query %d: partial with all replicas healthy", qi)
			}
			requireSameResults(t, "healthy cluster", want.Results, got.Results)
		}
		// K < 1 is K = 1 on every tier (the query.Request.K contract): the
		// router neither rejects it nor lets nodes default it to DefaultK.
		want, err := ref.Search(context.Background(), query.Request{Query: q, K: 1})
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := tc.router.Search(context.Background(), query.Request{Query: q, K: 0})
		if err != nil {
			t.Fatalf("query %d (k=0): %v", qi, err)
		}
		requireSameResults(t, "k=0", want.Results, got.Results)
	}

	// Matches survive the network round-trip.
	q := testWorkload(t, ds, 1)[0]
	want, err := ref.Search(context.Background(), query.Request{Query: q, K: 5, WithMatches: true})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := tc.router.Search(context.Background(), query.Request{Query: q, K: 5, WithMatches: true})
	if err != nil {
		t.Fatalf("matches query: %v", err)
	}
	requireSameResults(t, "matches", want.Results, got.Results)
	if len(got.Matches) != len(got.Results) {
		t.Fatalf("matches for %d of %d results", len(got.Matches), len(got.Results))
	}
	for i := range want.Matches {
		if len(want.Matches[i]) != len(got.Matches[i]) {
			t.Fatalf("result %d: %d match lists, want %d", i, len(got.Matches[i]), len(want.Matches[i]))
		}
		for pi := range want.Matches[i] {
			if len(want.Matches[i][pi]) != len(got.Matches[i][pi]) {
				t.Fatalf("result %d point %d: matches differ", i, pi)
			}
			for mi := range want.Matches[i][pi] {
				if want.Matches[i][pi][mi] != got.Matches[i][pi][mi] {
					t.Fatalf("result %d point %d: matches differ", i, pi)
				}
			}
		}
	}

	// Subtrajectory answers — distances, covers, and the winning spans the
	// router re-derives from wire matches — survive the network round-trip
	// byte-identically.
	for _, ordered := range []bool{false, true} {
		req := query.Request{
			Query: q, K: 5, Ordered: ordered,
			Subtrajectory: true, MaxSpanPoints: 10, WithMatches: true,
		}
		want, err := ref.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("reference subtrajectory (ordered=%v): %v", ordered, err)
		}
		got, err := tc.router.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("cluster subtrajectory (ordered=%v): %v", ordered, err)
		}
		requireSameResults(t, "subtrajectory", want.Results, got.Results)
		if len(got.Spans) != len(got.Results) {
			t.Fatalf("ordered=%v: %d spans for %d results", ordered, len(got.Spans), len(got.Results))
		}
		if !reflect.DeepEqual(want.Matches, got.Matches) {
			t.Fatalf("ordered=%v: subtrajectory covers differ\nref    : %v\ncluster: %v", ordered, want.Matches, got.Matches)
		}
		if !reflect.DeepEqual(want.Spans, got.Spans) {
			t.Fatalf("ordered=%v: subtrajectory spans differ\nref    : %v\ncluster: %v", ordered, want.Spans, got.Spans)
		}
	}

	// Malformed span limits are rejected at the router, matching the
	// single-index validation.
	if _, err := tc.router.Search(context.Background(), query.Request{
		Query: q, K: 5, Subtrajectory: true, MinSpanPoints: 8, MaxSpanPoints: 2,
	}); err == nil {
		t.Fatal("router accepted min span > max span")
	}
}

// TestClusterFailoverOneReplicaDown pins the robustness core: with one
// replica of EVERY shard down mid-workload, every query still succeeds
// byte-identically (failover, not degradation) — and the same holds when
// the replica dies with connection-refused instead of a clean 503.
func TestClusterFailoverOneReplicaDown(t *testing.T) {
	ds := testDataset(t, 300)
	tc := startCluster(t, ds, 2, 2, nil)
	ref := refDynamic(t, ds).NewEngine()
	qs := testWorkload(t, ds, 20)

	// Phase 1: replica 0 of each shard answers 503.
	for _, g := range tc.replicas {
		g[0].flaky.down.Store(true)
	}
	for qi, q := range qs[:10] {
		want, _ := ref.Search(context.Background(), query.Request{Query: q, K: 10})
		got := routerSearch(t, tc.router, q, 10)
		if got.Partial {
			t.Fatalf("query %d: partial despite a live replica per shard", qi)
		}
		requireSameResults(t, "failover-503", want.Results, got.Results)
	}

	// Phase 2: the same replicas hard-killed (connection refused).
	for _, g := range tc.replicas {
		g[0].flaky.down.Store(false)
		g[0].srv.Close()
	}
	for _, q := range qs[10:] {
		want, _ := ref.Search(context.Background(), query.Request{Query: q, K: 10})
		got := routerSearch(t, tc.router, q, 10)
		if got.Partial {
			t.Fatal("partial despite a live replica per shard")
		}
		requireSameResults(t, "failover-refused", want.Results, got.Results)
	}
}

// TestClusterWholeShardDown pins graceful degradation: when every replica
// of one shard is down, answers are partial — Partial set, ShardsFailed
// counting the dead shard, results the EXACT top-k over the surviving
// shards — and RequireComplete fails closed instead.
func TestClusterWholeShardDown(t *testing.T) {
	ds := testDataset(t, 300)
	tc := startCluster(t, ds, 2, 2, nil)
	for _, rep := range tc.replicas[1] {
		rep.flaky.down.Store(true)
	}
	// The surviving shard's node is the oracle for the partial answer.
	survivor := tc.replicas[0][0].node

	sawFailure := false
	for qi, q := range testWorkload(t, ds, 20) {
		got := routerSearch(t, tc.router, q, 10)
		planned := got.Stats.ShardsFailed > 0
		if planned {
			sawFailure = true
			if !got.Partial {
				t.Fatalf("query %d: shard failed but Partial unset", qi)
			}
			if got.Stats.ShardsFailed != 1 {
				t.Fatalf("query %d: ShardsFailed = %d, want 1", qi, got.Stats.ShardsFailed)
			}
			want := searchNode(t, survivor, q, 10)
			requireSameResults(t, "degraded", want, got.Results)

			// The same query demanding completeness fails closed.
			_, err := tc.router.Search(context.Background(), query.Request{Query: q, K: 10, RequireComplete: true})
			var inc *IncompleteError
			if !errors.As(err, &inc) {
				t.Fatalf("query %d: RequireComplete got %v, want IncompleteError", qi, err)
			}
			if inc.Shard != 1 {
				t.Fatalf("query %d: IncompleteError.Shard = %d, want 1", qi, inc.Shard)
			}
		} else if got.Partial {
			t.Fatalf("query %d: Partial set but no shard failed", qi)
		}
	}
	if !sawFailure {
		t.Fatal("test never planned the dead shard; workload too narrow")
	}
}

// TestClusterBreakerLifecycle pins the circuit walk on a live cluster: a
// flapping sole replica trips its breaker open (searches degrade), the
// cooldown admits a half-open probe, and a healthy reply closes it again
// (searches complete).
func TestClusterBreakerLifecycle(t *testing.T) {
	ds := testDataset(t, 200)
	tc := startCluster(t, ds, 2, 1, nil)
	q := testWorkload(t, ds, 1)[0]

	full := routerSearch(t, tc.router, q, 10)
	if full.Partial {
		t.Fatal("healthy cluster answered partial")
	}

	// Flap shard 1's only replica: searches planning it now degrade, and
	// after BreakerThreshold failures its breaker opens.
	tc.replicas[1][0].flaky.down.Store(true)
	for i := 0; i < 3; i++ {
		resp := routerSearch(t, tc.router, q, 10)
		if resp.Stats.ShardsFailed > 0 && !resp.Partial {
			t.Fatal("failed shard without Partial")
		}
	}
	if st := tc.router.Replicas()[1][0].State; st != "open" {
		t.Fatalf("breaker state %q after repeated failures, want open", st)
	}
	// While open, the replica isn't even tried: still partial, instantly.
	if resp := routerSearch(t, tc.router, q, 10); resp.Stats.ShardsFailed == 0 && resp.Partial {
		t.Fatal("inconsistent partial state")
	}

	// Heal the replica; once the cooldown elapses the next search admits
	// exactly one half-open probe, which succeeds and closes the breaker.
	tc.replicas[1][0].flaky.down.Store(false)
	time.Sleep(60 * time.Millisecond)
	resp := routerSearch(t, tc.router, q, 10)
	if resp.Partial {
		t.Fatal("healed replica should serve again after cooldown")
	}
	if st := tc.router.Replicas()[1][0].State; st != "closed" {
		t.Fatalf("breaker state %q after successful probe, want closed", st)
	}
	requireSameResults(t, "healed", full.Results, resp.Results)
}

// TestClusterMutationsAndCatchup pins the replication lifecycle end to end:
// inserts through the router mirror the single index (same dense gids),
// a replica that misses mutations goes lagging and serves no reads, WAL
// catch-up converges it, and afterwards it can serve the whole corpus alone.
func TestClusterMutationsAndCatchup(t *testing.T) {
	ds := testDataset(t, 200)
	dirs := [][]string{{t.TempDir(), t.TempDir()}}
	tc := startCluster(t, ds, 1, 2, dirs)
	ref := refDynamic(t, ds)
	qs := testWorkload(t, ds, 10)
	ctx := context.Background()

	donors := make([]trajectory.TrajID, 0, 6)
	for gid := range ds.Trajs {
		if len(ds.Trajs[gid].Pts) > 0 {
			donors = append(donors, trajectory.TrajID(gid))
		}
		if len(donors) == 6 {
			break
		}
	}

	// Half the inserts with both replicas healthy.
	for _, gid := range donors[:3] {
		got, err := tc.router.Insert(ctx, ds.Trajs[gid].Pts)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		want, err := ref.Insert(trajectory.Trajectory{Pts: ds.Trajs[gid].Pts})
		if err != nil {
			t.Fatalf("reference insert: %v", err)
		}
		if got != want {
			t.Fatalf("router assigned gid %d, single index %d", got, want)
		}
	}
	// Replica 1 dies; the rest of the mutations only reach replica 0.
	tc.replicas[0][1].flaky.down.Store(true)
	for _, gid := range donors[3:] {
		got, err := tc.router.Insert(ctx, ds.Trajs[gid].Pts)
		if err != nil {
			t.Fatalf("insert with replica down: %v", err)
		}
		want, _ := ref.Insert(trajectory.Trajectory{Pts: ds.Trajs[gid].Pts})
		if got != want {
			t.Fatalf("router assigned gid %d, single index %d", got, want)
		}
	}
	if err := tc.router.Delete(ctx, donors[0]); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := ref.Delete(donors[0]); err != nil {
		t.Fatalf("reference delete: %v", err)
	}
	if !tc.router.Replicas()[0][1].Lagging {
		t.Fatal("failed replica should be marked lagging")
	}

	// Reads keep matching the single index throughout (served by replica 0;
	// the lagging replica is excluded).
	re := ref.NewEngine()
	for _, q := range qs {
		want, _ := re.Search(ctx, query.Request{Query: q, K: 10})
		got := routerSearch(t, tc.router, q, 10)
		requireSameResults(t, "during lag", want.Results, got.Results)
	}

	// The replica heals; catch-up ships the missed WAL suffix and clears
	// the lagging flag.
	tc.replicas[0][1].flaky.down.Store(false)
	tc.router.CatchUp(ctx)
	st := tc.router.Replicas()[0][1]
	if st.Lagging {
		t.Fatal("catch-up did not clear the lagging flag")
	}
	a, b := tc.replicas[0][0].node.LastSeq(), tc.replicas[0][1].node.LastSeq()
	if a != b {
		t.Fatalf("replicas at seq %d vs %d after catch-up", a, b)
	}

	// Kill the replica that saw everything: the caught-up one must now
	// serve the complete corpus byte-identically on its own.
	tc.replicas[0][0].flaky.down.Store(true)
	for _, q := range qs {
		want, _ := re.Search(ctx, query.Request{Query: q, K: 10})
		got := routerSearch(t, tc.router, q, 10)
		if got.Partial {
			t.Fatal("caught-up replica should serve completely")
		}
		requireSameResults(t, "after catch-up", want.Results, got.Results)
	}

	// A deleted trajectory deletes as not-found; a fresh one round-trips.
	if err := tc.router.Delete(ctx, trajectory.TrajID(1<<30)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown: %v, want ErrNotFound", err)
	}
}

// TestRouterServerWire pins the HTTP surface: partial answers carry the
// X-Atsq-Partial header, require_complete maps to 503, unknown fields and
// oversized bodies are rejected at the door.
func TestRouterServerWire(t *testing.T) {
	ds := testDataset(t, 200)
	tc := startCluster(t, ds, 2, 1, nil)
	rs := NewRouterServer(tc.router, server.Options{Vocab: ds.Vocab})
	front := httptest.NewServer(rs.Handler())
	defer front.Close()

	q := testWorkload(t, ds, 1)[0]
	var pts []map[string]any
	for _, p := range q.Pts {
		acts := make([]int, 0, len(p.Acts))
		for _, a := range p.Acts {
			acts = append(acts, int(a))
		}
		pts = append(pts, map[string]any{"x": p.Loc.X, "y": p.Loc.Y, "acts": acts})
	}
	post := func(body map[string]any) *http.Response {
		t.Helper()
		resp, err := postTestJSON(front.URL+"/v1/search", body)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		return resp
	}

	// Healthy: 200, no partial header.
	resp := post(map[string]any{"k": 5, "points": pts})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Atsq-Partial") != "" {
		t.Fatalf("healthy: status %d partial %q", resp.StatusCode, resp.Header.Get("X-Atsq-Partial"))
	}
	resp.Body.Close()

	// Kill shard 1 entirely. Partial searches mark the header; demanding
	// completeness gets 503.
	tc.replicas[1][0].flaky.down.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp = post(map[string]any{"k": 5, "points": pts})
		marked := resp.Header.Get("X-Atsq-Partial") == "1"
		resp.Body.Close()
		if marked {
			break
		}
		// This query may not plan shard 1; widen with a second opinion until
		// the planner touches the dead shard.
		if time.Now().After(deadline) {
			t.Skip("workload never planned the dead shard")
		}
	}
	resp = post(map[string]any{"k": 5, "points": pts, "require_complete": true})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("require_complete over dead shard: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown fields are rejected.
	resp = post(map[string]any{"k": 5, "points": pts, "bogus": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}
