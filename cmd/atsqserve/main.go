// Command atsqserve serves ATSQ/OATSQ queries over HTTP from a sharded
// activity-trajectory index: the corpus is spatially partitioned into
// -shards Z-order range shards (each with its own store, GAT index and
// delta layer), searched scatter-gather with cross-shard bound sharing, and
// kept mutable through the insert/delete endpoints.
//
//	atsqserve -data la.atrj -shards 4 -addr :8080
//	atsqserve -preset ny -scale 0.05 -shards 8
//	atsqserve -data la.atrj -data-dir /var/lib/atsq -sync group
//
// With -data-dir, mutations are durable: every insert/delete is logged to
// a per-shard write-ahead log (and a routing journal) before it is
// acknowledged, per the -sync policy (always | group | off). Killing the
// process — even uncleanly, mid-write — and restarting it with the same
// corpus and -data-dir replays the logs and serves exactly the
// acknowledged mutations; /healthz reports what the boot recovered.
//
// # Cluster modes
//
// The same binary also runs the fault-tolerant multi-process cluster
// (internal/cluster): N-way replicated shard server processes behind a
// failing-over router tier, wired together by a topology file.
//
//	atsqserve -plan-topology topo.json -data la.atrj \
//	    -shard-urls "http://h1:9001,http://h2:9001;http://h1:9002,http://h2:9002"
//	atsqserve -shard 0 -topology topo.json -data la.atrj -data-dir /var/lib/atsq/s0a -addr :9001
//	atsqserve -router   -topology topo.json -data la.atrj -addr :8080
//
// Replica URLs are comma-separated within a shard and semicolon-separated
// between shards. Every process must be given the SAME corpus and topology
// (the frozen partition layout lives in the topology file). A shard
// process's -data-dir holds its replication WAL; the router serializes
// mutations per shard so replicas stay record-identical, ships WAL
// segments to lagging replicas, and degrades searches to exact partial
// answers (X-Atsq-Partial) when every replica of a shard is down.
//
// Endpoints (JSON):
//
//	GET  /healthz        liveness + shard count + recovery/compaction health
//	POST /v1/search      {"k":9,"ordered":false,"points":[{"x":1.2,"y":3.4,"acts":[7],"names":["coffee"]}]}
//	POST /v1/insert      {"points":[{"x":1.2,"y":3.4,"acts":[7]}]} -> {"id":N}
//	POST /v1/delete      {"id":N}
//	GET  /v1/stats       serving counters + per-shard index shape + mutation epoch + subscription hub
//	POST /v1/subscribe   standing query: SSE event stream (default) or ?mode=poll
//	GET  /v1/subscribe   long-poll an existing subscription: ?id=N&from=SEQ&wait=30s
//	POST /v1/unsubscribe {"id":N}
//
// A standing query (/v1/subscribe) is maintained incrementally against the
// ingest stream: every accepted insert/delete that changes its top-k emits
// a sequence-numbered join/leave event carrying the full new top-k, exactly
// equal to re-running the search from scratch (see internal/subscribe).
//
// Every search reply carries its per-request SearchStats (candidates,
// pages, cache traffic, shards searched/skipped). Searches run under the
// HTTP request's context — a client hanging up cancels the in-flight
// scatter-gather fan-out — and accept a per-request `?timeout=DURATION`
// budget that answers 504 Gateway Timeout (with the truncated partial
// top-k) when it expires. The search body also takes the per-request
// options `initial_bound`, `region`, `with_matches` and
// `require_complete`; see internal/server.SearchRequest. SIGINT/SIGTERM
// drain in-flight requests for up to -drain-timeout before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"activitytraj"
	"activitytraj/internal/cluster"
	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/server"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atsqserve: ")

	data := flag.String("data", "", "dataset file from atsqgen (overrides -preset)")
	preset := flag.String("preset", "ny", "generate a preset dataset: la or ny")
	scale := flag.Float64("scale", 0.02, "preset scale")
	shards := flag.Int("shards", shard.DefaultShards, "number of spatial shards (single-process mode)")
	workers := flag.Int("workers", 0, "concurrent searches served (0 = GOMAXPROCS)")
	addr := flag.String("addr", ":8080", "listen address")
	compactAt := flag.Int("compact-threshold", 0, "per-shard delta mutations before background compaction (0 = default, <0 = never)")
	dataDir := flag.String("data-dir", "", "durable data directory; single-process: per-shard WALs + routing journal, -shard mode: the replica's replication WAL. Mutations survive crashes and are replayed on boot — supply the same -data/-preset corpus every boot, it is the recovery bootstrap")
	syncMode := flag.String("sync", "always", "WAL fsync policy with -data-dir: always|group|off")
	resultCache := flag.Int("result-cache", 0, "epoch-invalidated result cache entries (0 = off; hits skip the search and report only stats.ResultCacheHits)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget: how long SIGINT/SIGTERM waits for in-flight requests before exiting anyway")

	clusterShard := flag.Int("shard", -1, "cluster mode: serve ONE shard replica (this layout shard index) from -topology; -data-dir holds its replication WAL")
	routerMode := flag.Bool("router", false, "cluster mode: serve the failing-over router tier over -topology")
	topoPath := flag.String("topology", "", "cluster topology file (emit one with -plan-topology)")
	planTopo := flag.String("plan-topology", "", "plan the partition layout for this corpus, write the topology file here, and exit (requires -shard-urls)")
	shardURLs := flag.String("shard-urls", "", "with -plan-topology: replica base URLs, comma-separated within a shard, semicolon-separated between shards")
	probeEvery := flag.Duration("probe-interval", 2*time.Second, "router: background /healthz sweep period (0 disables)")
	catchupEvery := flag.Duration("catchup-interval", 5*time.Second, "router: background WAL catch-up period for lagging replicas (0 disables)")
	flag.Parse()

	modes := 0
	for _, on := range []bool{*planTopo != "", *clusterShard >= 0, *routerMode} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		log.Fatalf("pick one of -plan-topology, -shard, -router")
	}

	ds, err := dataset.LoadOrGenerate(*data, *preset, *scale)
	if err != nil {
		log.Fatalf("dataset: %v", err)
	}
	st := ds.Stats()
	log.Printf("dataset %s: %d trajectories, %d points, %d distinct activities",
		ds.Name, st.Trajectories, st.Points, st.DistinctActs)

	// Every serving mode builds the one server type over its own backend;
	// closeIndex seals the WALs (sync + close) so the next boot sees a clean
	// tail — a no-op for volatile serving stacks.
	var srv *server.Server
	var closeIndex func() error
	opts := server.Options{Workers: *workers, Vocab: ds.Vocab}
	switch {
	case *planTopo != "":
		runPlanTopology(ds, *planTopo, *shardURLs)
		return
	case *clusterShard >= 0:
		srv, closeIndex = openNode(ds, loadTopology(*topoPath), *clusterShard, *dataDir, *syncMode, *compactAt, opts)
	case *routerMode:
		srv, closeIndex = openRouter(loadTopology(*topoPath), *probeEvery, *catchupEvery, opts)
	default:
		opts.ResultCacheEntries = *resultCache
		srv, closeIndex = openSingle(ds, *shards, *compactAt, *dataDir, *syncMode, opts)
	}
	log.Printf("serving on %s", *addr)
	// Stop the subscription hub before the index: live streams end, then
	// the index closes under no observers.
	serve(*addr, srv.Handler(), *drainTimeout, func() error { srv.Close(); return closeIndex() })
}

func loadTopology(path string) cluster.Topology {
	if path == "" {
		log.Fatalf("-shard and -router require -topology")
	}
	topo, err := cluster.LoadTopology(path)
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	return topo
}

// openSingle builds the original single-process sharded server.
func openSingle(ds *trajectory.Dataset, shards, compactAt int, dataDir, syncMode string, opts server.Options) (*server.Server, func() error) {
	buildStart := time.Now()
	cfg := activitytraj.ShardedConfig{
		Shards: shards,
		Delta:  activitytraj.DynamicConfig{CompactThreshold: compactAt},
	}
	var router *activitytraj.ShardedRouter
	if dataDir != "" {
		mode, err := activitytraj.ParseSyncMode(syncMode)
		if err != nil {
			log.Fatalf("-sync: %v", err)
		}
		cfg.Durability = activitytraj.Durability{Dir: dataDir, Sync: mode}
		r, ri, err := activitytraj.OpenSharded(ds, cfg)
		if err != nil {
			log.Fatalf("open %s: %v", dataDir, err)
		}
		router = r
		opts.Recovery = &ri
		var replayed int64
		for _, sri := range ri.Shards {
			replayed += sri.Replayed
		}
		log.Printf("recovered %s: %d journal records, %d shard WAL records replayed (sync=%s)",
			dataDir, ri.JournalReplayed, replayed, mode)
		if ri.Torn || ri.Synthesized > 0 || ri.JournalRebuilt {
			log.Printf("crash repair: torn=%v synthesized=%d journal_rebuilt=%v",
				ri.Torn, ri.Synthesized, ri.JournalRebuilt)
		}
	} else {
		r, err := activitytraj.NewSharded(ds, cfg)
		if err != nil {
			log.Fatalf("build: %v", err)
		}
		router = r
	}
	log.Printf("%d shards built in %s (mutation epoch %d)", router.NumShards(),
		time.Since(buildStart).Round(time.Millisecond), router.Epoch())
	return server.New(router, opts), func() error {
		log.Printf("final mutation epoch %d", router.Epoch())
		return router.Close()
	}
}

// openNode builds one cluster shard replica's server.
func openNode(ds *trajectory.Dataset, topo cluster.Topology, si int, dataDir, syncMode string, compactAt int, opts server.Options) (*server.Server, func() error) {
	layout, err := topo.Layout()
	if err != nil {
		log.Fatalf("topology layout: %v", err)
	}
	mode, err := wal.ParseSyncMode(syncMode)
	if err != nil {
		log.Fatalf("-sync: %v", err)
	}
	buildStart := time.Now()
	node, rec, err := cluster.OpenNode(ds, layout, cluster.NodeConfig{
		Shard:      si,
		Delta:      delta.Config{CompactThreshold: compactAt},
		Durability: delta.Durability{Dir: dataDir, Sync: mode},
	})
	if err != nil {
		log.Fatalf("open shard %d: %v", si, err)
	}
	if dataDir != "" {
		log.Printf("recovered %s: %d replication records replayed through seq %d (torn=%v)",
			dataDir, rec.Replayed, rec.LastSeq, rec.Torn)
	} else {
		log.Printf("volatile replica (no -data-dir): mutations will not survive a restart")
	}
	log.Printf("shard %d/%d replica built in %s (%d trajectories)",
		si, layout.NumShards(), time.Since(buildStart).Round(time.Millisecond), node.Trajectories())
	return cluster.NewNodeServer(node, opts), node.Close
}

// openRouter builds the cluster's failing-over router tier.
func openRouter(topo cluster.Topology, probeEvery, catchupEvery time.Duration, opts server.Options) (*server.Server, func() error) {
	r, err := cluster.NewRouter(cluster.RouterConfig{
		Topology:        topo,
		ProbeInterval:   probeEvery,
		CatchupInterval: catchupEvery,
	})
	if err != nil {
		log.Fatalf("router boot: %v", err)
	}
	log.Printf("routing %d shards", r.NumShards())
	return cluster.NewRouterServer(r, opts), r.Close
}

// runPlanTopology plans the partition layout and writes the topology file.
func runPlanTopology(ds *trajectory.Dataset, out, urls string) {
	groups, err := parseShardURLs(urls)
	if err != nil {
		log.Fatalf("-shard-urls: %v", err)
	}
	l, err := shard.PlanLayout(ds, len(groups), 0)
	if err != nil {
		log.Fatalf("plan layout: %v", err)
	}
	topo := cluster.TopologyOf(l, groups)
	if err := topo.Save(out); err != nil {
		log.Fatalf("write %s: %v", out, err)
	}
	log.Printf("wrote %s: %d shards, depth %d", out, l.NumShards(), l.PartitionDepth())
}

// parseShardURLs splits "a,b;c,d" into [[a b] [c d]].
func parseShardURLs(s string) ([][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty (want \"url,url;url,url\" — commas within a shard, semicolons between shards)")
	}
	var groups [][]string
	for _, g := range strings.Split(s, ";") {
		var urls []string
		for _, u := range strings.Split(g, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("shard %d has no replica URLs", len(groups))
		}
		groups = append(groups, urls)
	}
	return groups, nil
}

// inflightHandler counts requests currently being served, so the drain
// deadline can report what it abandoned.
type inflightHandler struct {
	h http.Handler
	n atomic.Int64
}

func (t *inflightHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t.n.Add(1)
	defer t.n.Add(-1)
	t.h.ServeHTTP(w, r)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests for up to drain before closing the serving stack.
func serve(addr string, handler http.Handler, drain time.Duration, closeStack func() error) {
	tracked := &inflightHandler{h: handler}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           tracked,
		ReadHeaderTimeout: 10 * time.Second,
		// A stalled reader must not hold a response open indefinitely (the
		// handler returns its engine to the pool before writing, but the
		// connection itself is still a resource).
		WriteTimeout: 60 * time.Second,
		IdleTimeout:  120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, drain in-flight requests for up to
	// the -drain-timeout budget.
	log.Printf("shutting down (draining in-flight requests, budget %s)", drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("drain timeout after %s: %d requests still in flight, exiting anyway",
				drain, tracked.n.Load())
		} else {
			log.Fatalf("shutdown: %v", err)
		}
	}
	if err := closeStack(); err != nil {
		log.Fatalf("close: %v", err)
	}
	log.Printf("bye")
}
