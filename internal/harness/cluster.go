package harness

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"slices"
	"time"

	"activitytraj/internal/cluster"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

// benchReplica is one in-process shard server: a volatile cluster node
// behind a real HTTP listener, so the router path being measured includes
// serialization and the loopback network stack.
type benchReplica struct {
	node *cluster.Node
	srv  *httptest.Server
}

// kill takes the replica off the network the hard way — the listener
// closes, in-flight and future connections fail — which is the failure the
// router's failover tier is built for.
func (r *benchReplica) kill() {
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	if r.node != nil {
		r.node.Close()
		r.node = nil
	}
}

type benchCluster struct {
	router   *cluster.Router
	replicas [][]*benchReplica // [shard][replica]
}

func (bc *benchCluster) close() {
	if bc.router != nil {
		bc.router.Close()
	}
	for _, g := range bc.replicas {
		for _, rep := range g {
			rep.kill()
		}
	}
}

// bootBenchCluster starts shards × nReplicas volatile node servers and a
// router over them. Backoff and breaker tuning are modest rather than
// test-fast: the degraded phase is supposed to show the real cost of
// failing over, not hide it.
func bootBenchCluster(ds *trajectory.Dataset, shards, nReplicas, workers int) (*benchCluster, error) {
	l, err := shard.PlanLayout(ds, shards, 0)
	if err != nil {
		return nil, fmt.Errorf("plan layout: %w", err)
	}
	bc := &benchCluster{}
	urls := make([][]string, shards)
	for si := 0; si < shards; si++ {
		var group []*benchReplica
		for ri := 0; ri < nReplicas; ri++ {
			n, _, err := cluster.OpenNode(ds, l, cluster.NodeConfig{Shard: si})
			if err != nil {
				bc.close()
				return nil, fmt.Errorf("shard %d replica %d: %w", si, ri, err)
			}
			srv := httptest.NewServer(cluster.NewNodeServer(n, server.Options{
				Workers: workers,
				Vocab:   ds.Vocab,
			}).Handler())
			group = append(group, &benchReplica{node: n, srv: srv})
			urls[si] = append(urls[si], srv.URL)
		}
		bc.replicas = append(bc.replicas, group)
	}
	r, err := cluster.NewRouter(cluster.RouterConfig{
		Topology:         cluster.TopologyOf(l, urls),
		TryTimeout:       5 * time.Second,
		Backoff:          cluster.Backoff{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
		// Replica failures are the scenario under test, not news: keep the
		// failover chatter out of the latency tables.
		ErrorLog: log.New(io.Discard, "", 0),
	})
	if err != nil {
		bc.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	bc.router = r
	return bc, nil
}

// timedRun pushes qs through the router one at a time, recording per-query
// wall time. It returns the latency list, the responses (for the exactness
// cross-check between phases), and how many answers were partial.
func timedRun(r *cluster.Router, qs []query.Query, k int) ([]time.Duration, []query.Response, int, error) {
	lats := make([]time.Duration, 0, len(qs))
	resps := make([]query.Response, 0, len(qs))
	partial := 0
	for i, q := range qs {
		start := time.Now()
		resp, err := r.Search(context.Background(), query.Request{Query: q, K: k})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("query %d: %w", i, err)
		}
		lats = append(lats, time.Since(start))
		resps = append(resps, resp)
		if resp.Partial {
			partial++
		}
	}
	return lats, resps, partial, nil
}

// sameResults reports whether two response lists carry byte-identical
// (ID, distance) result sequences.
func sameResults(a, b []query.Response) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Results) != len(b[i].Results) {
			return false
		}
		for j := range a[i].Results {
			x, y := a[i].Results[j], b[i].Results[j]
			if x.ID != y.ID || x.Dist != y.Dist {
				return false
			}
		}
	}
	return true
}

// latencySummary reports tail latency over one phase.
type latencySummary struct {
	P50, P95, P99, Max time.Duration
}

// summarize sorts ds in place.
func summarize(ds []time.Duration) latencySummary {
	if len(ds) == 0 {
		return latencySummary{}
	}
	slices.Sort(ds)
	pct := func(p float64) time.Duration { return ds[int(p*float64(len(ds)-1))] }
	return latencySummary{P50: pct(0.50), P95: pct(0.95), P99: pct(0.99), Max: ds[len(ds)-1]}
}

// Cluster measures the cluster tier's serving latency under failure: the
// same ATSQ workload runs against an in-process four-shard, two-replica
// cluster three times — all replicas healthy, one replica of every shard
// killed (failover path, answers must stay byte-identical), and finally one
// whole shard dark (degraded mode, answers marked partial). Reported as
// p50/p95/p99/max per phase; the degraded tail shows what breaker trips and
// retries cost. Not part of "all": it boots live HTTP listeners.
func (s *Suite) Cluster(w io.Writer) error {
	fmt.Fprintln(w, "Experiment: cluster tier — search latency healthy vs. degraded")
	fmt.Fprintln(w)

	// Two searches at once per node: one router search occupies a slot on
	// every shard at once, so more would only oversubscribe a small host.
	const shards, nReplicas, nodeWorkers = 4, 2, 2
	k := s.opts.K

	for _, name := range s.opts.Datasets {
		ds, err := s.Dataset(name)
		if err != nil {
			return err
		}
		qs, err := s.workload(ds, queries.Config{})
		if err != nil {
			return err
		}
		bc, err := bootBenchCluster(ds, shards, nReplicas, nodeWorkers)
		if err != nil {
			return err
		}

		run := func() ([]time.Duration, []query.Response, int, error) {
			return timedRun(bc.router, qs, k)
		}

		// Untimed warmup so node-side caches are in comparable shape for
		// every measured phase.
		if _, _, _, err := run(); err != nil {
			bc.close()
			return fmt.Errorf("%s: warmup: %w", name, err)
		}

		healthyLat, healthyResp, _, err := run()
		if err != nil {
			bc.close()
			return fmt.Errorf("%s: healthy phase: %w", name, err)
		}

		// Kill replica 0 of every shard: each shard still has a live
		// replica, so the router must fail over without losing exactness.
		for _, g := range bc.replicas {
			g[0].kill()
		}
		downLat, downResp, downPartial, err := run()
		if err != nil {
			bc.close()
			return fmt.Errorf("%s: one-replica-down phase: %w", name, err)
		}
		if !sameResults(healthyResp, downResp) {
			bc.close()
			return fmt.Errorf("%s: failover answers diverged from healthy answers", name)
		}
		if downPartial != 0 {
			bc.close()
			return fmt.Errorf("%s: %d answers marked partial with a live replica per shard", name, downPartial)
		}

		// Kill the last shard's surviving replica too: that shard is now
		// dark and the router serves degraded (partial) answers.
		bc.replicas[shards-1][1].kill()
		darkLat, _, darkPartial, err := run()
		if err != nil {
			bc.close()
			return fmt.Errorf("%s: shard-down phase: %w", name, err)
		}
		bc.close()

		tbl := NewTable(
			fmt.Sprintf("%s: router search latency (ms), %d shards x %d replicas, %d queries, k=%d",
				name, shards, nReplicas, len(qs), k),
			"scenario", "p50", "p95", "p99", "max", "partial")
		for _, row := range []struct {
			label   string
			lats    []time.Duration
			partial int
		}{
			{"all replicas healthy", healthyLat, 0},
			{"1 replica/shard down", downLat, downPartial},
			{fmt.Sprintf("shard %d dark (degraded)", shards-1), darkLat, darkPartial},
		} {
			sum := summarize(row.lats)
			tbl.AddRow(row.label,
				ms(float64(sum.P50)/float64(time.Millisecond)),
				ms(float64(sum.P95)/float64(time.Millisecond)),
				ms(float64(sum.P99)/float64(time.Millisecond)),
				ms(float64(sum.Max)/float64(time.Millisecond)),
				fmt.Sprintf("%d/%d", row.partial, len(qs)))
		}
		tbl.Write(w)
	}
	return nil
}
