package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

// workload is one traffic mix and the server configuration it runs against.
type workload struct {
	name string
	// store sizes each shard's buffer pool and decoded caches (zero = the
	// library defaults, which hold a whole shard).
	store evaluate.TrajStoreConfig
	// resultCache enables the server's result cache with that many entries.
	resultCache int
	// searchRate is the open-loop search arrival rate per second; zipfS > 0
	// draws the searches Zipf(zipfS) over the pool instead of sending the
	// pool once per round.
	searchRate float64
	zipfS      float64
	// mutationRate > 0 makes the router durable, registers standing queries
	// and sends that many mutations per second beside the searches.
	mutationRate     float64
	compactThreshold int
}

// A run measures in rounds: one pass of the arrival schedule (roundSeconds
// of open loop), then closed-loop passes. On this shared box CPU throughput
// wanders by ±15 % over seconds, and interference only ever slows a request
// down, so every metric is a best-of reading and the rounds spread each
// metric's readings over the whole run. At searchRate a round of the three
// uniform workloads sends every pool request exactly once, so their
// percentiles are taken over the same population on every seed.
const (
	defaultSeconds = 15
	roundSeconds   = 2.5
	searchRate     = numSessions * sessionLen / roundSeconds // 40/s
	hotRate        = 500
	mutationRate   = 20
	deleteShare    = 0.1

	// A shard holds about 790 trajectories on about 185 pages; search_spill
	// gives its caches a third of each.
	spillEntries = 256
	spillPages   = 64

	closedPerRound = 2 // closed-loop passes after each open-loop pass
)

var workloads = []workload{
	{name: "search_fit", searchRate: searchRate},
	{name: "search_spill", searchRate: searchRate, store: evaluate.TrajStoreConfig{
		PoolPages: spillPages, APLCacheEntries: spillEntries, CoordCacheEntries: spillEntries}},
	{name: "search_hot", searchRate: hotRate, zipfS: 1.3, resultCache: 1024},
	{name: "ingest_watch", searchRate: searchRate, mutationRate: mutationRate, compactThreshold: 24},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func (wl workload) mutates() bool { return wl.mutationRate > 0 }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64
	// outDir receives the span file of a traced run and holds the durable
	// data directory while ingest_watch runs.
	outDir string
	log    io.Writer
}

// round is one pass of the arrival schedule and the closed-loop passes that
// follow it.
type round struct {
	open   []op
	closed [][]op
}

// run is the state of one workload run.
type run struct {
	cfg runConfig
	wl  workload
	in  *inputs
	st  *stack
	rng *rand.Rand
	// want holds, per pool request, the "results" array an unsharded
	// gat.Engine over the same corpus answers (read-only workloads).
	want [][]byte

	rounds []round
	warm   []op

	insertBodies [][]byte // per stream index, marshalled once

	mu     sync.Mutex
	acked  []trajectory.TrajID // inserted and not yet chosen for deletion
	delRng *rand.Rand
	nIns   int
	nDel   int

	attempted int
	failed    int
	non2xx    int
	failures  []string
	metrics   map[string]metric
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.cfg.log, format+"\n", args...) }

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// plan builds the seeded schedules, round by round. A uniform workload's
// round sends the pool once, its sessions interleaved anew; search_hot's
// draws Zipf. A closed-loop pass is a fixed piece of work: every second pool
// request in the first round's order, or the first round's Zipf draws. On
// ingest_watch mutations join the arrival schedule merged by due time, and a
// round has one longer closed-loop pass of three fresh mutations per search
// (long enough to average over the compactions it triggers, few enough
// searches that the ingest stream lasts the run).
func (r *run) plan() {
	wl := r.wl
	// A round lasts as long as the pool takes at the workload's rate.
	roundLen := float64(len(r.in.pool)) / wl.searchRate
	if wl.zipfS > 0 {
		roundLen = roundSeconds
	}
	nRounds := max(1, int(r.cfg.seconds/roundLen+0.5))
	perRound := int(wl.searchRate*roundLen + 0.5)
	order := interleave(r.rng)
	r.warm = searchOps(order, 0)

	// The ingest stream in seeded order.
	var perm []int
	if wl.mutates() {
		perm = r.rng.Perm(len(r.in.stream))
		r.insertBodies = make([][]byte, len(r.in.stream))
	}
	mutation := func(due time.Duration) (op, bool) {
		// A delete needs an acknowledged insert to aim at; ten scheduled
		// inserts ahead of it is half a second of head start.
		if len(perm) <= len(r.in.stream)-10 && r.rng.Float64() < deleteShare {
			return op{kind: opDelete, due: due}, true
		}
		if len(perm) == 0 {
			return op{}, false
		}
		si := perm[0]
		perm = perm[1:]
		r.insertBodies[si] = insertBody(r.in.stream[si])
		return op{kind: opInsert, ref: si, due: due}, true
	}

	var pass []int // the searches of a closed-loop pass, fixed by the first round
	for n := 0; n < nRounds; n++ {
		searches := order
		switch {
		case wl.zipfS > 0:
			searches = zipfDraws(r.rng, wl.zipfS, perRound)
			if n == 0 {
				pass = searches
			}
		case n == 0:
			for i := 0; i < len(order); i += 2 {
				pass = append(pass, order[i])
			}
		default:
			searches = interleave(r.rng)
		}
		rd := round{open: searchOps(searches, wl.searchRate)}
		if !wl.mutates() {
			for i := 0; i < closedPerRound; i++ {
				rd.closed = append(rd.closed, searchOps(pass, 0))
			}
			r.rounds = append(r.rounds, rd)
			continue
		}
		for i := 0; i < int(wl.mutationRate*roundLen+0.5); i++ {
			if m, ok := mutation(time.Duration(float64(i) / wl.mutationRate * float64(time.Second))); ok {
				rd.open = append(rd.open, m)
			}
		}
		sort.SliceStable(rd.open, func(i, j int) bool { return rd.open[i].due < rd.open[j].due })
		var mixed []op
		for j := 0; j < len(pass)*closedPerRound; j += 3 {
			for k := 0; k < 3; k++ {
				if m, ok := mutation(0); ok {
					mixed = append(mixed, m)
				}
			}
			mixed = append(mixed, op{kind: opSearch, ref: pass[j%len(pass)]})
		}
		rd.closed = [][]op{mixed}
		r.rounds = append(r.rounds, rd)
	}
}

func searchOps(refs []int, rate float64) []op {
	ops := make([]op, len(refs))
	for i, ref := range refs {
		ops[i] = op{kind: opSearch, ref: ref}
		if rate > 0 {
			ops[i].due = time.Duration(float64(i) / rate * float64(time.Second))
		}
	}
	return ops
}

// do sends one op. Insert replies are parsed here because a later delete
// must name an acknowledged ID.
func (r *run) do(conn int, o op) (int, []byte, error) {
	switch o.kind {
	case opInsert:
		status, body, err := r.st.post(conn, "/v1/insert", r.insertBodies[o.ref])
		if err == nil && status == http.StatusOK {
			var reply server.InsertResponse
			if err = json.Unmarshal(body, &reply); err == nil {
				r.mu.Lock()
				r.acked = append(r.acked, trajectory.TrajID(reply.ID))
				r.nIns++
				r.mu.Unlock()
			}
		}
		return status, body, err
	case opDelete:
		r.mu.Lock()
		if len(r.acked) == 0 {
			r.mu.Unlock()
			return 0, nil, fmt.Errorf("delete scheduled before any insert was acknowledged")
		}
		i := r.delRng.Intn(len(r.acked))
		victim := r.acked[i]
		r.acked[i] = r.acked[len(r.acked)-1]
		r.acked = r.acked[:len(r.acked)-1]
		r.mu.Unlock()
		body, _ := json.Marshal(server.DeleteRequest{ID: uint32(victim)})
		status, reply, err := r.st.post(conn, "/v1/delete", body)
		if err == nil && status == http.StatusOK {
			r.mu.Lock()
			r.nDel++
			r.mu.Unlock()
		}
		return status, reply, err
	}
	return r.st.post(conn, "/v1/search", r.in.pool[o.ref].body)
}

// account counts every sample as attempted and the bad ones as failed:
// transport errors and timeouts, non-2xx replies, and — on the read-only
// workloads — any answer that differs from the oracle's.
func (r *run) account(phase string, samples []sample) {
	for i, s := range samples {
		r.attempted++
		switch {
		case s.err != nil:
			r.fail("%s: %v", phase, s.err)
		case s.status < 200 || s.status > 299:
			r.non2xx++
			r.fail("%s: status %d: %s", phase, s.status, bytes.TrimSpace(s.body))
		case s.op.kind == opSearch && r.want != nil && r.want[s.op.ref] != nil:
			got, _, err := searchResults(s.body)
			if err != nil {
				r.fail("%s: %v", phase, err)
			} else if !bytes.Equal(got, r.want[s.op.ref]) {
				r.fail("%s: request %d: got %s want %s", phase, s.op.ref, got, r.want[s.op.ref])
			}
		}
		if s.op.kind == opSearch {
			samples[i].body = nil // checked; keep the measured heap to the system's own
		}
	}
}

// oracle answers every pool request with an unsharded gat.Engine over the
// base corpus.
func (r *run) oracle() error {
	start := time.Now()
	ts, err := evaluate.BuildTrajStore(r.in.base, evaluate.TrajStoreConfig{})
	if err != nil {
		return err
	}
	idx, err := gat.Build(ts, gat.Config{})
	if err != nil {
		return err
	}
	reqs := make([]query.Request, len(r.in.pool))
	for i, p := range r.in.pool {
		reqs[i] = p.req
	}
	resps, err := query.NewParallelEngine(gat.NewEngine(idx), runtime.GOMAXPROCS(0)).SearchAll(context.Background(), reqs)
	if err != nil {
		return err
	}
	r.want = make([][]byte, len(resps))
	for i, resp := range resps {
		r.want[i] = wantResults(resp)
	}
	r.logf("oracle_s %.3f", time.Since(start).Seconds())
	return nil
}

// dataDir is where a mutating workload's router is durable; the read-only
// workloads' routers live in memory.
func (r *run) dataDir() string {
	if !r.wl.mutates() {
		return ""
	}
	return filepath.Join(r.cfg.outDir, "data")
}

// setUp brings the stack from inputs in memory to ready: router built and
// listening, standing queries registered, every distinct request answered
// once. Subscribing seeds each standing query with a search of its own, so
// ingest_watch needs no separate warm-up.
func (r *run) setUp() error {
	start := time.Now()
	nconn := runtime.GOMAXPROCS(0)
	st, err := startStack(r.wl, r.in.base, r.dataDir(), nconn, log.New(r.cfg.log, "", 0))
	if err != nil {
		return err
	}
	r.st = st
	if r.wl.mutates() {
		reqs := make([]query.Request, len(r.in.pool))
		for i, p := range r.in.pool {
			reqs[i] = p.req
		}
		if err := st.subscribeAll(reqs); err != nil {
			return err
		}
	} else {
		samples, _ := runClosed(r.warm, nconn, r.do)
		r.account("warm-up", samples)
	}
	if !r.cfg.trace {
		r.set("setup_s", time.Since(start).Seconds(), "s")
	}
	return nil
}

// latencies returns the sorted latencies in ms of the samples keep selects.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, millis(s.latency()))
		}
	}
	sort.Float64s(out)
	return out
}

// bestPerRequest returns, sorted, the lowest latency in ms each distinct
// search keep selects saw among its sends. Interference on a shared box only
// ever adds to a latency, so the best of a request's sends is the least
// disturbed reading of what that request costs at this arrival rate.
func bestPerRequest(samples []sample, keep func(sample) bool) []float64 {
	best := map[int]float64{}
	for _, s := range samples {
		if !keep(s) {
			continue
		}
		if ms, seen := best[s.op.ref]; !seen || millis(s.latency()) < ms {
			best[s.op.ref] = millis(s.latency())
		}
	}
	out := make([]float64, 0, len(best))
	for _, ms := range best {
		out = append(out, ms)
	}
	sort.Float64s(out)
	return out
}

func (r *run) isWhole(s sample) bool {
	return s.op.kind == opSearch && r.in.pool[s.op.ref].class != classSubtraj
}

func (r *run) isSubtraj(s sample) bool {
	return s.op.kind == opSearch && r.in.pool[s.op.ref].class == classSubtraj
}

// runRounds runs the planned rounds and returns the arrival schedule's
// samples and every closed-loop pass's rate in requests per second.
func (r *run) runRounds() (open []sample, rates []float64) {
	nconn := len(r.st.conns)
	var maxLate time.Duration
	for _, rd := range r.rounds {
		samples := runOpen(rd.open, nconn, r.do)
		r.account("open loop", samples)
		for _, s := range samples {
			maxLate = max(maxLate, s.late)
		}
		open = append(open, samples...)
		for _, pass := range rd.closed {
			closed, elapsed := runClosed(pass, nconn, r.do)
			r.account("closed loop", closed)
			rates = append(rates, float64(len(closed))/elapsed.Seconds())
		}
		if r.wl.mutates() {
			// A closed-loop pass writes as fast as it can; let the hub and
			// the compactions it queued drain before the next arrival pass.
			r.st.srv.Hub().Sync()
			if err := r.st.quiesce(); err != nil {
				r.fail("%v", err)
			}
		}
	}
	all := latencies(open, r.isWhole)
	r.logf("open loop: %d requests in %d rounds, generator at most %.2f ms late; over all %d whole-trajectory sends p50 %.3f p95 %.3f p99 %.3f ms",
		len(open), len(r.rounds), millis(maxLate), len(all), percentile(all, 50), percentile(all, 95), percentile(all, 99))
	r.logf("closed loop: %d passes, requests/s %.1f", len(rates), rates)
	return open, rates
}

// measure is the untraced run: the rounds, then the live heap after forced
// collections.
func (r *run) measure() {
	samples, rates := r.runRounds()
	whole, sub := bestPerRequest(samples, r.isWhole), bestPerRequest(samples, r.isSubtraj)
	if _, err := guardedPercentile(whole, 50); err != nil {
		r.logf("warning: search_p50_ms: %v", err) // short runs only
	}
	r.set("search_p50_ms", percentile(whole, 50), "ms")
	r.logf("best send per request: whole-trajectory p50 %.3f p95 %.3f ms (%d requests), subtrajectory p50 %.3f ms (%d requests)",
		percentile(whole, 50), percentile(whole, 95), len(whole), percentile(sub, 50), len(sub))
	r.ingestLatencies(samples)
	sort.Float64s(rates)
	r.set("closed_qps", rates[len(rates)-1], "1/s")

	// With no compaction in flight and every engine moved on to the current
	// generation — the server's pool is a FIFO, so consecutive searches walk
	// it, and a throwaway standing query makes the hub's engine search — or
	// the heap would count however many retired generations idle engines
	// happen to pin. Two collections: one to release, one to free.
	if err := r.st.quiesce(); err != nil {
		r.fail("%v", err)
	}
	for i := 0; i < 2*len(r.st.conns); i++ {
		status, body, err := r.st.post(0, "/v1/search", r.in.pool[0].body)
		r.account("heap settle", []sample{{op: op{ref: 0}, status: status, body: body, err: err}})
	}
	if sub, err := r.st.srv.Hub().Subscribe(context.Background(), r.in.pool[0].req); err != nil {
		r.fail("heap settle: %v", err)
	} else {
		r.st.srv.Hub().Unsubscribe(sub.ID())
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20), "MiB")
}

// ingestLatencies logs the write-side latencies of an arrival schedule:
// insert to durable acknowledgement, and insert due time to a consumer
// holding the join event it caused. In a traced run they are per-layer
// metrics (0 on the workloads that send no writes).
func (r *run) ingestLatencies(samples []sample) {
	inserts := latencies(samples, func(s sample) bool { return s.op.kind == opInsert && s.err == nil })
	var notify []float64
	if r.wl.mutates() {
		r.st.srv.Hub().Sync()
		r.st.joinMu.Lock()
		for _, s := range samples {
			if s.op.kind != opInsert || s.status != http.StatusOK {
				continue
			}
			var reply server.InsertResponse
			if json.Unmarshal(s.body, &reply) != nil {
				continue
			}
			if at, ok := r.st.joinAt[trajectory.TrajID(reply.ID)]; ok {
				notify = append(notify, millis(at.Sub(s.from)))
			}
		}
		r.st.joinMu.Unlock()
		sort.Float64s(notify)
		r.logf("ingest: insert p50 %.3f p95 %.3f ms (%d), notify p50 %.3f p95 %.3f ms (%d)",
			percentile(inserts, 50), percentile(inserts, 95), len(inserts),
			percentile(notify, 50), percentile(notify, 95), len(notify))
	}
	if r.cfg.trace {
		r.set("ingest.insert_p50_ms", percentile(inserts, 50), "ms")
		r.set("ingest.insert_p95_ms", percentile(inserts, 95), "ms")
		r.set("ingest.notify_p50_ms", percentile(notify, 50), "ms")
	}
}

// checkIngest verifies ingest_watch's end state: seeded standing queries
// hold what a fresh search answers, and the router reopened from its data
// directory holds every acknowledged mutation and answers seeded searches
// byte-identically. An in-process reopen cannot discard unflushed writes,
// so this checks replay, not fsync honesty.
func (r *run) checkIngest() error {
	st := r.st
	st.srv.Hub().Sync()
	for _, i := range r.rng.Perm(len(st.subs))[:min(50, len(st.subs))] {
		r.attempted++
		status, body, err := st.post(0, "/v1/search", r.in.pool[i].standing)
		if err != nil || status != http.StatusOK {
			r.fail("standing check: status %d err %v", status, err)
			continue
		}
		got, _, err := searchResults(body)
		want := wantResults(query.Response{Results: st.subs[i].TopK()})
		if err != nil || !bytes.Equal(got, want) {
			r.fail("standing query %d: top-k %s, fresh search %s", i, want, got)
		}
	}

	probes := r.rng.Perm(len(r.in.pool))[:20]
	before := make([][]byte, len(probes))
	for j, i := range probes {
		r.attempted++
		status, body, err := st.post(0, "/v1/search", r.in.pool[i].body)
		if err != nil || status != http.StatusOK {
			r.fail("pre-reopen search: status %d err %v", status, err)
			continue
		}
		before[j], _, _ = searchResults(body)
	}
	if err := st.stop(); err != nil {
		return err
	}
	r.st = nil
	reopened, _, err := shard.OpenOrCreate(r.in.base, r.wl.shardConfig(r.dataDir()))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	live := 0
	for si := 0; si < reopened.NumShards(); si++ {
		reopened.Shard(si).Dynamic().ForEachPts(func(trajectory.TrajID, []trajectory.Point) { live++ })
	}
	r.attempted++
	if want := len(r.in.base.Trajs) + r.nIns - r.nDel; live != want {
		r.fail("reopened router holds %d trajectories, want %d (base %d + %d inserts − %d deletes)",
			live, want, len(r.in.base.Trajs), r.nIns, r.nDel)
	}
	eng := reopened.NewEngine()
	for j, i := range probes {
		r.attempted++
		resp, err := eng.Search(context.Background(), r.in.pool[i].req)
		if err != nil {
			r.fail("post-reopen search: %v", err)
		} else if got := wantResults(resp); !bytes.Equal(got, before[j]) {
			r.fail("request %d after reopen: %s, before: %s", i, got, before[j])
		}
	}
	return reopened.Close()
}

// runWorkload runs one workload once and returns what it measured.
func runWorkload(cfg runConfig, wl workload) (result, error) {
	r := &run{
		cfg:     cfg,
		wl:      wl,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		delRng:  rand.New(rand.NewSource(cfg.seed + 1)),
		metrics: map[string]metric{},
	}
	r.logf("workload %s seed %d seconds %g trace %v: nproc %d GOMAXPROCS %d %s",
		wl.name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(filepath.Join(cfg.outDir, "data"))

	in, err := makeInputs(cfg.scale)
	if err != nil {
		return result{}, err
	}
	r.in = in
	r.logf("gen_s %.3f: %d base trajectories, %d in the ingest stream, %d requests", in.genS, len(in.base.Trajs), len(in.stream), len(in.pool))
	r.plan()
	if !wl.mutates() && !cfg.trace {
		if err := r.oracle(); err != nil {
			return result{}, fmt.Errorf("oracle: %w", err)
		}
	}
	err = r.setUp()
	defer func() {
		if r.st != nil {
			_ = r.st.stop() // only reached when an earlier error is already being returned
		}
	}()
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		if err := r.traced(); err != nil {
			return result{}, err
		}
	} else {
		r.measure()
	}
	if wl.mutates() {
		if err := r.checkIngest(); err != nil {
			return result{}, err
		}
	} else {
		st := r.st
		r.st = nil
		if err := st.stop(); err != nil {
			return result{}, err
		}
	}
	for _, f := range r.failures {
		r.logf("FAILED %s", f)
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}
