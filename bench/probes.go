package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"activitytraj/internal/cache"
	"activitytraj/internal/delta"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/matcher"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
	"activitytraj/internal/storage"
	"activitytraj/internal/subscribe"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// Probe sizes: large enough for a steady median, small enough that a traced
// run of ingest_watch still ends within the driver's per-run limit.
const (
	probeRequests  = 32  // requests replayed against gat, delta, evaluate, matcher
	probeInserts   = 100 // trajectories inserted per insert timing
	probeStanding  = 100 // standing queries on the subscribe probe's hub
	probeWALSync   = 100
	probeWALNoSync = 1000
	probeBootstrap = 400 // corpus of the scratch durable router
)

// timeEach returns the median duration in µs of fn over 0..n-1.
func timeEach(n int, fn func(i int) error) (float64, error) {
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us[i] = micros(time.Since(t0))
	}
	return median(us), nil
}

// probeStore is the workload's per-shard store configuration scaled to an
// unsharded index, so the probe's caches hold the same share of the corpus
// as a shard's do.
func (r *run) probeStore() evaluate.TrajStoreConfig {
	s := r.wl.store
	s.PoolPages *= numShards
	s.APLCacheEntries *= numShards
	s.CoordCacheEntries *= numShards
	return s
}

// gatProbe builds the unsharded static index, answers refs with it (the
// traced run's oracle on the read-only workloads) and times the head of
// refs against it warm.
func (r *run) gatProbe(refs []int) (*gat.Index, []query.Response, error) {
	t0 := time.Now()
	ts, err := evaluate.BuildTrajStore(r.in.base, r.probeStore())
	if err != nil {
		return nil, nil, err
	}
	r.set("evaluate.store_build_ms", millis(time.Since(t0)), "ms")
	t0 = time.Now()
	idx, err := gat.Build(ts, gat.Config{})
	if err != nil {
		return nil, nil, err
	}
	r.set("gat.build_ms", millis(time.Since(t0)), "ms")

	eng := gat.NewEngine(idx)
	resps := make([]query.Response, len(refs))
	for i, ref := range refs {
		if resps[i], err = eng.Search(context.Background(), r.in.pool[ref].req); err != nil {
			return nil, nil, err
		}
	}
	if !r.wl.mutates() {
		r.want = make([][]byte, len(r.in.pool))
		for i, ref := range refs {
			r.want[ref] = wantResults(resps[i])
		}
	}

	head := refs[:min(probeRequests, len(refs))]
	pool0, cache0 := ts.PoolStats(), ts.CacheStats()
	var stats query.SearchStats
	results := 0
	us, err := timeEach(len(head), func(i int) error {
		resp, err := eng.Search(context.Background(), r.in.pool[head[i]].req)
		stats.Add(resp.Stats)
		results += len(resp.Results)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	pool, evicted := ts.PoolStats().Sub(pool0), ts.CacheStats().Sub(cache0).Evictions
	n := float64(len(head))
	r.set("gat.search_ms", us/1e3, "ms")
	r.set("gat.pq_pops_per_search", float64(stats.PQPops)/n, "count")
	r.set("gat.candidates_per_search", float64(stats.Candidates)/n, "count")
	r.set("gat.batches_per_search", float64(stats.Batches)/n, "count")
	r.set("gat.scored_per_search", float64(stats.Scored)/n, "count")
	r.set("gat.candidates_per_result", ratio(float64(stats.Candidates), float64(results)), "count")
	r.set("evaluate.sketch_reject_ratio", ratio(float64(stats.SketchRejected), float64(stats.Candidates)), "ratio")
	r.set("evaluate.header_reject_ratio", ratio(float64(stats.HeaderOnlyRejects), float64(stats.Candidates)), "ratio")
	r.set("evaluate.bytes_decoded_per_search", float64(stats.BytesDecoded)/n, "count")
	r.set("storage.pool_miss_ratio", ratio(float64(pool.Misses), float64(pool.Touched)), "ratio")
	r.set("cache.evictions_per_search", float64(evicted)/n, "count")
	return idx, resps, nil
}

// pair is one request × result-trajectory combination the evaluate and
// matcher probes score.
type pair struct {
	req query.Request
	id  trajectory.TrajID
}

func (r *run) pairs(refs []int, resps []query.Response) []pair {
	var out []pair
	for i, ref := range refs[:min(probeRequests, len(refs))] {
		for _, res := range resps[i].Results {
			out = append(out, pair{req: r.in.pool[ref].req, id: res.ID})
		}
	}
	return out
}

func score(ev *evaluate.Evaluator, p pair) error {
	var stats query.SearchStats
	ev.SetSpan(p.req.Subtrajectory, p.req.MinSpanPoints, p.req.MaxSpanPoints)
	var err error
	if p.req.Ordered {
		_, _, err = ev.ScoreOATSQ(p.req.Query, p.id, math.Inf(1), &stats)
	} else {
		_, _, err = ev.ScoreATSQ(p.req.Query, p.id, math.Inf(1), &stats)
	}
	return err
}

// evaluateProbe scores request × result pairs with everything resident and
// again from a cold pool, and times the two fetches a cold score pays for.
func (r *run) evaluateProbe(ts *evaluate.TrajStore, pairs []pair) error {
	ev := evaluate.NewEvaluator(ts)
	for _, p := range pairs { // make every pair resident
		if err := score(ev, p); err != nil {
			return err
		}
	}
	warm, err := timeEach(len(pairs), func(i int) error { return score(ev, pairs[i]) })
	if err != nil {
		return err
	}
	// cold times fn right after the pool and decoded caches were emptied;
	// emptying them is not part of the timing.
	cold := func(fn func(p pair) error) (float64, error) {
		us := make([]float64, len(pairs))
		for i, p := range pairs {
			ts.ResetPool()
			t0 := time.Now()
			if err := fn(p); err != nil {
				return 0, err
			}
			us[i] = micros(time.Since(t0))
		}
		return median(us), nil
	}
	scoreCold, err := cold(func(p pair) error { return score(ev, p) })
	if err != nil {
		return err
	}
	apl, err := cold(func(p pair) error { _, err := ts.FetchAPL(p.id); return err })
	if err != nil {
		return err
	}
	coord, err := cold(func(p pair) error { _, err := ts.FetchCoords(p.id); return err })
	if err != nil {
		return err
	}
	r.set("evaluate.score_us", warm, "us")
	r.set("evaluate.score_cold_us", scoreCold, "us")
	r.set("evaluate.apl_fetch_us", apl, "us")
	r.set("evaluate.coord_fetch_us", coord, "us")
	return nil
}

// matcherProbe times the three match-distance kernels on rows built from
// the same pairs.
func (r *run) matcherProbe(pairs []pair) {
	var m matcher.Matcher
	rows := make([][]matcher.QueryRow, len(pairs))
	npts := make([]int, len(pairs))
	for i, p := range pairs {
		pts := r.in.base.Trajs[p.id].Pts
		rows[i] = matcher.BuildRowsFromPoints(p.req.Query.Pts, pts)
		npts[i] = len(pts)
	}
	inf := math.Inf(1)
	minmatch, _ := timeEach(len(pairs), func(i int) error { m.MinMatch(rows[i], inf); return nil })
	order, _ := timeEach(len(pairs), func(i int) error { m.MinOrderMatch(npts[i], rows[i], inf); return nil })
	span, _ := timeEach(len(pairs), func(i int) error { m.MinMatchSpan(npts[i], rows[i], 0, maxSpanPts, inf); return nil })
	r.set("matcher.minmatch_us", minmatch, "us")
	r.set("matcher.ordermatch_us", order, "us")
	r.set("matcher.span_us", span, "us")
}

// storageProbe times a buffer-pool page access on a hit and on a miss.
func (r *run) storageProbe() error {
	const pages = 256
	st := storage.NewMemStore(pages)
	if _, err := st.Append(make([]byte, pages*storage.PageSize)); err != nil {
		return err
	}
	if err := st.Seal(); err != nil {
		return err
	}
	sweep := func() (float64, error) {
		t0 := time.Now()
		for p := uint32(0); p < pages; p++ {
			if _, err := st.PageData(p); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / pages, nil
	}
	var miss, hit []float64
	for round := 0; round < 20; round++ {
		st.ResetPool()
		m, err := sweep()
		if err != nil {
			return err
		}
		h, err := sweep()
		if err != nil {
			return err
		}
		miss, hit = append(miss, m), append(hit, h)
	}
	r.set("storage.page_get_miss_ns", median(miss), "ns")
	r.set("storage.page_get_hit_ns", median(hit), "ns")
	return nil
}

// cacheProbe times a hit on the sharded LRU behind every decoded cache.
func (r *run) cacheProbe() {
	const entries = 1024
	c := cache.New[uint64, int](entries, 0, cache.Uint64Hash)
	for k := uint64(0); k < entries; k++ {
		c.Put(k, int(k))
	}
	var ns []float64
	for round := 0; round < 20; round++ {
		t0 := time.Now()
		for k := uint64(0); k < entries; k++ {
			c.Get(k)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/entries)
	}
	r.set("cache.get_ns", median(ns), "ns")
}

// searchAllProbe times the batch entry point over the workload's own
// router.
func (r *run) searchAllProbe(refs []int) error {
	reqs := make([]query.Request, 0, 2*probeRequests)
	for _, ref := range refs[:min(cap(reqs), len(refs))] {
		reqs = append(reqs, r.in.pool[ref].req)
	}
	pe := query.NewParallelEngine(r.st.router.NewEngine(), runtime.GOMAXPROCS(0))
	t0 := time.Now()
	if _, err := pe.SearchAll(context.Background(), reqs); err != nil {
		return err
	}
	r.set("query.searchall_us_per_req", micros(time.Since(t0))/float64(len(reqs)), "us")
	return nil
}

// deltaProbe times the dynamic index alone: searches over an empty and a
// dirty delta, inserts and a full compaction; then the standing-query hub
// over the compacted index.
func (r *run) deltaProbe(refs []int) error {
	head := refs[:min(probeRequests, len(refs))]
	d, err := delta.NewDynamic(r.in.base, delta.Config{Store: r.probeStore(), CompactThreshold: -1})
	if err != nil {
		return err
	}
	eng := d.NewEngine()
	search := func(i int) error {
		_, err := eng.Search(context.Background(), r.in.pool[head[i]].req)
		return err
	}
	if _, err := timeEach(len(head), search); err != nil { // fill the caches
		return err
	}
	clean, err := timeEach(len(head), search)
	if err != nil {
		return err
	}
	stream := r.in.stream
	nIns := min(probeInserts, len(stream)/3)
	insert := func(i int) error {
		_, err := d.Insert(trajectory.Trajectory{Pts: stream[i].Pts})
		return err
	}
	insertUS, err := timeEach(nIns, insert)
	if err != nil {
		return err
	}
	dirty, err := timeEach(len(head), search)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := d.CompactNow(); err != nil {
		return err
	}
	r.set("delta.search_ms", clean/1e3, "ms")
	r.set("delta.search_dirty_ms", dirty/1e3, "ms")
	r.set("delta.insert_us", insertUS, "us")
	r.set("delta.compact_ms", millis(time.Since(t0)), "ms")

	// Inserting with a hub attached, minus the same without, is what the
	// hub's maintenance costs per insert.
	hub := subscribe.NewDynamicHub(d, subscribe.Options{})
	nSub := min(probeStanding, len(r.in.pool))
	subscribeUS, err := timeEach(nSub, func(i int) error {
		req := r.in.pool[i*len(r.in.pool)/nSub].req
		req.WithMatches = false
		_, err := hub.Subscribe(context.Background(), req)
		return err
	})
	if err != nil {
		hub.Close()
		return err
	}
	t0 = time.Now()
	for i := nIns; i < 2*nIns && err == nil; i++ {
		err = insert(i)
	}
	hub.Sync()
	watched := time.Since(t0)
	hub.Close()
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 2 * nIns; i < 3*nIns; i++ {
		if err := insert(i); err != nil {
			return err
		}
	}
	r.set("subscribe.subscribe_ms", subscribeUS/1e3, "ms")
	r.set("subscribe.maintain_us_per_insert", micros(watched-time.Since(t0))/float64(nIns), "us")
	return nil
}

// walProbe times the log alone on a scratch directory: a durable append, a
// buffered one, the bytes it stores per byte of payload, and a replay.
func (r *run) walProbe() error {
	dir := filepath.Join(r.cfg.outDir, "probe-wal")
	defer os.RemoveAll(dir)
	bodies := make([][]byte, len(r.in.stream))
	for i, tr := range r.in.stream {
		bodies[i] = delta.EncodePoints(nil, tr.Pts)
	}
	appendN := func(sub string, mode wal.SyncMode, n int) (float64, int64, error) {
		l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, sub), Sync: mode})
		if err != nil {
			return 0, 0, err
		}
		var user int64
		us, err := timeEach(n, func(i int) error {
			body := bodies[i%len(bodies)]
			user += int64(len(body))
			seq, err := l.Append(1, body)
			if err != nil {
				return err
			}
			return l.Commit(seq)
		})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		return us, user, err
	}
	syncUS, _, err := appendN("sync", wal.SyncAlways, probeWALSync)
	if err != nil {
		return err
	}
	nosyncUS, user, err := appendN("nosync", wal.SyncOff, probeWALNoSync)
	if err != nil {
		return err
	}
	var stored int64
	entries, err := os.ReadDir(filepath.Join(dir, "nosync"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			stored += info.Size()
		}
	}
	t0 := time.Now()
	info, err := wal.Replay(nil, filepath.Join(dir, "nosync"), func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	if info.Records != probeWALNoSync {
		return fmt.Errorf("wal probe replayed %d of %d records", info.Records, probeWALNoSync)
	}
	r.set("wal.append_sync_us", syncUS, "us")
	r.set("wal.append_nosync_us", nosyncUS, "us")
	r.set("wal.bytes_per_user_byte", ratio(float64(stored), float64(user)), "ratio")
	r.set("wal.recover_ms", millis(time.Since(t0)), "ms")
	return nil
}

// shardInsertProbe times a durable insert through a router of its own over
// a small corpus: routing, the delta insert, both logs and their fsyncs.
func (r *run) shardInsertProbe() error {
	dir := filepath.Join(r.cfg.outDir, "probe-router")
	defer os.RemoveAll(dir)
	base := *r.in.base
	base.Trajs = base.Trajs[:min(probeBootstrap, len(base.Trajs))]
	router, _, err := shard.OpenOrCreate(&base, r.wl.shardConfig(dir))
	if err != nil {
		return err
	}
	us, err := timeEach(min(probeInserts, len(r.in.stream)), func(i int) error {
		_, err := router.Insert(trajectory.Trajectory{Pts: r.in.stream[i].Pts})
		return err
	})
	if cerr := router.Close(); err == nil {
		err = cerr
	}
	r.set("shard.insert_us", us, "us")
	return err
}

// resultCacheProbe times the result cache alone: storing and finding each
// traced answer.
func (r *run) resultCacheProbe(refs []int, resps []query.Response) {
	rc := query.NewResultCache(len(refs), query.StaticEpoch{})
	put, _ := timeEach(len(refs), func(i int) error { rc.Put(0, r.in.pool[refs[i]].req, resps[i]); return nil })
	get, _ := timeEach(len(refs), func(i int) error { rc.Get(0, r.in.pool[refs[i]].req); return nil })
	r.set("query.rcache_put_us", put, "us")
	r.set("query.rcache_get_us", get, "us")
}

// probes runs every probe below the shard tier. refs are the traced run's
// distinct requests in schedule order.
func (r *run) probes(refs []int, idx *gat.Index, resps []query.Response) error {
	pairs := r.pairs(refs, resps)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"evaluate", func() error { return r.evaluateProbe(idx.Store(), pairs) }},
		{"matcher", func() error { r.matcherProbe(pairs); return nil }},
		{"storage", r.storageProbe},
		{"cache", func() error { r.cacheProbe(); return nil }},
		{"result cache", func() error { r.resultCacheProbe(refs, resps); return nil }},
		{"searchall", func() error { return r.searchAllProbe(refs) }},
		{"delta+subscribe", func() error { return r.deltaProbe(refs) }},
		{"wal", r.walProbe},
		{"shard insert", r.shardInsertProbe},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s probe: %w", s.name, err)
		}
		r.logf("probe %-16s %.2f s", s.name, time.Since(t0).Seconds())
	}
	return nil
}
