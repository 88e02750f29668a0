package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/subscribe"
)

// span is one timed interval of the traced run. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory; the traced run has one client, so it needs
// no locking.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartUS: micros(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndUS = micros(time.Since(t.t0)) }

func (t *tracer) dur(id int) float64 { return t.spans[id-1].EndUS - t.spans[id-1].StartUS }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

const tracedRequests = 60

// traced is the per-layer run. Counts a loaded phase must produce
// (compactions, hub traffic, write latencies) come from ingest_watch's
// arrival schedule; then one client replays the head of the schedule
// request by request with a span around every step the bench can reach from
// outside, and the layers below the shard tier are probed on their own.
func (r *run) traced() error {
	hub := r.st.srv.Hub()
	hub0, compactions0 := hub.Stats(), r.compactions()
	var (
		samples []sample
		deepest int64
	)
	if r.wl.mutates() {
		stop := make(chan struct{})
		sampled := hubSampler(hub, stop)
		samples, _ = r.runRounds()
		close(stop)
		deepest = <-sampled
	}
	r.ingestLatencies(samples)
	hub1 := hub.Stats()
	inserts := float64(hub1.Inserts - hub0.Inserts)
	screened := float64(hub1.PrefilterRejected-hub0.PrefilterRejected) + float64(hub1.Scored-hub0.Scored)
	r.set("subscribe.prefilter_reject_ratio", ratio(float64(hub1.PrefilterRejected-hub0.PrefilterRejected), screened), "ratio")
	r.set("subscribe.scored_per_insert", ratio(float64(hub1.Scored-hub0.Scored), inserts), "count")
	r.set("subscribe.researches", float64(hub1.Researches-hub0.Researches), "count")
	r.set("subscribe.events", float64(hub1.Events-hub0.Events), "count")
	r.set("subscribe.resyncs", float64(hub1.Resyncs-hub0.Resyncs), "count")
	r.set("subscribe.pending_max", float64(deepest), "count")
	r.set("delta.compactions", float64(r.compactions()-compactions0), "count")

	var refs []int
	for _, o := range r.rounds[0].open {
		if o.kind == opSearch && len(refs) < tracedRequests {
			refs = append(refs, o.ref)
		}
	}
	uniq := distinct(refs)
	t0 := time.Now()
	idx, resps, err := r.gatProbe(uniq)
	if err != nil {
		return fmt.Errorf("gat probe: %w", err)
	}
	r.logf("probe %-16s %.2f s", "gat", time.Since(t0).Seconds())
	tr := &tracer{t0: time.Now()}
	if err := r.tracedPass(tr, refs); err != nil {
		return err
	}
	if err := r.probes(uniq, idx, resps); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.wl.name, r.cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	r.logf("%d spans written to %s", len(tr.spans), path)
	return nil
}

// hubSampler polls the hub's queue depth until stop is closed and returns
// the deepest it saw.
func hubSampler(hub *subscribe.Hub, stop <-chan struct{}) <-chan int64 {
	out := make(chan int64, 1)
	go func() {
		var deepest int64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- deepest
				return
			case <-tick.C:
				if p := hub.Stats().Pending; p > deepest {
					deepest = p
				}
			}
		}
	}()
	return out
}

func (r *run) compactions() int64 {
	var n int64
	for _, ss := range r.st.router.Stats().PerShard {
		n += ss.Delta.Compactions
	}
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func distinct(refs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, ref := range refs {
		if !seen[ref] {
			seen[ref] = true
			out = append(out, ref)
		}
	}
	return out
}

// tookUS is the engine time the handler stamped into a search reply.
func tookUS(reply []byte) float64 {
	var r struct {
		TookUS float64 `json:"took_us"`
	}
	_ = json.Unmarshal(reply, &r) // a malformed reply is counted by account
	return r.TookUS
}

func newSearchRequest(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
}

// tracedPass sends each request three ways under one root span: over the
// wire, through the real handler on a recorder, and through a hand-unrolled
// copy of the handler's steps made of the same public pieces. The handler
// stamps its engine time into every reply (took_us), so its own time is
// handle − took_us of the same execution, and the HTTP stack's is what a
// round trip adds to that.
func (r *run) tracedPass(tr *tracer, refs []int) error {
	handler := r.st.srv.Handler()
	eng := r.st.router.NewEngine()
	var rcache *query.ResultCache
	if r.wl.resultCache > 0 {
		rcache = query.NewResultCache(r.wl.resultCache, r.st.router)
	}
	var (
		untraced, trip, handle, self, overhead, decode, encode, search []float64
		stats                                                          query.SearchStats
	)
	count := func(ref, status int, reply []byte, err error) {
		r.account("traced pass", []sample{{op: op{ref: ref}, status: status, body: reply, err: err}})
	}
	for i, ref := range refs {
		body := r.in.pool[ref].body
		root := tr.start("request", 0, i)

		// One round trip with no span open, for the overhead line; which of
		// the two goes first alternates, because the second finds the CPU
		// caches warm.
		plain := func() {
			t0 := time.Now()
			status, reply, err := r.st.post(0, "/v1/search", body)
			untraced = append(untraced, micros(time.Since(t0)))
			count(ref, status, reply, err)
		}
		if i%2 == 0 {
			plain()
		}
		id := tr.start("client.roundtrip", root, i)
		status, reply, err := r.st.post(0, "/v1/search", body)
		tr.end(id)
		trip = append(trip, tr.dur(id))
		tripOutside := tr.dur(id) - tookUS(reply)
		count(ref, status, reply, err)
		if _, st, err := searchResults(reply); err == nil {
			stats.Add(st)
		}
		if i%2 == 1 {
			plain()
		}

		id = tr.start("server.handle", root, i)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, newSearchRequest(body))
		tr.end(id)
		handle = append(handle, tr.dur(id))
		handleOutside := tr.dur(id) - tookUS(rec.Body.Bytes())
		self = append(self, handleOutside)
		overhead = append(overhead, tripOutside-handleOutside)

		unrolled := tr.start("server.unrolled", root, i)
		id = tr.start("server.decode", unrolled, i)
		var wire server.SearchRequest
		if status, err := server.DecodeJSON(httptest.NewRecorder(), newSearchRequest(body), &wire, 0); status != 0 {
			return fmt.Errorf("traced decode: %w", err)
		}
		sreq, err := server.ToQueryRequest(r.in.base.Vocab, wire)
		if err != nil {
			return fmt.Errorf("traced decode: %w", err)
		}
		tr.end(id)
		decode = append(decode, tr.dur(id))

		var (
			resp  query.Response
			hit   bool
			epoch uint64
		)
		if rcache != nil {
			id = tr.start("query.rcache_get", unrolled, i)
			epoch = rcache.Epoch()
			resp, hit = rcache.Get(epoch, sreq)
			tr.end(id)
		}
		if !hit {
			id = tr.start("shard.search", unrolled, i)
			resp, err = eng.Search(context.Background(), sreq)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("traced search: %w", err)
			}
			search = append(search, tr.dur(id)/1e3)
			if rcache != nil {
				id = tr.start("query.rcache_put", unrolled, i)
				rcache.Put(epoch, sreq, resp)
				tr.end(id)
			}
		}
		id = tr.start("server.encode", unrolled, i)
		server.WriteJSON(httptest.NewRecorder(), http.StatusOK, server.SearchResponseJSON(resp, 0))
		tr.end(id)
		encode = append(encode, tr.dur(id))
		tr.end(unrolled)
		tr.end(root)
	}
	n := float64(len(refs))
	r.set("server.decode_us", median(decode), "us")
	r.set("server.encode_us", median(encode), "us")
	r.set("server.handle_us", median(handle), "us")
	r.set("server.self_us", median(self), "us")
	r.set("server.http_overhead_us", median(overhead), "us")
	r.set("server.non2xx", float64(r.non2xx), "count")
	r.set("query.rcache_hit_ratio", ratio(float64(stats.ResultCacheHits), float64(stats.ResultCacheHits+stats.ResultCacheMisses)), "ratio")
	r.set("shard.search_ms", median(search), "ms")
	r.set("shard.searched_per_query", ratio(float64(stats.ShardsSearched), n-float64(stats.ResultCacheHits)), "count")
	r.set("shard.skipped_per_query", ratio(float64(stats.ShardsSkipped), n-float64(stats.ResultCacheHits)), "count")
	r.set("delta.delta_candidates_per_search", float64(stats.DeltaCandidates)/n, "count")
	r.set("storage.page_reads_per_search", float64(stats.PageReads)/n, "count")
	r.set("cache.decoded_hit_ratio", ratio(float64(stats.CacheHits), float64(stats.CacheHits+stats.CacheMisses)), "ratio")
	sort.Float64s(untraced)
	sort.Float64s(trip)
	r.logf("traced pass: %d requests, round trip p50 %.1f us inside a span, %.1f us outside: tracing overhead %.1f us",
		len(refs), percentile(trip, 50), percentile(untraced, 50), percentile(trip, 50)-percentile(untraced, 50))
	return nil
}
