// Command atsqsearch loads (or generates) a dataset, builds one of the four
// engines, and answers ad-hoc ATSQ/OATSQ queries from the command line.
//
// The query syntax is a semicolon-separated list of query points, each
// "x,y:act1,act2,...". Activities are vocabulary names; the special form
// "@N" denotes the activity with ID N.
//
//	atsqsearch -preset ny -scale 0.02 -engine gat -k 5 \
//	    -query "12.0,30.5:act000001,act000004;14.2,31.0:act000002"
//
// With -random N, the tool instead generates N workload queries (Table V
// parameters) and prints per-query results and statistics. In the
// statistics line, "decoded-cache hit/miss" counts lookups in the decoded-
// structure caches: one per APL or coordinate fetch. The GAT index's HICL
// is read off its in-memory ITL, so it adds no lookups.
//
// With -server URL, queries are not answered locally at all: each one is
// POSTed to a running atsqserve instance's /v1/search endpoint and the
// reply is printed through the same output path, so `-json` output from a
// local engine and from a server over the same corpus can be diffed
// byte-for-byte (the CI end-to-end job does exactly that). -seed makes
// -random workloads reproducible across such runs.
//
// With -server and -watch, the query becomes a standing subscription: the
// server maintains its top-k incrementally against the ingest stream and the
// tool prints each join/leave/resync event (with the full current top-k) as
// it arrives over SSE. -events N exits after N events, so scripts can wait
// for a specific change; in -json mode each event prints the same canonical
// results line a one-shot search would, making live state diffable against a
// fresh search.
//
// -deadline caps each search: local engines run under a context with that
// timeout (reporting the deadline error with the partial result count),
// and -server runs forward it as the server's per-request ?timeout=
// parameter, reporting a 504 reply distinctly.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"activitytraj"
	"activitytraj/internal/cluster"
	"activitytraj/internal/dataset"
	"activitytraj/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atsqsearch: ")

	data := flag.String("data", "", "dataset file from atsqgen (overrides -preset)")
	preset := flag.String("preset", "ny", "generate a preset dataset: la or ny")
	scale := flag.Float64("scale", 0.02, "preset scale")
	engineName := flag.String("engine", "gat", "engine: gat|il|rt|irt")
	k := flag.Int("k", 9, "number of results")
	ordered := flag.Bool("ordered", false, "run OATSQ instead of ATSQ")
	queryStr := flag.String("query", "", `query: "x,y:act1,act2;x,y:act3"`)
	random := flag.Int("random", 0, "generate this many random workload queries instead")
	seed := flag.Int64("seed", 0, "workload seed for -random (0 = time-based)")
	jsonOut := flag.Bool("json", false, "print one canonical JSON line per query instead of text")
	serverURL := flag.String("server", "", "answer queries via a running atsqserve instance at this base URL instead of a local engine")
	deadline := flag.Duration("deadline", 0, "per-query search budget (0 = none); local searches return a deadline error, -server runs send it as ?timeout= and report the 504")
	retries := flag.Int("retries", 3, "max retries per -server query on transient failures (connection errors, 502/503), with capped exponential backoff")
	watch := flag.Bool("watch", false, "with -server: register the query as a standing subscription and stream its live top-k as events arrive (SSE)")
	watchEvents := flag.Int("events", 0, "with -watch: exit successfully after this many events (0 = stream until interrupted)")
	subtraj := flag.Bool("subtrajectory", false, "score each trajectory by its best contiguous point span instead of the whole trajectory; implies requesting matches so the winning span is reported")
	minSpan := flag.Int("min-span", 0, "minimum span length in points for -subtrajectory (0 = unlimited)")
	maxSpan := flag.Int("max-span", 0, "maximum span length in points for -subtrajectory (0 = unlimited)")
	verbose := flag.Bool("v", false, "print per-result trajectory details")
	flag.Parse()

	if !*subtraj && (*minSpan != 0 || *maxSpan != 0) {
		log.Fatal("-min-span/-max-span require -subtrajectory")
	}

	ds, err := dataset.LoadOrGenerate(*data, *preset, *scale)
	if err != nil {
		log.Fatalf("dataset: %v", err)
	}
	st := ds.Stats()
	// In -json mode stdout carries only the canonical result lines (so two
	// runs can be diffed byte-for-byte); commentary goes to stderr.
	banner := func(format string, args ...any) {
		w := os.Stdout
		if *jsonOut {
			w = os.Stderr
		}
		fmt.Fprintf(w, format, args...)
	}
	banner("dataset %s: %d trajectories, %d points, %d distinct activities\n",
		ds.Name, st.Trajectories, st.Points, st.DistinctActs)

	var qs []activitytraj.Query
	switch {
	case *random > 0:
		wseed := *seed
		if wseed == 0 {
			wseed = time.Now().UnixNano()
		}
		qs, err = activitytraj.GenerateQueries(ds, activitytraj.WorkloadConfig{
			NumQueries: *random, Seed: wseed,
		})
		if err != nil {
			log.Fatalf("workload: %v", err)
		}
	case *queryStr != "":
		q, err := parseQuery(*queryStr, ds.Vocab)
		if err != nil {
			log.Fatalf("parse query: %v", err)
		}
		qs = []activitytraj.Query{q}
	default:
		log.Fatal("provide -query or -random N")
	}

	// mkRequest builds one engine request from the shared flags.
	// -subtrajectory implies WithMatches so every tier reports the winning
	// span (and the e2e byte-diffs cover it).
	mkRequest := func(q activitytraj.Query) activitytraj.Request {
		return activitytraj.Request{
			Query: q, K: *k, Ordered: *ordered,
			Subtrajectory: *subtraj, MinSpanPoints: *minSpan, MaxSpanPoints: *maxSpan,
			WithMatches: *subtraj,
		}
	}

	if *watch {
		if *serverURL == "" {
			log.Fatal("-watch requires -server (subscriptions live on a running atsqserve)")
		}
		if len(qs) != 1 {
			log.Fatal("-watch follows exactly one standing query; use -query or -random 1")
		}
		// Standing queries do not support with_matches, so -subtrajectory
		// here watches span-scored distances without span reporting.
		base := server.SearchRequest{
			K: *k, Ordered: *ordered,
			Subtrajectory: *subtraj, MinSpanPoints: *minSpan, MaxSpanPoints: *maxSpan,
		}
		watchRemote(*serverURL, qs[0], base, *watchEvents, *jsonOut, banner)
		return
	}

	if *serverURL != "" {
		base := server.SearchRequest{
			K: *k, Ordered: *ordered,
			Subtrajectory: *subtraj, MinSpanPoints: *minSpan, MaxSpanPoints: *maxSpan,
			WithMatches: *subtraj,
		}
		serveRemote(*serverURL, qs, base, *jsonOut, *deadline, *retries, ds, banner)
		return
	}

	store, err := activitytraj.NewStore(ds)
	if err != nil {
		log.Fatalf("store: %v", err)
	}
	engine := buildEngine(*engineName, store)
	banner("engine %s built (%.1f MiB in memory)\n\n", engine.Name(), float64(engine.MemBytes())/(1<<20))

	// withDeadline caps one search by the -deadline budget, if any.
	withDeadline := func() (context.Context, context.CancelFunc) {
		if *deadline > 0 {
			return context.WithTimeout(context.Background(), *deadline)
		}
		return context.Background(), func() {}
	}

	for qi, q := range qs {
		ctx, cancel := withDeadline()
		start := time.Now()
		resp, err := engine.Search(ctx, mkRequest(q))
		cancel()
		elapsed := time.Since(start)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				log.Fatalf("search: query %d exceeded the %s deadline (%d partial results)", qi, *deadline, len(resp.Results))
			}
			log.Fatalf("search: %v", err)
		}
		if *jsonOut {
			emitJSON(qi, resp)
			continue
		}
		describeQuery(qi, q, ds.Vocab)
		stats := resp.Stats
		fmt.Printf("  %d results in %s (candidates=%d scored=%d box-screened=%d hdr-rejects=%d order-rejected=%d span-rejected=%d pages=%d decoded=%dKB decoded-cache hit/miss=%d/%d)\n",
			len(resp.Results), elapsed.Round(time.Microsecond), stats.Candidates, stats.Scored,
			stats.BoxScreened, stats.HeaderOnlyRejects, stats.OrderRejected, stats.SpanRejected,
			stats.PageReads, stats.BytesDecoded/1024, stats.CacheHits, stats.CacheMisses)
		printResults(resp.Results, resp.Spans, ds, *verbose)
	}
}

// jsonLine is the canonical per-query output of -json mode: results only,
// no timing or statistics, so local-engine and -server runs over the same
// corpus and workload are byte-identical when (and only when) the engines
// agree.
type jsonLine struct {
	Query   int                 `json:"query"`
	Results []server.ResultJSON `json:"results"`
}

// emitJSON prints one canonical line for a local engine response: the
// results go through the same wire conversion the server uses, so matches
// and spans serialize identically to a -server run's reply.
func emitJSON(qi int, resp activitytraj.Response) {
	emitJSONResults(qi, server.SearchResponseJSON(resp, 0).Results)
}

func emitJSONResults(qi int, results []server.ResultJSON) {
	if results == nil {
		results = []server.ResultJSON{}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(jsonLine{Query: qi, Results: results}); err != nil {
		log.Fatalf("encode: %v", err)
	}
}

// serveRemote answers the workload through a running atsqserve instance:
// each query is POSTed to /v1/search and the reply flows through the same
// output path as a local engine's results. A -deadline budget travels as
// the server's per-request ?timeout= parameter; a 504 reply is reported as
// the deadline error it is, distinct from any other server status.
// Transient failures — transport errors such as connection refused/reset
// while the server restarts, and 502/503 replies — are retried up to
// -retries times with capped exponential backoff; searches are read-only,
// so a retry after an ambiguous failure never double-applies anything.
func serveRemote(baseURL string, qs []activitytraj.Query, base server.SearchRequest, jsonOut bool, deadline time.Duration, retries int, ds *activitytraj.Dataset, banner func(string, ...any)) {
	baseURL = strings.TrimRight(baseURL, "/")
	searchURL := baseURL + "/v1/search"
	if deadline > 0 {
		searchURL += "?timeout=" + url.QueryEscape(deadline.String())
	}
	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	for qi, q := range qs {
		req := base
		req.Points = wirePoints(q)
		body, err := json.Marshal(req)
		if err != nil {
			log.Fatalf("marshal query %d: %v", qi, err)
		}
		resp, err := cluster.PostRetry(context.Background(), client, searchURL, body, retries, cluster.Backoff{}, func(format string, args ...any) {
			log.Printf("query %d: %s", qi, fmt.Sprintf(format, args...))
		})
		if err != nil {
			log.Fatalf("query %d: %v", qi, err)
		}
		var sr server.SearchResponse
		if resp.StatusCode == http.StatusGatewayTimeout {
			resp.Body.Close()
			log.Fatalf("query %d: server deadline exceeded (504) after the %s budget", qi, deadline)
		}
		if resp.StatusCode != http.StatusOK {
			var er server.ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			log.Fatalf("query %d: server status %d: %s", qi, resp.StatusCode, er.Error)
		}
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			resp.Body.Close()
			log.Fatalf("query %d: decode: %v", qi, err)
		}
		resp.Body.Close()
		if jsonOut {
			emitJSONResults(qi, sr.Results)
			continue
		}
		results := make([]activitytraj.Result, len(sr.Results))
		var spans [][2]int32
		for i, r := range sr.Results {
			results[i] = activitytraj.Result{ID: activitytraj.TrajID(r.ID), Dist: r.Dist}
			if len(r.Span) == 2 {
				if spans == nil {
					spans = make([][2]int32, len(sr.Results))
				}
				spans[i] = [2]int32{r.Span[0], r.Span[1]}
			}
		}
		describeQuery(qi, q, ds.Vocab)
		fmt.Printf("  %d results in %dus server-side (candidates=%d scored=%d box-screened=%d order-rejected=%d span-rejected=%d shards=%d+%d skipped)\n",
			len(results), sr.TookUS, sr.Stats.Candidates, sr.Stats.Scored, sr.Stats.BoxScreened,
			sr.Stats.OrderRejected, sr.Stats.SpanRejected, sr.Stats.ShardsSearched, sr.Stats.ShardsSkipped)
		printResults(results, spans, ds, false)
	}
	banner("%d queries answered by %s in %s\n", len(qs), baseURL, time.Since(start).Round(time.Millisecond))
}

// wirePoints converts a query's points to the wire shape shared by search
// and subscribe bodies.
func wirePoints(q activitytraj.Query) []server.QueryPointJSON {
	var pts []server.QueryPointJSON
	for _, p := range q.Pts {
		wire := server.QueryPointJSON{X: p.Loc.X, Y: p.Loc.Y}
		for _, a := range p.Acts {
			wire.Acts = append(wire.Acts, int(a))
		}
		pts = append(pts, wire)
	}
	return pts
}

// watchRemote registers the query as a standing subscription on a running
// atsqserve and follows its SSE event stream. The first frame is always a
// resync carrying the seeded top-k; every later frame is a join/leave (or a
// resync after falling behind), each with the full current top-k. In -json
// mode each event prints one canonical jsonLine of that top-k — the same
// shape as a one-shot search — so the Nth event's line can be diffed
// byte-for-byte against a fresh `-server -json` search of the same query
// (the CI end-to-end job does exactly that). With maxEvents > 0 the stream
// ends successfully after that many events.
func watchRemote(baseURL string, q activitytraj.Query, base server.SearchRequest, maxEvents int, jsonOut bool, banner func(string, ...any)) {
	base.Points = wirePoints(q)
	body, err := json.Marshal(base)
	if err != nil {
		log.Fatalf("marshal subscription: %v", err)
	}
	baseURL = strings.TrimRight(baseURL, "/")
	hreq, err := http.NewRequest(http.MethodPost, baseURL+"/v1/subscribe", strings.NewReader(string(body)))
	if err != nil {
		log.Fatalf("subscribe: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "text/event-stream")
	// No client timeout: the stream lives until the event budget or an
	// interrupt; the server keeps it alive with comment frames.
	resp, err := (&http.Client{}).Do(hreq)
	if err != nil {
		log.Fatalf("subscribe: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		log.Fatalf("subscribe: server status %d: %s", resp.StatusCode, er.Error)
	}
	banner("watching standing query on %s (k=%d)\n", baseURL, base.K)
	br := bufio.NewReader(resp.Body)
	for seen := 0; maxEvents <= 0 || seen < maxEvents; {
		ev, err := readSSEEvent(br)
		if err != nil {
			log.Fatalf("event stream: %v", err)
		}
		seen++
		if jsonOut {
			emitJSONResults(0, ev.TopK)
			continue
		}
		switch ev.Kind {
		case "resync":
			fmt.Printf("seq %-4d resync: %d results\n", ev.Seq, len(ev.TopK))
		default:
			fmt.Printf("seq %-4d %s trajectory %d (%.3f km)\n", ev.Seq, ev.Kind, ev.ID, ev.Dist)
		}
		for ri, r := range ev.TopK {
			fmt.Printf("  %2d. trajectory %-6d distance %8.3f km\n", ri+1, r.ID, r.Dist)
		}
	}
}

// readSSEEvent reads one server-sent event's data payload, skipping
// keepalive comments.
func readSSEEvent(br *bufio.Reader) (server.EventJSON, error) {
	var ev server.EventJSON
	have := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if have {
				return ev, nil
			}
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return ev, fmt.Errorf("bad event payload: %w", err)
			}
			have = true
		}
	}
}

func printResults(results []activitytraj.Result, spans [][2]int32, ds *activitytraj.Dataset, verbose bool) {
	for ri, r := range results {
		if ri < len(spans) && spans[ri][1] >= spans[ri][0] {
			fmt.Printf("  %2d. trajectory %-6d distance %8.3f km  span [%d..%d]\n",
				ri+1, r.ID, r.Dist, spans[ri][0], spans[ri][1])
		} else {
			fmt.Printf("  %2d. trajectory %-6d distance %8.3f km\n", ri+1, r.ID, r.Dist)
		}
		if verbose && int(r.ID) < len(ds.Trajs) {
			describeTrajectory(&ds.Trajs[r.ID], ds.Vocab)
		}
	}
	fmt.Println()
}

func buildEngine(name string, store *activitytraj.TrajStore) activitytraj.Engine {
	switch strings.ToLower(name) {
	case "gat":
		e, err := activitytraj.NewGAT(store, activitytraj.GATConfig{})
		if err != nil {
			log.Fatalf("gat: %v", err)
		}
		return e
	case "il":
		return activitytraj.NewIL(store)
	case "rt":
		return activitytraj.NewRT(store)
	case "irt":
		return activitytraj.NewIRT(store)
	default:
		log.Fatalf("unknown engine %q (want gat|il|rt|irt)", name)
		return nil
	}
}

// parseQuery parses "x,y:act1,act2;x,y:act3".
func parseQuery(s string, vocab *activitytraj.Vocabulary) (activitytraj.Query, error) {
	var q activitytraj.Query
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		locActs := strings.SplitN(part, ":", 2)
		if len(locActs) != 2 {
			return q, fmt.Errorf("query point %q: want x,y:acts", part)
		}
		xy := strings.SplitN(locActs[0], ",", 2)
		if len(xy) != 2 {
			return q, fmt.Errorf("location %q: want x,y", locActs[0])
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(xy[0]), 64)
		if err != nil {
			return q, fmt.Errorf("x %q: %v", xy[0], err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(xy[1]), 64)
		if err != nil {
			return q, fmt.Errorf("y %q: %v", xy[1], err)
		}
		var ids []activitytraj.ActivityID
		for _, name := range strings.Split(locActs[1], ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if strings.HasPrefix(name, "@") {
				n, err := strconv.Atoi(name[1:])
				if err != nil {
					return q, fmt.Errorf("activity id %q: %v", name, err)
				}
				ids = append(ids, activitytraj.ActivityID(n))
				continue
			}
			id, ok := vocab.ID(name)
			if !ok {
				return q, fmt.Errorf("activity %q not in vocabulary", name)
			}
			ids = append(ids, id)
		}
		q.Pts = append(q.Pts, activitytraj.QueryPoint{
			Loc:  activitytraj.Point{X: x, Y: y},
			Acts: activitytraj.NewActivitySet(ids...),
		})
	}
	return q, q.Validate()
}

func describeQuery(qi int, q activitytraj.Query, vocab *activitytraj.Vocabulary) {
	fmt.Printf("query %d (|Q|=%d, δ=%.1fkm):\n", qi, q.Len(), q.Diameter())
	for i, p := range q.Pts {
		names := make([]string, len(p.Acts))
		for j, a := range p.Acts {
			names[j] = vocab.Name(a)
		}
		fmt.Printf("  q%d (%.2f, %.2f) {%s}\n", i+1, p.Loc.X, p.Loc.Y, strings.Join(names, ", "))
	}
}

func describeTrajectory(tr *activitytraj.Trajectory, vocab *activitytraj.Vocabulary) {
	for pi, p := range tr.Pts {
		if pi >= 8 {
			fmt.Printf("      … %d more points\n", len(tr.Pts)-pi)
			break
		}
		names := make([]string, len(p.Acts))
		for j, a := range p.Acts {
			names[j] = vocab.Name(a)
		}
		fmt.Printf("      p%-3d (%.2f, %.2f) {%s}\n", pi+1, p.Loc.X, p.Loc.Y, strings.Join(names, ", "))
	}
}
