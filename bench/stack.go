package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"activitytraj/internal/delta"
	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/shard"
	"activitytraj/internal/subscribe"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

const (
	numShards      = 4
	requestTimeout = 5 * time.Second
)

// stack is the served system under test: a 4-shard router behind
// internal/server on a loopback TCP listener, plus the keep-alive client
// connections that drive it.
type stack struct {
	router *shard.Router
	srv    *server.Server
	http   *http.Server
	served chan error
	url    string
	conns  []*http.Client

	subs      []*subscribe.Subscription
	consumers sync.WaitGroup
	joinMu    sync.Mutex
	joinAt    map[trajectory.TrajID]time.Time // first join event seen per inserted ID
}

// shardConfig is the workload's router configuration, durable under dataDir
// when one is given (wal.SyncAlways, atsqserve's default).
func (wl workload) shardConfig(dataDir string) shard.Config {
	return shard.Config{
		Shards:     numShards,
		Delta:      delta.Config{Store: wl.store, CompactThreshold: wl.compactThreshold},
		Durability: delta.Durability{Dir: dataDir, Sync: wal.SyncAlways},
	}
}

// startStack builds the router over base, serves it and opens nconn client
// connections. errlog receives the server's 5xx detail.
func startStack(wl workload, base *trajectory.Dataset, dataDir string, nconn int, errlog *log.Logger) (*stack, error) {
	router, _, err := shard.OpenOrCreate(base, wl.shardConfig(dataDir))
	if err != nil {
		return nil, fmt.Errorf("build router: %w", err)
	}
	st := &stack{router: router, joinAt: map[trajectory.TrajID]time.Time{}}
	st.srv = server.New(router, server.Options{
		Workers:            nconn,
		Vocab:              base.Vocab,
		ErrorLog:           errlog,
		ResultCacheEntries: wl.resultCache,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		_ = router.Close() // the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.url = "http://" + ln.Addr().String()
	st.http = &http.Server{Handler: st.srv.Handler(), ErrorLog: errlog}
	st.served = make(chan error, 1)
	go func() { st.served <- st.http.Serve(ln) }()
	for i := 0; i < nconn; i++ {
		st.conns = append(st.conns, &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return st, nil
}

// post sends body to path on connection conn and returns the reply.
func (st *stack) post(conn int, path string, body []byte) (int, []byte, error) {
	resp, err := st.conns[conn].Post(st.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// subscribeAll registers one standing query per request and parks a
// consumer in Subscription.Next for each, like a streaming handler would.
func (st *stack) subscribeAll(reqs []query.Request) error {
	for _, req := range reqs {
		req.WithMatches = false // standing queries track distances, not covers
		sub, err := st.srv.Hub().Subscribe(context.Background(), req)
		if err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
		st.subs = append(st.subs, sub)
		st.consumers.Add(1)
		go st.consume(sub)
	}
	return nil
}

func (st *stack) consume(sub *subscribe.Subscription) {
	defer st.consumers.Done()
	var after uint64
	for {
		evs, wait, closed := sub.Next(after)
		if len(evs) > 0 {
			now := time.Now()
			st.joinMu.Lock()
			for _, ev := range evs {
				if _, seen := st.joinAt[ev.ID]; ev.Kind == subscribe.EventJoin && !seen {
					st.joinAt[ev.ID] = now
				}
			}
			st.joinMu.Unlock()
			after = evs[len(evs)-1].Seq
			continue
		}
		if closed {
			return
		}
		<-wait
	}
}

// quiesce waits until no shard has a background compaction in flight, so
// the goroutines the router started have ended before it is closed.
func (st *stack) quiesce() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		busy := false
		for _, ss := range st.router.Stats().PerShard {
			busy = busy || ss.Delta.Compacting
		}
		if !busy {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("compaction still running after 60 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the listener, the hub and its consumers, and the router, and
// returns once their goroutines have ended.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.http.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range st.conns {
		c.CloseIdleConnections()
	}
	st.srv.Close()
	st.consumers.Wait()
	if qerr := st.quiesce(); err == nil {
		err = qerr
	}
	if cerr := st.router.Close(); err == nil {
		err = cerr
	}
	return err
}

// searchResults extracts the raw "results" array and the stats of a
// /v1/search reply.
func searchResults(body []byte) (json.RawMessage, query.SearchStats, error) {
	var reply struct {
		Results json.RawMessage   `json:"results"`
		Stats   query.SearchStats `json:"stats"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, reply.Stats, fmt.Errorf("search reply: %w", err)
	}
	return reply.Results, reply.Stats, nil
}

// wantResults is the "results" array the server must send for resp.
func wantResults(resp query.Response) []byte {
	b, err := json.Marshal(server.SearchResponseJSON(resp, 0).Results)
	if err != nil {
		panic(err) // distances are finite
	}
	return b
}
