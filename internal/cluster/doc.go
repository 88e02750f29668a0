// Package cluster promotes the in-process shard boundary of internal/shard
// to the network: per-shard server processes replicated N ways behind a
// router tier that scatter-gathers searches with the same exactness
// contract as the single-process engine, fails over between replicas, fans
// mutations to all live replicas (catching lagging ones up by shipping WAL
// segments), and degrades gracefully — a shard with no live replica yields
// a Partial response with the exact top-k over the surviving shards instead
// of an error, unless the request sets RequireComplete.
//
// The building blocks are deliberately small and separately testable:
// Backoff/PostRetry (capped exponential backoff with full jitter, shared
// with the atsqsearch client), Breaker (a per-replica closed/open/half-open
// circuit breaker fed by passive request outcomes and periodic /healthz
// probes), Node (one replica of one shard: a dynamic index over the
// layout-derived sub-corpus with a gid-carrying replication WAL), and
// Router (topology, failover, degraded mode; its search is shard.Planner
// over HTTP legs). Both serve HTTP through internal/server's one handler
// set: NewNodeServer and NewRouterServer only supply the backends.
package cluster
