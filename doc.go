// Package activitytraj is a library for similarity search over activity
// trajectories — sequences of geo-tagged points annotated with the
// activities performed there (check-in histories, geo-tagged media trails).
// It is a from-scratch reproduction of
//
//	Kai Zheng, Shuo Shang, Nicholas Jing Yuan, Yi Yang.
//	"Towards Efficient Search for Activity Trajectories." ICDE 2013.
//
// Given a query — a list of locations, each with a set of desired
// activities — the library answers:
//
//   - ATSQ (activity trajectory similarity query): the k trajectories that
//     cover every query location's activities at the smallest summed
//     distance (the minimum match distance Dmm);
//   - OATSQ (order-sensitive ATSQ): the same with the matches required to
//     follow the order of the query locations (Dmom).
//
// The primary engine is GAT, a hybrid hierarchical grid index that prunes
// by spatial proximity and activity containment simultaneously; the paper's
// three baselines (inverted lists, R-tree, IR-tree) are included for
// comparison and share the exact same evaluation pipeline.
//
// # Quick start
//
//	ds, _ := activitytraj.GenerateDataset(activitytraj.PresetNY(0.02))
//	store, _ := activitytraj.NewStore(ds)
//	engine, _ := activitytraj.NewGAT(store, activitytraj.GATConfig{})
//
//	q := activitytraj.Query{Pts: []activitytraj.QueryPoint{
//	    {Loc: activitytraj.Point{X: 12.5, Y: 30.1},
//	     Acts: ds.Vocab.SetFromNames("act000001", "act000007")},
//	}}
//	resp, _ := engine.Search(ctx, activitytraj.Request{Query: q, K: 10})
//	for _, r := range resp.Results { ... }
//
// See the examples directory for complete programs and ARCHITECTURE.md
// for how the layers fit together.
//
// # The query API: Search(ctx, Request) -> Response
//
// Every engine answers through one entry point:
//
//	Search(ctx context.Context, req query.Request) (query.Response, error)
//
// Request names the query and K, selects the paper's ATSQ or (with Ordered)
// OATSQ distance, and carries the per-request options:
//
//   - InitialBound seeds the Algorithm-2 pruning threshold, as if a k-th
//     result at that distance were already known. Results beyond it are
//     pruned from the first batch on — the budgeted-search knob for
//     latency-bounded serving. It composes with the sharded engine's
//     cross-shard bound sharing: the effective threshold is always the
//     minimum of the local k-th distance, the shared global bound, and
//     InitialBound.
//   - Region restricts matching spatially: only trajectory points inside
//     the rectangle may satisfy query activities. The GAT engines prune
//     out-of-region cells during the best-first expansion, the sharded
//     planner skips non-intersecting shards, and the baselines post-filter
//     candidate rows — all returning identical results.
//   - WithMatches asks for Response.Matches: per result, per query point,
//     the ascending trajectory point indexes of the minimal match behind
//     the reported distance (order-compliant for Ordered requests). The
//     covers are re-derived for the final top-k only, never per candidate.
//   - Subtrajectory switches the distance to similar-subtrajectory
//     semantics: a trajectory scores as the minimum over its contiguous
//     point spans, so a long trail containing one tight segment ranks by
//     that segment instead of paying for its length. MinSpanPoints /
//     MaxSpanPoints bound the eligible span length (zero means unlimited);
//     they are only valid together with Subtrajectory. The span optimum is
//     computed exactly by a split-point DP in the matcher — no
//     approximation — and every engine family serves it byte-identically.
//     Combined with WithMatches, Response.Spans reports each result's
//     winning [start, end] point window (the HTTP wire surfaces it as
//     "span"; atsqsearch takes -subtrajectory, -min-span, -max-span).
//
// Response carries the results, the per-request SearchStats in-band (exact
// even under concurrent serving), and a Truncated flag: when ctx is cancelled or its deadline expires, engines
// return the partial top-k gathered so far with Truncated set, alongside
// the context's error. Cancellation is honored between candidate batches —
// the per-candidate hot path never reads the context — and an already
// expired context returns before a single disk page is touched. The
// sharded engine additionally cancels in-flight sibling shard searches the
// moment its context is done or any shard fails.
//
// # Concurrency model
//
// Every index structure is immutable once built, and the shared storage
// layer underneath — the page buffer pool and the decoded-structure caches —
// is safe for concurrent use (both are sharded so concurrent readers do not
// serialize on a single lock). Every Engine is safe for concurrent use as
// well: the reusable per-search scratch (heaps, generation-stamped visited
// sets, decode buffers) that lets a warm search allocate almost nothing is
// checked out of a per-engine free list when a search starts and returned
// when it ends, so an engine holds as many scratch sets as it has ever run
// searches at once.
//
// To serve queries concurrently, either:
//
//   - call one engine's Search from as many goroutines as needed; or
//
//   - use ParallelEngine, whose SearchAll fans a whole request batch out
//     over a fixed number of goroutines sharing the engine, with an
//     order-preserving response slice, abandoning the remaining queue on
//     the first failure or cancellation.
//
//     pe := activitytraj.NewParallelEngine(engine, runtime.GOMAXPROCS(0))
//     resps, _ := pe.SearchAll(ctx, reqs)
//
// Per-request accounting travels in each Response.Stats, so it is exact for
// every request however many are in flight; a batch total is the sum over
// SearchAll's responses.
//
// # Batched execution and the result cache
//
// SearchAll does more than fan out: before executing a batch it plans it.
// Engines that can map a query to a position on the index's Z-order curve
// (GAT, dynamic, sharded — via query.BatchKeyer) have their batches sorted
// by that key and cut into groups at grid-ancestor boundaries, so each
// group is a set of queries about to walk overlapping index regions. A
// group runs consecutively on one worker, so its later searches find the
// pages and decoded structures its first one faulted in still resident —
// nothing is read ahead. Planning is invisible in the output: responses
// come back in input order and are byte-identical to serial execution.
// SetBatchPlanning(false) disables it.
//
// A ParallelEngine can additionally carry a result cache, and so can the
// HTTP server (atsqserve -result-cache N):
//
//	rc := activitytraj.NewResultCache(1024, dynamicIndex)
//	pe.SetResultCache(rc)
//
// NewResultCache memoizes whole responses keyed on the canonical encoding
// of (Query, K, Ordered, InitialBound, Region, WithMatches) tagged with
// the EpochSource's mutation epoch. Dynamic and sharded indexes implement
// EpochSource: the epoch advances after every Insert/Delete/compaction
// becomes search-visible and before it is acknowledged, so a cached entry
// can never outlive the corpus it observed — any mutation implicitly
// invalidates the whole cache without touching it. For immutable indexes
// StaticEpoch pins the epoch at zero and entries live until evicted. A
// hit returns a defensive copy whose Stats carry only the ResultCacheHits
// marker (the original search's work is not replayed into aggregates);
// misses are tallied in ResultCacheMisses. Truncated responses are never
// cached. On a Zipf-skewed workload the planner and cache together are
// worth >2x throughput (BenchmarkSkewedBatch, floor-gated in CI).
//
// # Dynamic ingestion
//
// The paper builds its index once over a frozen corpus; this library also
// serves live traffic. NewDynamic wraps the same GAT machinery in an
// LSM-style dynamic index:
//
//	d, _ := activitytraj.NewDynamic(ds, activitytraj.DynamicConfig{})
//	eng := d.NewEngine()
//	id, _ := d.Insert(activitytraj.Trajectory{Pts: pts}) // visible immediately
//	_ = d.Delete(id)                                     // masked immediately
//	resp, _ := eng.Search(ctx, activitytraj.Request{Query: q, K: 10}) // exact over base ∪ delta
//
// Writes land in an in-memory delta layer — a mutable mini-GAT (per-cell
// inverted trajectory lists, an all-in-memory HICL, per-trajectory activity
// sets and posting lists) plus a tombstone set for deletes. Searches merge
// the delta with the immutable base index inside the best-first expansion
// itself, so the paper's upper/lower-bound pruning applies to both layers
// and results are exact — byte-identical to rebuilding the index over the
// merged corpus. Deletes are tombstones: they mask matches from any layer
// at candidate-collection time and are physically reclaimed at the next
// compaction.
//
// Once the delta accumulates DynamicConfig.CompactThreshold mutations
// (default 4096; negative disables), a background compaction rebuilds
// base+delta into a fresh immutable generation and atomically swaps it in,
// RCU-style: the delta is first frozen behind a new empty active layer (so
// writes never block on the rebuild), in-flight searches finish on the
// generation they started on, and the retired generation's caches are
// dropped once its last search drains. CompactNow forces a compaction
// synchronously. Trajectory IDs are assigned densely after the base
// dataset's and remain stable across compactions.
//
// Engines from (*DynamicIndex).NewEngine follow generation swaps
// automatically and are safe for concurrent use, so NewParallelEngine
// serves a dynamic index exactly like a static one. Search cost over
// the delta shows up in SearchStats.DeltaCandidates.
//
// # Sharded serving and cross-shard bound sharing
//
// NewSharded horizontally partitions a corpus into K spatial shards —
// contiguous Z-order ranges over leaf cells, cut at near-equal trajectory
// counts — each owning its own trajectory store, GAT index and delta
// layer, so shards build, ingest and compact independently. The router's
// engine answers a query scatter-gather: it plans against per-shard lower
// bounds (each query point must match inside the shard's bounding
// rectangle, so the summed minimum distances lower-bound any match
// distance there), searches the intersecting shards concurrently, and
// merges their result streams into one shared global top-k.
//
// The merge is where the paper's machinery pays off across machines-worth
// of index: every in-flight shard search reads the shared top-k's running
// k-th distance back as an extra pruning bound — the same MMD_k threshold
// Algorithms 1 and 2 prune with locally, except now fed by sibling shards.
// The shared bound is an upper bound on the final global k-th distance at
// every moment, so per-candidate score abandoning and the termination test
// (Dlb above the bound ends the shard's expansion) stay exact, and a shard
// holding nothing close terminates after a few batches instead of
// assembling k local results. Remaining shards whose region bound already
// exceeds the global threshold are skipped outright
// (SearchStats.ShardsSkipped); results are byte-identical to a single
// unpartitioned index, which internal/enginetest pins differentially,
// mutations included.
//
// Global trajectory IDs are dense and monotone across the router —
// shard-local IDs translate through order-preserving maps, so (distance,
// ID) tie-breaking agrees with the single-index ordering. Router.Insert
// routes by the first point's leaf cell; Router.Delete routes to the
// owning shard. cmd/atsqserve serves a sharded index over HTTP.
//
// # Standing queries
//
// internal/subscribe (surfaced over HTTP as /v1/subscribe) turns a
// one-shot Request into a subscription whose top-k stays current as the
// corpus mutates. The lifecycle: Subscribe validates the request and
// seeds the top-k with one ordinary search; from then on a hub hooked
// into the dynamic index's mutation stream maintains it incrementally —
// each insert is screened by an admissible lower bound (the paper's
// Algorithm-2 bound run in reverse, from the new trajectory's bounding
// box to the standing query) and scored exactly only if it could enter
// the top-k, while a delete of a current member triggers a re-search
// seeded with the old k-th distance as its pruning bound. Every change
// appends a join/leave event — monotone sequence number, full top-k
// snapshot — to a bounded per-subscription ring; a consumer that falls
// behind the ring receives a single resync event (full snapshot, current
// sequence) instead of a gap, and resuming from any retained sequence
// replays exactly. Unsubscribe (or, over HTTP, an SSE client hanging up)
// frees the subscription; closing the hub closes every stream. The
// maintained top-k is byte-identical to a from-scratch search after
// every mutation, which internal/enginetest pins differentially.
//
// # Durability and crash recovery
//
// Dynamic and sharded indexes are in-memory by default: a crash loses
// every mutation since boot. OpenDynamic / OpenSharded add write-ahead
// durability under a data directory:
//
//	cfg := activitytraj.ShardedConfig{Shards: 4}
//	cfg.Durability = activitytraj.Durability{Dir: "/var/lib/atsq", Sync: activitytraj.SyncGroup}
//	r, info, _ := activitytraj.OpenSharded(ds, cfg)   // replays whatever a crash left
//	defer r.Close()                                   // seals the logs
//
// The lifecycle is WAL → snapshot → prune. Every Insert/Delete is encoded
// into a checksummed, length-prefixed log record and appended to the
// write-ahead log BEFORE it is applied, and acknowledged only after the
// record is durable per the sync policy. When a compaction folds the delta
// into a fresh base generation, the generation is also persisted as a
// snapshot named by the last log sequence it covers, the manifest is
// committed atomically (write-temp, fsync, rename), and log segments the
// snapshot covers are pruned. Reopening the directory loads the manifest's
// snapshot and replays the remaining log suffix — record sequence numbers
// are strictly contiguous, so a gap or a mid-log checksum failure is
// corruption and refuses to open, while a torn tail (a crash mid-append,
// detected by length/checksum at the end of the final segment) is expected
// and truncated. The recovered index holds a consistent prefix of the
// attempted mutation stream that includes every acknowledged mutation, and
// searches on it are byte-identical to an index that never crashed with
// that prefix applied; trajectory IDs are re-derived from replay order, so
// they too match exactly.
//
// Durability.Sync trades acknowledgment latency for crash-loss guarantees:
//
//   - SyncAlways (default): fsync before every acknowledgment. No
//     acknowledged mutation is ever lost, at one fsync per mutation.
//   - SyncGroup: concurrent commits coalesce into one fsync (group
//     commit, with a short gather window). Same guarantee as SyncAlways
//     for every acknowledged write, amortized across writers.
//   - SyncOff: appends reach the OS page cache only. A process crash
//     loses nothing; a machine crash may lose a recently-acknowledged
//     suffix (recovery still yields a consistent prefix).
//
// A WAL write or sync failure is fail-stop: the index keeps serving reads
// but refuses further mutations, so memory can never run ahead of what the
// log can replay.
//
// The dynamic index, the sharded router and a cluster shard replica run
// one durability protocol, internal/wal's: recovery is wal.Recover, a
// mutation is Stream.Log under the owner's lock before the in-memory
// apply and Commit.Wait outside it, and a volatile index is a nil Stream.
// Each adds only its own part: the dynamic index the snapshot, manifest
// and prune lifecycle above; the router one such directory per shard plus
// an append-only routing journal, so global ID assignment replays
// deterministically and survives a crash at any point, recovery included;
// the replica records that carry the global ID, so catch-up ships log
// segments. cmd/atsqserve exposes all of it via -data-dir and -sync, and
// ci/e2e_crash.sh kills a serving process mid-ingest and diffs the
// recovered server against an uncrashed twin.
//
// # Cache tuning
//
// Four sharded LRU caches serve the read path. Three sit in front of the
// simulated disk, memoize decoded index structures, and are shared by all
// searches:
//
//   - StoreConfig.APLCacheEntries caps the decoded Activity Posting List
//     cache in the trajectory store (default 8192 entries; negative
//     disables it). Candidates re-examined by later queries skip both the
//     page reads and the varint decode. Candidates lacking a query
//     activity never reach this cache or the buffer pool (see below), so
//     size both by the trajectories searches score, not retrieve (about
//     443 of 1,399 per search on the repository benchmark's corpus).
//   - StoreConfig.CoordCacheEntries caps the decoded-coordinate cache
//     (default 8192 trajectories; negative disables it). Entries are
//     sparse: only the points queries actually referenced are faulted in,
//     so a cached trajectory costs memory proportional to what was read,
//     and repeat candidates cost zero page reads.
//   - GATConfig.HICLCacheEntries caps the decoded disk-level HICL
//     cell-set cache in the GAT index (default 4096 entries).
//
// The fourth — the result cache (see "Batched execution and the result
// cache" above) — sits above the engines and memoizes whole responses.
// It is opt-in and sized by NewResultCache's entries argument (cap it by
// working-set: one entry per distinct (query, options) pair you expect to
// repeat within a mutation epoch; entries are invalidated wholesale by
// any mutation, so a write-heavy corpus wants a small cache or none).
//
// Decoded-structure cache traffic is reported per search in
// SearchStats.CacheHits and SearchStats.CacheMisses — one lookup per APL
// or coordinate fetch and one per disk-level HICL list resolved, which a
// GAT search does once for each (level, query point activity) it reaches,
// not once per cell it pops — result-cache traffic
// in SearchStats.ResultCacheHits and ResultCacheMisses; simulated page
// reads in SearchStats.PageReads drop as the caches warm. Engines
// measured by the experiment harness reset the caches between workloads
// so cold-cache comparisons stay fair.
//
// # Retrieval: a bucketed best-first descent
//
// Algorithm 1 descends the HICL to the leaf level before it reads an ITL
// list; the GAT searcher stops as soon as what the query asks for below a
// popped cell is small. The ITL is one arena laid out activity-major — per
// activity the leaves carrying it in Z order, per (activity, leaf) a list —
// so the lists of one activity under one cell are a contiguous range, found
// by bisecting that activity's leaves alone. A cell whose masked activities
// have at most 64 lists below it between them has exactly those ranges —
// and the delta layers' lists for the same Z interval — emitted in the one
// pop, the way an R-tree's kNN pops nodes holding a bucket of entries; a
// leaf that carries none of the query point's activities is never touched,
// however built-up the city around it. Cells dense in what is asked for
// keep splitting. Nothing about the answer changes (a pulled subtree leaves
// no trajectory behind for the Algorithm-2 bound to miss, a cell is never
// farther than its leaves, and the top-k does not depend on arrival
// order); against the leaf-by-leaf walk SearchStats.PQPops falls more
// than tenfold and Candidates rises by about a tenth. The index file keeps the
// paper's leaf-major order, so the layout is invisible on disk.
// ARCHITECTURE.md section 5 has the measurements.
//
// # I/O-minimizing candidate pipeline
//
// Candidate evaluation is built to touch as few pages and decode as few
// bytes as the answer allows:
//
//   - Reject before fetching. In place of the paper's sketch the store
//     keeps every trajectory's exact activity set in memory (4 bytes per
//     distinct activity): a candidate lacking a query activity — two in
//     three on the benchmark corpus — reads no page, makes no cache lookup
//     and decodes nothing (SearchStats.HeaderOnlyRejects).
//   - Box before fetch. Beside each activity of that set the store keeps a
//     4-byte box of the trajectory's points carrying it, rounded outward
//     onto a 256 × 256 lattice over the store's bounds. A candidate whose
//     summed distance from the query points to their activities' boxes
//     already exceeds the pruning threshold is decided at +Inf without a
//     fetch (SearchStats.BoxScreened) — exactly the candidates the matcher
//     would abandon, bit for bit. Every query mode screens before the APL
//     fetch.
//   - Positions before coordinates. Once a candidate's query-activity
//     posting lists are decoded, two exact tests read only point indexes:
//     a greedy order test (ordered queries) decides whether any
//     order-sensitive match exists, and a k-pointer sweep (subtrajectory
//     queries) whether any window of the allowed span length holds every
//     query activity. A candidate failing either is rejected
//     (SearchStats.OrderRejected, SearchStats.SpanRejected) before its
//     coordinates are fetched or a dynamic program runs. The order test
//     replaces the paper's MIB filter, which still runs on the
//     region-filtered rows of a Region request.
//   - Blocked APLs. An Activity Posting List segment starts with a header
//     (activity set + per-activity block-length skip table). A cache miss
//     reads the segment once and holds the header to the in-memory set — a
//     disagreement is a corruption error, never a different answer — and
//     only the queried activities' blocks are decoded, memoized on the
//     shared cached APL.
//   - One resolution per candidate. The query's distinct activities are
//     resolved against the candidate's activity set in one forward merge —
//     the first absent activity is the reject — and from then on posting
//     lists are addressed by that position and query points by slot, so no
//     activity is looked up twice. The union of point indexes to fetch and
//     every query point's row (index, distance, coverage mask) come from
//     scattering the lists into a bitmap over the trajectory's points and
//     reading it back in order; Algorithm 3 is then handed the nearest
//     point of each distinct coverage mask (at most 2^|q.Φ| - 1 points)
//     rather than a sorted copy of the row — the same float64 bits, since
//     a farther point with a mask already seen is a no-op in Algorithm 3.
//     A delta-resident candidate runs the same steps over one in-memory
//     entry lookup.
//   - Sparse coordinate reads. Points are fixed-stride on disk, so the
//     evaluator fetches only the pages containing the point indexes the
//     match rows reference, and decodes only those points — memoized in
//     the sparse coordinate cache so each (trajectory, point) is read from
//     disk at most once while resident.
//   - Hybrid posting containers. HICL cell lists (in memory and on disk),
//     the IL baseline's lists and the delta layer's presence sets use
//     invindex.Set — roaring-style sorted-array/bitmap containers with O(1)
//     dense probes, single-word quad-sibling masks (Mask4), galloping
//     sparse intersection and whole-container skipping.
//   - Demand paging only. Each λ-batch is scored in the order retrieval
//     hands it over, nearest cells first, so the pruning threshold tightens
//     as early as it can and the box screen decides more candidates before
//     any fetch; a page is read only when a candidate that survived the
//     screens needs it. Nothing is read ahead: on an in-memory pager a
//     readahead is the same copy made earlier, and most of what it warmed
//     were candidates the box screen then decided without a fetch.
//
// SearchStats.BytesDecoded counts the bytes actually decoded per search;
// the persisted GAT index format (version 2) stores HICL lists in the
// container encoding and migrates version-1 streams on load.
package activitytraj
