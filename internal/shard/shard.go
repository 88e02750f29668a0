// Package shard horizontally partitions an activity-trajectory corpus into
// K spatial shards and serves exact global top-k queries over them with a
// scatter-gather search.
//
// Partitioning is by Z-order range over leaf cells: every trajectory maps
// to the leaf cell of its first point on a partition grid fitted to the
// corpus, trajectories are ordered along the Z curve, and the curve is cut
// into K contiguous ranges of near-equal trajectory count. Each shard owns
// a full single-node stack — its own TrajStore, GAT index and delta layer
// (a delta.Dynamic) — so shards ingest, search and compact independently.
//
// The Router keeps the shard map, assigns global trajectory IDs (local IDs
// are per-shard dense; the mapping preserves order, so shard-local
// (distance, ID) tie-breaks agree with global ones), and routes inserts and
// deletes to the owning shard. Searches go through Engine: the query is
// planned against per-shard lower bounds (the sum over query points of the
// minimum distance to the shard's bounding rectangle lower-bounds any match
// distance in the shard), the intersecting shards are searched
// concurrently, and every shard search feeds one shared global top-k whose
// running k-th distance is broadcast back into the in-flight searches
// (gat.Engine.SearchShared) so their Algorithm-2 termination bounds tighten
// mid-flight. Results are exactly those of a single-index engine over the
// unpartitioned corpus — see internal/enginetest for the differential gate.
package shard

import (
	"encoding/binary"
	"fmt"
	"sync"

	"activitytraj/internal/delta"
	"activitytraj/internal/geo"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// Config tunes shard construction.
type Config struct {
	// Shards is K, the number of spatial partitions. 0 selects
	// DefaultShards.
	Shards int
	// PartitionDepth is the grid level whose Z-order codes define shard
	// ranges (the partition granularity, independent of each shard's own
	// GAT grid). 0 selects DefaultPartitionDepth.
	PartitionDepth int
	// Delta configures each shard's dynamic index (base GAT/store options
	// and the auto-compaction threshold). Delta.Durability must be unset:
	// durability is configured router-wide via Durability, which derives a
	// per-shard directory for each shard's WAL and snapshots.
	Delta delta.Config
	// Durability persists the router durably under one data directory:
	// each shard's mutations in its own WAL (Dir/shard-NNN), the routing
	// journal (which shard each global insert went to) in Dir/journal, and
	// the partition layout in Dir/router.json. The zero value disables it;
	// a durable router must be opened with OpenOrCreate, not NewRouter.
	Durability delta.Durability
}

// Defaults for Config's zero values.
const (
	DefaultShards         = 4
	DefaultPartitionDepth = 8
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.PartitionDepth <= 0 {
		c.PartitionDepth = DefaultPartitionDepth
	}
	if c.PartitionDepth > 15 {
		c.PartitionDepth = 15
	}
	return c
}

// owner locates a global trajectory ID inside the shard map.
type owner struct {
	shard int32
	local trajectory.TrajID
}

// Shard is one spatial partition: a dynamic GAT index over the shard's
// sub-corpus plus the local→global ID mapping and the bounding rectangle of
// every point the shard has ever held (grown on insert, never shrunk — a
// stale-but-larger rectangle only weakens pruning, never correctness).
type Shard struct {
	d *delta.Dynamic
	// eng searches d; every scatter-gather engine shares it.
	eng *delta.Engine
	// zlo/zhi is the owned Z-code range [zlo, zhi) at the partition depth.
	zlo, zhi uint32

	// idmu guards globalIDs. Searches hold the read lock for their whole
	// duration so every trajectory they can observe has its global mapping in
	// place; Insert holds the write lock across the delta-insert and the
	// mapping append, making the two atomic to readers.
	idmu      sync.RWMutex
	globalIDs []trajectory.TrajID
	bounds    Bounds
}

// Dynamic returns the shard's underlying dynamic index (stats, explicit
// compaction). Mutations MUST go through the Router, which owns global ID
// assignment.
func (sh *Shard) Dynamic() *delta.Dynamic { return sh.d }

// ZRange returns the shard's owned Z-code range [lo, hi) at the partition
// depth.
func (sh *Shard) ZRange() (lo, hi uint32) { return sh.zlo, sh.zhi }

// Bounds returns the bounding rectangle of the shard's points and whether
// the shard has ever held any point.
func (sh *Shard) Bounds() (geo.Rect, bool) { return sh.bounds.Rect() }

// Router owns the shard map: it builds the partitions, assigns global
// trajectory IDs, routes mutations to the owning shard, and spawns
// scatter-gather engines (NewEngine). All methods are safe for concurrent
// use.
type Router struct {
	cfg    Config
	layout *Layout
	shards []*Shard

	mu     sync.Mutex // serializes writers (global ID assignment, owners)
	nextID int
	owners []owner

	// journal records which shard every global insert was routed to (see
	// OpenOrCreate); nil for a volatile router.
	journal *wal.Stream
}

// NewRouter partitions ds into cfg.Shards spatial shards and builds each
// shard's store, GAT index and delta layer. The dataset must satisfy
// (*Dataset).Validate and is treated as immutable afterwards. A router with
// Config.Durability set must be opened with OpenOrCreate instead.
func NewRouter(ds *trajectory.Dataset, cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Durability.Dir != "" {
		return nil, fmt.Errorf("shard: durable routers must be opened with OpenOrCreate")
	}
	if cfg.Delta.Durability.Dir != "" {
		return nil, fmt.Errorf("shard: durable shards must be opened with OpenOrCreate")
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("shard: invalid dataset: %w", err)
	}
	r := &Router{cfg: cfg, nextID: len(ds.Trajs)}
	if _, err := r.partition(ds, nil, func(int) delta.Config { return cfg.Delta }); err != nil {
		return nil, err
	}
	return r, nil
}

// partition fits the partition grid, cuts the Z curve into cfg.Shards
// ranges of near-equal trajectory count, and opens the per-shard indexes,
// shard si with shardCfg(si), through delta.OpenOrCreateAll: the shards are
// built side by side and their logs recovered in shard order. It returns
// each shard's recovery in shard order; on failure no shard is left open. A
// non-nil manifest supplies a previously persisted grid and cut layout
// instead of computing one, so a reopened router routes exactly as the
// original did.
func (r *Router) partition(ds *trajectory.Dataset, man *routerManifest, shardCfg func(si int) delta.Config) ([]delta.RecoveryInfo, error) {
	var (
		l   *Layout
		err error
	)
	if man != nil {
		l, err = NewLayout(r.cfg.PartitionDepth, geo.Point{X: man.OriginX, Y: man.OriginY}, man.Side, man.Cuts)
		if err != nil {
			return nil, fmt.Errorf("shard: layout from manifest: %w", err)
		}
	} else {
		l, err = PlanLayout(ds, r.cfg.Shards, r.cfg.PartitionDepth)
		if err != nil {
			return nil, err
		}
	}
	if l.NumShards() != r.cfg.Shards {
		return nil, fmt.Errorf("shard: layout has %d shards, config wants %d", l.NumShards(), r.cfg.Shards)
	}

	k := r.cfg.Shards
	shards := make([]*Shard, k)
	owners := make([]owner, len(ds.Trajs))
	subs, cfgs := make([]*trajectory.Dataset, k), make([]delta.Config, k)
	for si := range shards {
		lo, hi := l.ZRange(si)
		sh := &Shard{zlo: lo, zhi: hi}
		sub, gids := l.SubDataset(ds, si)
		sh.globalIDs = gids
		for li, gid := range gids {
			owners[gid] = owner{shard: int32(si), local: trajectory.TrajID(li)}
			sh.bounds.Extend(ds.Trajs[gid].Pts)
		}
		shards[si], subs[si], cfgs[si] = sh, sub, shardCfg(si)
	}
	dyns, infos, failed, err := delta.OpenOrCreateAll(subs, cfgs)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", failed, err)
	}
	for si, d := range dyns {
		shards[si].d, shards[si].eng = d, d.NewEngine()
	}
	r.layout, r.shards, r.owners = l, shards, owners
	return infos, nil
}

// Layout returns the router's partition layout (shared with cluster
// topologies so external processes route identically).
func (r *Router) Layout() *Layout { return r.layout }

// NumShards returns K.
func (r *Router) NumShards() int { return len(r.shards) }

// Epoch implements query.EpochSource by summing the per-shard mutation
// counters. Each addend is monotone non-decreasing with apply-then-bump
// ordering (see delta.(*Dynamic).Epoch), so the sum is too, and an
// unchanged sum implies every component is unchanged — no shard saw an
// acknowledged mutation between two equal reads.
func (r *Router) Epoch() uint64 {
	var sum uint64
	for _, sh := range r.shards {
		sum += sh.d.Epoch()
	}
	return sum
}

// Owner locates a global trajectory ID: the owning shard's index and the
// trajectory's shard-local ID. ok is false for IDs the router never
// assigned and for recovery holes (IDs consumed by inserts that never
// became durable).
func (r *Router) Owner(gid trajectory.TrajID) (shard int, local trajectory.TrajID, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(gid) >= len(r.owners) {
		return 0, 0, false
	}
	o := r.owners[gid]
	if o.shard < 0 {
		return 0, 0, false
	}
	return int(o.shard), o.local, true
}

// Shard returns shard si (0 <= si < NumShards), for inspection.
func (r *Router) Shard(si int) *Shard { return r.shards[si] }

// Insert routes tr to the shard owning its first point's leaf cell,
// inserts it there, and returns its assigned GLOBAL trajectory ID. Global
// IDs are dense and monotone across the whole router — identical to the
// IDs a single unpartitioned DynamicIndex would assign for the same insert
// sequence. The Pts slice is retained; see delta.Dynamic.Insert for the
// structural requirements.
func (r *Router) Insert(tr trajectory.Trajectory) (trajectory.TrajID, error) {
	r.mu.Lock()
	si := r.layout.Route(tr.Pts)
	sh := r.shards[si]
	sh.idmu.Lock()
	local, commit, err := sh.d.InsertDeferred(tr)
	if err != nil {
		sh.idmu.Unlock()
		r.mu.Unlock()
		return 0, err
	}
	if int(local) != len(sh.globalIDs) {
		sh.idmu.Unlock()
		r.mu.Unlock()
		return 0, fmt.Errorf("shard %d: local ID %d out of step with mapping (%d entries); mutations bypassed the router", si, local, len(sh.globalIDs))
	}
	gid := trajectory.TrajID(r.nextID)
	r.nextID++
	// The mapping is published the moment the delta layer applied the
	// insert — before any durability wait — so every trajectory a search
	// can observe has its global ID in place whatever the fsync outcome.
	sh.globalIDs = append(sh.globalIDs, gid)
	sh.bounds.Extend(tr.Pts)
	sh.idmu.Unlock()
	r.owners = append(r.owners, owner{shard: int32(si), local: local})
	// Journal appends happen under r.mu in assignment order, so replay order
	// is exactly global ID order. Neither WAL must be durable before the
	// other: recovery re-synthesizes a shard record the journal missed, and
	// replays a journal record whose shard record was lost (an
	// unacknowledged insert) as a hole — see OpenOrCreate.
	routed, err := r.journal.Log(recRoute, func(b []byte) []byte { return binary.AppendUvarint(b, uint64(si)) })
	r.mu.Unlock()
	if err != nil {
		return 0, err
	}
	// Durability waits run outside every router lock so concurrent inserts
	// overlap and share fsyncs (group commit) instead of serializing on
	// r.mu. An error past this point means applied but unacknowledged.
	if err := commit(); err != nil {
		return 0, err
	}
	if err := routed.Wait(); err != nil {
		return 0, err
	}
	return gid, nil
}

// Delete tombstones the trajectory with the given GLOBAL ID in its owning
// shard. Deleting an unknown ID is an error; re-deleting is a no-op.
func (r *Router) Delete(gid trajectory.TrajID) error {
	r.mu.Lock()
	if int(gid) >= len(r.owners) {
		r.mu.Unlock()
		return fmt.Errorf("shard: delete of unknown trajectory %d", gid)
	}
	o := r.owners[gid]
	r.mu.Unlock()
	if o.shard < 0 {
		// A recovery hole: the ID belonged to an insert that never became
		// durable, so there is nothing to tombstone.
		return fmt.Errorf("shard: delete of unknown trajectory %d", gid)
	}
	// Owner entries are immutable once published and the delta layer waits
	// for durability outside its own lock, so deletes to different shards
	// overlap and concurrent deletes share fsyncs.
	return r.shards[o.shard].d.Delete(o.local)
}

// CompactAll synchronously compacts every shard's delta layer into a fresh
// base generation (shards also auto-compact independently past their
// Config.Delta.CompactThreshold).
func (r *Router) CompactAll() error {
	for si, sh := range r.shards {
		if err := sh.d.CompactNow(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}

// ShardStats describes one shard's shape.
type ShardStats struct {
	// ZLo/ZHi is the owned Z-code range [ZLo, ZHi) at the partition depth.
	ZLo, ZHi uint32
	// Trajectories counts IDs mapped to the shard (including tombstoned
	// ones and compacted-away husks).
	Trajectories int
	// Bounds is the bounding rectangle of every point the shard has held;
	// HasPoints is false for a never-populated shard (Bounds then zero).
	Bounds    geo.Rect
	HasPoints bool
	// Delta is the shard's dynamic-index snapshot.
	Delta delta.Stats
	// CompactErr is the shard's most recent background-compaction failure
	// ("" = healthy); it persists until a compaction succeeds, so health
	// endpoints can surface a shard that silently stopped compacting.
	CompactErr string
}

// Stats describes the router's current shape.
type Stats struct {
	// Shards is K.
	Shards int
	// NextID is one past the highest assigned global trajectory ID.
	NextID int
	// MutationEpoch is the summed per-shard mutation epoch (see
	// Router.Epoch) — the counter that invalidates result caches and tags
	// subscription staleness.
	MutationEpoch uint64
	// PerShard holds one entry per shard, in shard order.
	PerShard []ShardStats
}

// Stats returns a snapshot of the sharded index's shape.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	next := r.nextID
	r.mu.Unlock()
	s := Stats{Shards: len(r.shards), NextID: next, MutationEpoch: r.Epoch(), PerShard: make([]ShardStats, len(r.shards))}
	for si, sh := range r.shards {
		ss := ShardStats{ZLo: sh.zlo, ZHi: sh.zhi}
		ss.Bounds, ss.HasPoints = sh.bounds.Rect()
		sh.idmu.RLock()
		ss.Trajectories = len(sh.globalIDs)
		sh.idmu.RUnlock()
		ss.Delta = sh.d.Stats()
		if err := sh.d.LastCompactErr(); err != nil {
			ss.CompactErr = err.Error()
		}
		s.PerShard[si] = ss
	}
	return s
}
