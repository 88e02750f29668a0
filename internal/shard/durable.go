package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"activitytraj/internal/delta"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// On-disk layout of a durable router under Config.Durability.Dir:
//
//	router.json      partition layout (grid, cuts), committed once at creation
//	journal/         routing journal: one WAL record per global insert saying
//	                 which shard it went to (global IDs are then replay order)
//	shard-NNN/       shard NNN's delta WAL, snapshots and manifest
//
// The routing journal is appended in global ID assignment order (under the
// router's writer lock) but committed outside it, so neither WAL is
// guaranteed durable before the other. Recovery tolerates both crash
// windows: a shard record the journal missed is re-synthesized and
// re-journaled, and a journal record whose shard record was lost — an
// insert that was never acknowledged — is replayed as a hole, consuming its
// global ID without binding it, so every later (possibly acknowledged)
// record keeps the exact ID it was assigned. The journal is only ever
// appended to, never pruned or rewritten — routing records are a few bytes
// per insert and the full history is what rebuilds the global ID map — so
// it is the same journal, plus or minus a tail, at every crash point.

const (
	routerManifestName = "router.json"
	journalDirName     = "journal"
	// recRoute is the journal's insert record kind: body = uvarint shard
	// index.
	recRoute = 1
	// recHole consumes a global ID that binds to nothing (empty body).
	// Journals rewritten by earlier versions contain it; none is written now.
	recHole = 2
	// recLost turns an earlier route record into a hole: body = uvarint
	// global ID that record consumed. Recovery appends one when it finds a
	// route record whose insert was lost before becoming durable, so the
	// record can never rebind to a future insert of the same shard.
	recLost = 3
)

func shardDirName(si int) string { return fmt.Sprintf("shard-%03d", si) }

// routerManifest persists the partition layout so a reopened router routes
// exactly as the original: same grid, same Z cuts, same base corpus size.
type routerManifest struct {
	Version        int      `json:"version"`
	Shards         int      `json:"shards"`
	PartitionDepth int      `json:"partition_depth"`
	OriginX        float64  `json:"origin_x"`
	OriginY        float64  `json:"origin_y"`
	Side           float64  `json:"side"`
	Cuts           []uint32 `json:"cuts"`
	BaseN          int      `json:"base_n"`
}

// RecoveryInfo describes what OpenOrCreate rebuilt across the router.
type RecoveryInfo struct {
	// Shards holds each shard's delta-level recovery, in shard order.
	Shards []delta.RecoveryInfo
	// JournalReplayed counts routing records applied from the journal.
	JournalReplayed int64
	// Synthesized counts shard-local inserts that had no routing record (a
	// crash between a shard's WAL append and the journal append); recovery
	// assigned them fresh global IDs in shard order and re-journaled them.
	Synthesized int
	// Holes counts global IDs consumed by journal records whose inserts no
	// shard holds — inserts lost before becoming durable, so never
	// acknowledged. Keeping their IDs as holes keeps every later record's
	// ID exactly as assigned.
	Holes int
	// JournalRebuilt reports that this recovery found route records
	// referencing lost inserts and appended a hole marker for each.
	JournalRebuilt bool
	// Torn reports a torn tail was truncated in any WAL (shard or journal).
	Torn bool
}

// OpenOrCreate opens a durable Router from cfg.Durability.Dir, recovering
// any state a previous process left behind: each shard's delta index is
// recovered from its own WAL and snapshots, the global ID map is rebuilt by
// replaying the routing journal, shard-local inserts the journal missed are
// re-assigned and re-journaled, and every shard's spatial bounds are
// re-extended from its live points. With durability disabled (empty Dir) it
// is exactly NewRouter.
//
// bootstrap is the seq-0 base corpus and must be the same dataset on every
// open (the manifest pins its size and partition layout as a guard).
func OpenOrCreate(bootstrap *trajectory.Dataset, cfg Config) (*Router, RecoveryInfo, error) {
	cfg = cfg.withDefaults()
	var ri RecoveryInfo
	if cfg.Durability.Dir == "" {
		r, err := NewRouter(bootstrap, cfg)
		return r, ri, err
	}
	if cfg.Delta.Durability.Dir != "" {
		return nil, ri, fmt.Errorf("shard: configure durability on the router (Config.Durability), not per delta")
	}
	if err := bootstrap.Validate(); err != nil {
		return nil, ri, fmt.Errorf("shard: invalid dataset: %w", err)
	}
	opts := cfg.Durability.Options()
	fsys, dir := opts.FS, opts.Dir
	var stored routerManifest
	found, err := wal.ReadJSON(fsys, dir, routerManifestName, &stored)
	if err != nil {
		return nil, ri, fmt.Errorf("shard: read router manifest: %w", err)
	}
	var man *routerManifest // nil: a fresh router
	if found {
		man = &stored
		if man.Version != 1 {
			return nil, ri, fmt.Errorf("shard: unsupported router manifest version %d", man.Version)
		}
		if man.Shards != cfg.Shards || man.PartitionDepth != cfg.PartitionDepth {
			return nil, ri, fmt.Errorf("shard: manifest has %d shards at depth %d, config wants %d at %d (repartitioning is not supported)",
				man.Shards, man.PartitionDepth, cfg.Shards, cfg.PartitionDepth)
		}
		if man.BaseN != len(bootstrap.Trajs) {
			return nil, ri, fmt.Errorf("shard: manifest base corpus has %d trajectories, bootstrap has %d (bootstrap must not change across opens)",
				man.BaseN, len(bootstrap.Trajs))
		}
	}

	r := &Router{cfg: cfg, nextID: len(bootstrap.Trajs)}
	openShard := func(si int, sub *trajectory.Dataset) (*delta.Dynamic, error) {
		dcfg := cfg.Delta
		dcfg.Durability = cfg.Durability
		dcfg.Durability.Dir = filepath.Join(dir, shardDirName(si))
		d, sri, err := delta.OpenOrCreate(sub, dcfg)
		if err != nil {
			return nil, err
		}
		ri.Shards = append(ri.Shards, sri)
		ri.Torn = ri.Torn || sri.Torn
		return d, nil
	}
	if err := r.partition(bootstrap, man, openShard); err != nil {
		r.closeShards()
		return nil, ri, err
	}
	if man == nil {
		if err := writeRouterManifest(fsys, dir, r, len(bootstrap.Trajs)); err != nil {
			r.closeShards()
			return nil, ri, err
		}
	}

	// Rebuild the global ID map from the routing journal. Each route record
	// binds the next global ID to the next local slot of its shard; replay
	// order is assignment order, so the rebuilt map matches the original
	// exactly. The replay only collects, per consumed global ID, the shard
	// it was routed to (-1 = hole), because a recLost marker arrives after
	// the route record it cancels; the binding pass below reads the result.
	baseN := len(bootstrap.Trajs)
	var routes []int32
	opts.Dir = filepath.Join(dir, journalDirName)
	journal, jri, err := wal.Recover(opts, 0, func(rec wal.Record) error {
		switch rec.Kind {
		case recRoute:
			si, err := decodeUvarintBody(rec.Data)
			if err != nil {
				return fmt.Errorf("journal record %d: %w", rec.Seq, err)
			}
			if si >= uint64(len(r.shards)) {
				return fmt.Errorf("%w: journal record %d routes to shard %d of %d", wal.ErrCorrupt, rec.Seq, si, len(r.shards))
			}
			routes = append(routes, int32(si))
		case recHole:
			if len(rec.Data) != 0 {
				return fmt.Errorf("%w: journal hole record %d has a body", wal.ErrCorrupt, rec.Seq)
			}
			routes = append(routes, -1)
		case recLost:
			gid, err := decodeUvarintBody(rec.Data)
			if err != nil {
				return fmt.Errorf("journal record %d: %w", rec.Seq, err)
			}
			if gid < uint64(baseN) || gid >= uint64(baseN+len(routes)) {
				return fmt.Errorf("%w: journal record %d marks global ID %d lost, which no earlier record consumed", wal.ErrCorrupt, rec.Seq, gid)
			}
			routes[gid-uint64(baseN)] = -1
		default:
			return fmt.Errorf("%w: journal record %d has unknown kind %d", wal.ErrCorrupt, rec.Seq, rec.Kind)
		}
		return nil
	})
	if err != nil {
		r.closeShards()
		return nil, ri, fmt.Errorf("shard: recover journal: %w", err)
	}
	r.journal = journal
	ri.Torn = ri.Torn || jri.Torn

	// Bind. A route record whose shard does not hold the insert — lost
	// before becoming durable, so never acknowledged — consumes its global
	// ID as a hole, keeping every later record's ID stable; a shard WAL
	// always survives as a prefix, so such records are exactly the tail of
	// their shard's journal subsequence and can never steal a live slot. The
	// hole is made permanent by appending a recLost marker: a crash before
	// the marker is durable leaves the journal as it was, and the next
	// recovery finds the same hole again.
	var last wal.Commit
	for _, si := range routes {
		gid := trajectory.TrajID(r.nextID)
		r.nextID++
		if si >= 0 {
			sh := r.shards[si]
			if len(sh.globalIDs) < sh.d.Stats().IDSpace {
				r.owners = append(r.owners, owner{shard: si, local: trajectory.TrajID(len(sh.globalIDs))})
				sh.globalIDs = append(sh.globalIDs, gid)
				ri.JournalReplayed++
				continue
			}
			ri.JournalRebuilt = true
			last, err = journal.Log(recLost, func(b []byte) []byte { return binary.AppendUvarint(b, uint64(gid)) })
			if err != nil {
				r.Close()
				return nil, ri, fmt.Errorf("shard: journal lost insert %d: %w", gid, err)
			}
		}
		r.owners = append(r.owners, owner{shard: -1})
		ri.Holes++
	}

	// Synthesize routing for shard-local inserts the journal never saw (at
	// most the single in-flight insert per crash, but the loop is general).
	// They are appended to the journal now, in the same deterministic order,
	// so the next recovery replays them like any other insert.
	for si, sh := range r.shards {
		for len(sh.globalIDs) < sh.d.Stats().IDSpace {
			r.owners = append(r.owners, owner{shard: int32(si), local: trajectory.TrajID(len(sh.globalIDs))})
			sh.globalIDs = append(sh.globalIDs, trajectory.TrajID(r.nextID))
			r.nextID++
			last, err = journal.Log(recRoute, func(b []byte) []byte { return binary.AppendUvarint(b, uint64(si)) })
			if err != nil {
				r.Close()
				return nil, ri, fmt.Errorf("shard: re-journal shard %d insert: %w", si, err)
			}
			ri.Synthesized++
		}
	}
	// Nothing recovery appended may be lost once new inserts are accepted:
	// one wait covers every marker and synthesized route.
	if err := last.Wait(); err != nil {
		r.Close()
		return nil, ri, fmt.Errorf("shard: re-journal commit: %w", err)
	}

	// Re-extend every shard's bounds from the points it actually holds
	// (base partitioning covered the bootstrap; this adds recovered delta
	// inserts — and with them, the pruning bound's correctness).
	for _, sh := range r.shards {
		sh.d.ForEachPts(func(_ trajectory.TrajID, pts []trajectory.Point) {
			sh.bounds.Extend(pts)
		})
	}
	return r, ri, nil
}

// Close seals the routing journal and every shard's WAL. The in-memory
// router keeps serving searches but rejects further mutations when durable.
func (r *Router) Close() error {
	first := r.journal.Close()
	if err := r.closeShards(); first == nil {
		first = err
	}
	return first
}

func (r *Router) closeShards() error {
	var first error
	for _, sh := range r.shards {
		if sh == nil || sh.d == nil {
			continue
		}
		if err := sh.d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// decodeUvarintBody decodes a journal record body: exactly one uvarint (a
// shard index or a global ID).
func decodeUvarintBody(b []byte) (uint64, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("%w: malformed routing record", wal.ErrCorrupt)
	}
	return v, nil
}

func writeRouterManifest(fsys wal.FS, dir string, r *Router, baseN int) error {
	l := r.layout
	man := routerManifest{
		Version:        1,
		Shards:         r.cfg.Shards,
		PartitionDepth: r.cfg.PartitionDepth,
		OriginX:        l.Origin().X,
		OriginY:        l.Origin().Y,
		Side:           l.Side(),
		Cuts:           l.Cuts(),
		BaseN:          baseN,
	}
	err := wal.WriteFileAtomic(fsys, filepath.Join(dir, routerManifestName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(man)
	})
	if err != nil {
		return fmt.Errorf("shard: write router manifest: %w", err)
	}
	return nil
}
