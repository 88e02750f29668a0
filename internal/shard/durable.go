package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
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
// record keeps the exact ID it was assigned. The journal is not pruned —
// routing records are a few bytes per insert and the full history is what
// rebuilds the global ID map.

const (
	routerManifestName = "router.json"
	journalDirName     = "journal"
	// recRoute is the journal's insert record kind: body = uvarint shard
	// index.
	recRoute = 1
	// recHole marks a consumed global ID that binds to nothing (empty
	// body): a route record whose insert was lost before becoming durable,
	// rewritten explicitly so it can never rebind to a future insert.
	recHole = 2
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
	// JournalRebuilt reports that journal records referencing lost inserts
	// were converted to explicit hole records and the journal rewritten.
	JournalRebuilt bool
	// Torn reports a torn tail was truncated in any WAL (shard or journal).
	Torn bool
}

// jrec is one journal record kept in memory during replay, in case the
// journal must be rewritten.
type jrec struct {
	kind uint8
	body []byte
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
	fsys := cfg.Durability.FS
	if fsys == nil {
		fsys = wal.OSFS()
	}
	dir := cfg.Durability.Dir
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, ri, fmt.Errorf("shard: mkdir %s: %w", dir, err)
	}
	man, err := readRouterManifest(fsys, dir)
	if err != nil {
		return nil, ri, err
	}
	if man != nil {
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
		dcfg.Durability = delta.Durability{
			Dir:          filepath.Join(dir, shardDirName(si)),
			Sync:         cfg.Durability.Sync,
			SegmentBytes: cfg.Durability.SegmentBytes,
			FS:           cfg.Durability.FS,
		}
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
	// exactly. A route record whose shard does not hold the insert — lost
	// before becoming durable, so never acknowledged — consumes its global
	// ID as a hole, keeping every later record's ID stable; a shard WAL
	// always survives as a prefix, so such records are exactly the tail of
	// their shard's journal subsequence and can never steal a live slot.
	jdir := filepath.Join(dir, journalDirName)
	var recs []jrec // kept in case the journal must be rewritten
	jinfo, err := wal.Replay(fsys, jdir, func(rec wal.Record) error {
		switch rec.Kind {
		case recRoute:
			si, err := decodeRouteBody(rec.Data)
			if err != nil {
				return fmt.Errorf("journal record %d: %w", rec.Seq, err)
			}
			if si >= len(r.shards) {
				return fmt.Errorf("%w: journal record %d routes to shard %d of %d", wal.ErrCorrupt, rec.Seq, si, len(r.shards))
			}
			sh := r.shards[si]
			if len(sh.globalIDs) >= sh.d.Stats().IDSpace {
				r.owners = append(r.owners, owner{shard: -1})
				r.nextID++
				ri.Holes++
				ri.JournalRebuilt = true
				recs = append(recs, jrec{kind: recHole})
				return nil
			}
			local := trajectory.TrajID(len(sh.globalIDs))
			gid := trajectory.TrajID(r.nextID)
			r.nextID++
			sh.globalIDs = append(sh.globalIDs, gid)
			r.owners = append(r.owners, owner{shard: int32(si), local: local})
			ri.JournalReplayed++
			recs = append(recs, jrec{kind: recRoute, body: append([]byte(nil), rec.Data...)})
			return nil
		case recHole:
			if len(rec.Data) != 0 {
				return fmt.Errorf("%w: journal hole record %d has a body", wal.ErrCorrupt, rec.Seq)
			}
			r.owners = append(r.owners, owner{shard: -1})
			r.nextID++
			ri.Holes++
			recs = append(recs, jrec{kind: recHole})
			return nil
		default:
			return fmt.Errorf("%w: journal record %d has unknown kind %d", wal.ErrCorrupt, rec.Seq, rec.Kind)
		}
	})
	if err != nil {
		r.closeShards()
		return nil, ri, fmt.Errorf("shard: replay journal: %w", err)
	}
	ri.Torn = ri.Torn || jinfo.Torn

	if ri.JournalRebuilt {
		// Rewrite the journal with the lost inserts' records as explicit
		// holes, so they can never rebind to future inserts.
		if err := rewriteJournal(fsys, jdir, recs); err != nil {
			r.closeShards()
			return nil, ri, err
		}
	}
	journal, err := wal.Open(wal.Options{
		Dir:          jdir,
		Sync:         cfg.Durability.Sync,
		SegmentBytes: cfg.Durability.SegmentBytes,
		FS:           cfg.Durability.FS,
	})
	if err != nil {
		r.closeShards()
		return nil, ri, err
	}
	r.journal = journal

	// Synthesize routing for shard-local inserts the journal never saw (at
	// most the single in-flight insert per crash, but the loop is general).
	// They are appended to the journal now, in the same deterministic order,
	// so the next recovery replays them like any other insert.
	var lastSeq uint64
	for si, sh := range r.shards {
		for len(sh.globalIDs) < sh.d.Stats().IDSpace {
			local := trajectory.TrajID(len(sh.globalIDs))
			gid := trajectory.TrajID(r.nextID)
			r.nextID++
			sh.globalIDs = append(sh.globalIDs, gid)
			r.owners = append(r.owners, owner{shard: int32(si), local: local})
			seq, err := journal.Append(recRoute, binary.AppendUvarint(nil, uint64(si)))
			if err != nil {
				r.Close()
				return nil, ri, fmt.Errorf("shard: re-journal shard %d insert: %w", si, err)
			}
			lastSeq = seq
			ri.Synthesized++
		}
	}
	if lastSeq != 0 {
		if err := journal.Commit(lastSeq); err != nil {
			r.Close()
			return nil, ri, fmt.Errorf("shard: re-journal commit: %w", err)
		}
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
	var first error
	if r.journal != nil {
		first = r.journal.Close()
	}
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

func decodeRouteBody(b []byte) (int, error) {
	si, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("%w: malformed routing record", wal.ErrCorrupt)
	}
	return int(si), nil
}

// rewriteJournal replaces the journal directory's contents with exactly the
// given records (fresh sequence numbers starting at 1).
func rewriteJournal(fsys wal.FS, jdir string, recs []jrec) error {
	names, err := fsys.ReadDir(jdir)
	if errors.Is(err, fs.ErrNotExist) {
		names = nil
	} else if err != nil {
		return fmt.Errorf("shard: rewrite journal: %w", err)
	}
	for _, n := range names {
		if err := fsys.Remove(filepath.Join(jdir, n)); err != nil {
			return fmt.Errorf("shard: rewrite journal: %w", err)
		}
	}
	l, err := wal.Open(wal.Options{Dir: jdir, FS: fsys})
	if err != nil {
		return fmt.Errorf("shard: rewrite journal: %w", err)
	}
	for _, rec := range recs {
		if _, err := l.Append(rec.kind, rec.body); err != nil {
			l.Close()
			return fmt.Errorf("shard: rewrite journal: %w", err)
		}
	}
	if err := l.Close(); err != nil {
		return fmt.Errorf("shard: rewrite journal: %w", err)
	}
	return nil
}

func readRouterManifest(fsys wal.FS, dir string) (*routerManifest, error) {
	names, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // no directory yet: a fresh router
	}
	if err != nil {
		// Any other listing error must fail the open: treating it as "no
		// manifest" would silently restart a durable router from scratch.
		return nil, fmt.Errorf("shard: list %s: %w", dir, err)
	}
	found := false
	for _, n := range names {
		if n == routerManifestName {
			found = true
			break
		}
	}
	if !found {
		return nil, nil
	}
	f, err := fsys.Open(filepath.Join(dir, routerManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: open router manifest: %w", err)
	}
	defer f.Close()
	var man routerManifest
	if err := json.NewDecoder(f).Decode(&man); err != nil {
		return nil, fmt.Errorf("shard: decode router manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("shard: unsupported router manifest version %d", man.Version)
	}
	return &man, nil
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
