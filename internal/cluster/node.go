package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"activitytraj/internal/delta"
	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// Node WAL record kinds. Bodies carry the GLOBAL trajectory ID explicitly —
// unlike a delta WAL, whose insert IDs are implied by replay order — so the
// records are position-independent: every replica of a shard applying the
// same serialized mutation sequence writes record-identical WALs, and
// catch-up is literally shipping segment files (see Segments/ApplySegments).
const (
	recNodeInsert = 1 // body: uvarint gid, then the delta point encoding
	recNodeDelete = 2 // body: uvarint gid
)

// NodeConfig tunes one replica of one shard.
type NodeConfig struct {
	// Shard is the layout shard index this node replicates.
	Shard int
	// Delta configures the node's dynamic index. Delta.Durability must be
	// unset: the node's replication WAL subsumes it (one durable mutation
	// stream per node, not two).
	Delta delta.Config
	// Durability is the node's replication WAL. An empty Dir runs the node
	// volatile (tests, throwaway replicas): mutations apply in memory only
	// and catch-up still works, but a restart falls back to the base corpus.
	Durability delta.Durability
}

// NodeRecovery describes what OpenNode rebuilt from its WAL, on top of the
// layout-derived base sub-corpus (SnapshotSeq is always 0: a node WAL is
// never snapshotted).
type NodeRecovery = wal.Recovery

// Node is one replica of one shard: a dynamic index over the shard's
// layout-derived sub-corpus, the local↔global ID mappings, the grown-only
// bounding rectangle, and the replication WAL. All methods are safe for
// concurrent use; mutations are serialized internally, and the node's
// correctness contract is that every replica of a shard receives the same
// mutation sequence in the same order (the router's per-shard mutation lock
// provides it), making replicas byte-identical — searches may be served by
// any of them interchangeably.
type Node struct {
	shardIdx int
	d        *delta.Dynamic
	eng      *delta.Engine // searches d; safe for concurrent use

	// mu guards the ID mappings. Searches hold the read lock for their whole
	// duration (like shard.Shard) so every trajectory they can observe has
	// its global mapping in place.
	mu        sync.RWMutex
	globalIDs []trajectory.TrajID
	localOf   map[trajectory.TrajID]trajectory.TrajID
	maxGID    trajectory.TrajID
	anyGID    bool
	bounds    shard.Bounds

	// recovery is what OpenNode rebuilt from the WAL (nil for a volatile
	// node); /healthz reports it.
	recovery *NodeRecovery

	// wmu serializes mutations: the WAL append and the index apply happen
	// under it, so WAL order equals apply order equals local-ID order.
	wmu  sync.Mutex
	log  *wal.Stream // nil for a volatile node
	dir  string
	fsys wal.FS
	// memSeq counts applied mutations (== the WAL's LastSeq when one is
	// attached; volatile nodes count in memory only). Written under wmu.
	memSeq atomic.Uint64
}

// OpenNode boots shard cfg.Shard's replica from the shared base corpus:
// derive the sub-corpus through the layout (deterministic — every replica
// gets the identical base), then replay the node's replication WAL on top.
func OpenNode(base *trajectory.Dataset, layout *shard.Layout, cfg NodeConfig) (*Node, NodeRecovery, error) {
	var ri NodeRecovery
	if cfg.Shard < 0 || cfg.Shard >= layout.NumShards() {
		return nil, ri, fmt.Errorf("cluster: shard %d out of range (layout has %d)", cfg.Shard, layout.NumShards())
	}
	if cfg.Delta.Durability.Dir != "" {
		return nil, ri, fmt.Errorf("cluster: node delta layer must not be durable (the replication WAL is the durable stream)")
	}
	sub, gids := layout.SubDataset(base, cfg.Shard)
	d, err := delta.NewDynamic(sub, cfg.Delta)
	if err != nil {
		return nil, ri, fmt.Errorf("cluster: shard %d index: %w", cfg.Shard, err)
	}
	n := &Node{
		shardIdx:  cfg.Shard,
		d:         d,
		eng:       d.NewEngine(),
		globalIDs: gids,
		localOf:   make(map[trajectory.TrajID]trajectory.TrajID, len(gids)),
	}
	for li, gid := range gids {
		n.localOf[gid] = trajectory.TrajID(li)
		if !n.anyGID || gid > n.maxGID {
			n.maxGID, n.anyGID = gid, true
		}
		n.bounds.Extend(base.Trajs[gid].Pts)
	}

	if cfg.Durability.Dir == "" {
		return n, ri, nil
	}
	opts := cfg.Durability.Options()
	n.dir, n.fsys = opts.Dir, opts.FS
	n.log, ri, err = wal.Recover(opts, 0, func(rec wal.Record) error { return n.applyRecord(rec, nil) })
	if err != nil {
		return nil, ri, fmt.Errorf("cluster: recover node wal: %w", err)
	}
	n.recovery = &ri
	return n, ri, nil
}

// Shard returns the layout shard index this node replicates.
func (n *Node) Shard() int { return n.shardIdx }

// Dynamic returns the node's underlying index (engines, stats). Mutations
// MUST go through the Node, which owns the gid mappings and the WAL.
func (n *Node) Dynamic() *delta.Dynamic { return n.d }

// LastSeq returns the node's applied mutation sequence (0 = base corpus
// only). Volatile nodes count in memory.
func (n *Node) LastSeq() uint64 { return n.memSeq.Load() }

// NextGID returns one past the highest global trajectory ID the node has
// seen — the router's boot input for resuming dense gid assignment (it
// takes the max across every reachable replica).
func (n *Node) NextGID() trajectory.TrajID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.anyGID {
		return 0
	}
	return n.maxGID + 1
}

// Bounds returns the bounding rectangle of every point the shard has ever
// held here and whether any point exists.
func (n *Node) Bounds() (geo.Rect, bool) { return n.bounds.Rect() }

// Trajectories returns the number of gids mapped on this node (tombstoned
// ones included).
func (n *Node) Trajectories() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.globalIDs)
}

// Insert applies one replicated insert: trajectory gid with the given
// points. It is idempotent on gid — a router retrying a fan-out the node
// already applied gets applied=false and no duplicate — and serialized with
// every other mutation, so all replicas applying the same sequence assign
// identical local IDs. The points slice is retained.
func (n *Node) Insert(gid trajectory.TrajID, pts []trajectory.Point) (applied bool, err error) {
	// Validate before logging: a record the index refuses would fail every
	// later replay of the WAL, and the node would never boot again.
	if err := n.d.Validate(trajectory.Trajectory{Pts: pts}); err != nil {
		return false, err
	}
	n.wmu.Lock()
	n.mu.RLock()
	_, known := n.localOf[gid]
	n.mu.RUnlock()
	if known {
		n.wmu.Unlock()
		return false, nil
	}
	logged, err := n.log.Log(recNodeInsert, func(b []byte) []byte {
		return delta.EncodePoints(binary.AppendUvarint(b, uint64(gid)), pts)
	})
	if err != nil {
		n.wmu.Unlock()
		return false, err
	}
	err = n.applyInsert(gid, pts)
	n.memSeq.Add(1)
	n.wmu.Unlock()
	if err != nil {
		return false, err
	}
	// The fsync wait runs outside wmu so concurrent fan-outs to this node
	// share group commits instead of serializing on the lock.
	if err := logged.Wait(); err != nil {
		return true, err
	}
	return true, nil
}

// Delete applies one replicated delete by global ID. Unknown gids are an
// error (the caller probes ownership first); re-deleting a tombstoned
// trajectory is a no-op that still logs, keeping replica WALs identical.
func (n *Node) Delete(gid trajectory.TrajID) error {
	n.wmu.Lock()
	n.mu.RLock()
	local, known := n.localOf[gid]
	n.mu.RUnlock()
	if !known {
		n.wmu.Unlock()
		return fmt.Errorf("cluster: delete of unknown trajectory %d", gid)
	}
	logged, err := n.log.Log(recNodeDelete, func(b []byte) []byte { return binary.AppendUvarint(b, uint64(gid)) })
	if err != nil {
		n.wmu.Unlock()
		return err
	}
	err = n.d.Delete(local)
	n.memSeq.Add(1)
	n.wmu.Unlock()
	if err != nil {
		return err
	}
	return logged.Wait()
}

// Owns reports whether gid is mapped on this node (the router's delete
// probe; tombstoned trajectories still answer true so a re-delete routes to
// the owning shard rather than erroring as unknown).
func (n *Node) Owns(gid trajectory.TrajID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.localOf[gid]
	return ok
}

// applyInsert binds gid to the next dense local ID and inserts the
// trajectory. Callers hold wmu.
func (n *Node) applyInsert(gid trajectory.TrajID, pts []trajectory.Point) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	local, err := n.d.Insert(trajectory.Trajectory{Pts: pts})
	if err != nil {
		return err
	}
	if int(local) != len(n.globalIDs) {
		return fmt.Errorf("cluster: local ID %d out of step with mapping (%d entries); mutations bypassed the node", local, len(n.globalIDs))
	}
	n.globalIDs = append(n.globalIDs, gid)
	n.localOf[gid] = local
	if !n.anyGID || gid > n.maxGID {
		n.maxGID, n.anyGID = gid, true
	}
	n.bounds.Extend(pts)
	return nil
}

// applyRecord decodes, checks and applies one replication record. relog,
// when non-nil, runs between the checks and the apply: catch-up appends the
// shipped record to the local WAL there, so a record the index would refuse
// is never logged; boot replay, whose records are already on disk, passes
// nil. Callers are single-goroutine or hold wmu.
func (n *Node) applyRecord(rec wal.Record, relog func() error) error {
	var apply func() error
	switch rec.Kind {
	case recNodeInsert:
		gid, pts, err := decodeNodeInsert(rec.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		if _, known := n.localOf[gid]; known {
			return fmt.Errorf("%w: record %d re-inserts gid %d", wal.ErrCorrupt, rec.Seq, gid)
		}
		if err := n.d.Validate(trajectory.Trajectory{Pts: pts}); err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		apply = func() error { return n.applyInsert(gid, pts) }
	case recNodeDelete:
		gid, err := decodeNodeDelete(rec.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		local, known := n.localOf[gid]
		if !known {
			return fmt.Errorf("%w: record %d deletes unknown gid %d", wal.ErrCorrupt, rec.Seq, gid)
		}
		apply = func() error { return n.d.Delete(local) }
	default:
		return fmt.Errorf("%w: record %d has unknown kind %d", wal.ErrCorrupt, rec.Seq, rec.Kind)
	}
	if relog != nil {
		if err := relog(); err != nil {
			return err
		}
	}
	if err := apply(); err != nil {
		return err
	}
	n.memSeq.Add(1)
	return nil
}

// Search runs one search on the node, translating the shard-local result
// IDs to global ones. It is safe for concurrent use. The gid mapping is
// append-only and order-preserving (local ascending ⇔ global ascending), so
// the translated (dist, gid) order matches what a global index would
// produce.
func (n *Node) Search(ctx context.Context, req query.Request) (query.Response, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	resp, err := n.eng.Search(ctx, req)
	for i := range resp.Results {
		local := resp.Results[i].ID
		if int(local) >= len(n.globalIDs) {
			return resp, fmt.Errorf("cluster: result trajectory %d has no global mapping", local)
		}
		resp.Results[i].ID = n.globalIDs[local]
	}
	return resp, err
}

// Epoch implements query.EpochSource via the underlying index.
func (n *Node) Epoch() uint64 { return n.d.Epoch() }

// Close seals the node's WAL; the in-memory index keeps serving searches.
func (n *Node) Close() error { return n.log.Close() }

// WALSegment is one replication-WAL segment file on the catch-up wire (Data
// travels base64-encoded inside JSON).
type WALSegment struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// Segments returns the node's WAL segment files that cover mutation
// sequences > from (file granularity: the first returned segment may start
// at or before from; receivers dedupe by sequence number). The last segment
// may be mid-append — a torn final frame is fine, the receiver's replay
// stops at the last complete record. Volatile nodes have no segments to
// ship.
func (n *Node) Segments(from uint64) ([]WALSegment, error) {
	if n.log == nil {
		return nil, fmt.Errorf("cluster: volatile node has no wal segments")
	}
	names, err := wal.ListSegments(n.fsys, n.dir)
	if err != nil {
		return nil, err
	}
	// Keep every segment from the last one starting at or before from+1:
	// earlier ones hold only seqs the receiver already has.
	start := 0
	for i, name := range names {
		first, err := wal.SegmentFirstSeq(name)
		if err != nil {
			return nil, err
		}
		if first <= from+1 {
			start = i
		}
	}
	var out []WALSegment
	for _, name := range names[start:] {
		f, err := n.fsys.Open(filepath.Join(n.dir, name))
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, WALSegment{Name: name, Data: data})
	}
	return out, nil
}

// ApplySegments catches the node up from a healthy replica's shipped WAL
// segments: records at or below the node's own sequence are skipped (the
// dedupe making catch-up idempotent), the rest are appended to the node's
// own WAL — sequence numbers must line up exactly, replicas are record-
// identical by construction — and applied in order. It returns the node's
// resulting sequence.
func (n *Node) ApplySegments(segs []WALSegment) (uint64, error) {
	n.wmu.Lock()
	defer n.wmu.Unlock()
	// Materialize the shipped files in a scratch dir so wal.Replay can walk
	// them exactly as it would a local log (the first segment's name fixes
	// the starting sequence).
	tmp, err := os.MkdirTemp("", "atsq-catchup-*")
	if err != nil {
		return n.memSeq.Load(), err
	}
	defer os.RemoveAll(tmp)
	for _, seg := range segs {
		if filepath.Base(seg.Name) != seg.Name {
			return n.memSeq.Load(), fmt.Errorf("cluster: bad segment name %q", seg.Name)
		}
		if _, err := wal.SegmentFirstSeq(seg.Name); err != nil {
			return n.memSeq.Load(), err
		}
		if err := os.WriteFile(filepath.Join(tmp, seg.Name), seg.Data, 0o644); err != nil {
			return n.memSeq.Load(), err
		}
	}
	var last wal.Commit
	_, replayErr := wal.Replay(wal.OSFS(), tmp, func(rec wal.Record) error {
		if rec.Seq <= n.memSeq.Load() {
			return nil // already applied here
		}
		if rec.Seq != n.memSeq.Load()+1 {
			return fmt.Errorf("cluster: catch-up gap: record seq %d after local seq %d (need earlier segments)", rec.Seq, n.memSeq.Load())
		}
		return n.applyRecord(rec, func() error {
			logged, err := n.log.Log(rec.Kind, func(b []byte) []byte { return append(b, rec.Data...) })
			if err != nil {
				return err
			}
			// Seq 0: a volatile node logged nothing, so has no numbering
			// to disagree with the shipper's.
			if logged.Seq != 0 && logged.Seq != rec.Seq {
				return fmt.Errorf("cluster: local wal assigned seq %d to shipped record %d", logged.Seq, rec.Seq)
			}
			last = logged
			return nil
		})
	})
	// One commit wait for the whole batch (group commit covers the rest).
	if err := last.Wait(); err != nil {
		return n.memSeq.Load(), err
	}
	return n.memSeq.Load(), replayErr
}

// decodeNodeInsert splits an insert record body into its gid and points.
func decodeNodeInsert(b []byte) (trajectory.TrajID, []trajectory.Point, error) {
	gid, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("cluster: truncated gid in insert record")
	}
	pts, err := delta.DecodePoints(b[n:])
	if err != nil {
		return 0, nil, err
	}
	return trajectory.TrajID(gid), pts, nil
}

// decodeNodeDelete decodes a delete record body.
func decodeNodeDelete(b []byte) (trajectory.TrajID, error) {
	gid, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("cluster: malformed delete record body")
	}
	return trajectory.TrajID(gid), nil
}
