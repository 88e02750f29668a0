package delta

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"

	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// Durability configures crash recovery for a Dynamic index. The zero value
// (empty Dir) disables it: mutations live only in memory, exactly as before.
//
// With a Dir set, every Insert/Delete is appended to a write-ahead log
// before it is applied and acknowledged under the chosen sync mode, each
// successful compaction persists the new base generation as a snapshot plus
// a manifest recording the last WAL sequence number it absorbs, and WAL
// segments wholly covered by the snapshot are pruned. OpenOrCreate reverses
// the process: load the manifest's snapshot, replay the WAL past it, and
// the index resumes exactly where the acknowledged mutation stream ended.
type Durability struct {
	// Dir is the index's data directory (snapshot, manifest and WAL
	// segments all live here). Empty disables durability.
	Dir string
	// Sync is the WAL fsync policy (see wal.SyncMode). The zero value,
	// SyncAlways, makes every acknowledged mutation crash-durable.
	Sync wal.SyncMode
	// SegmentBytes overrides the WAL segment rotation size (0 = default).
	SegmentBytes int64
	// FS overrides the filesystem; nil selects the real one. Tests inject
	// internal/faultfs here.
	FS wal.FS
}

// Options is the durability configuration as the log takes it, FS resolved:
// the one place its fields are copied, for every owner of a stream.
func (du Durability) Options() wal.Options {
	fsys := du.FS
	if fsys == nil {
		fsys = wal.OSFS()
	}
	return wal.Options{Dir: du.Dir, Sync: du.Sync, SegmentBytes: du.SegmentBytes, FS: fsys}
}

// WAL record kinds.
const (
	recInsert = 1 // body: encoded point list (the ID is implied by replay order)
	recDelete = 2 // body: uvarint trajectory ID
)

const (
	manifestName = "MANIFEST"
	snapPrefix   = "snap-"
	snapSuffix   = ".atrj"
)

// manifest is the durable commit record of a compaction: which snapshot
// file holds the base generation and the last WAL sequence number baked
// into it. It is replaced atomically (write-to-temp + rename), so recovery
// always sees either the old compaction or the new one, never a mix.
type manifest struct {
	Version  int    `json:"version"`
	Snapshot string `json:"snapshot"`
	LastSeq  uint64 `json:"last_seq"`
}

func snapName(lastSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, lastSeq, snapSuffix)
}

// RecoveryInfo describes what OpenOrCreate rebuilt.
type RecoveryInfo = wal.Recovery

// OpenOrCreate opens a durable Dynamic index from cfg.Durability.Dir,
// recovering any state a previous process left behind: it loads the
// manifest's snapshot if one exists (otherwise it starts from bootstrap,
// which must then be the same dataset every call — it is the seq-0 corpus),
// replays WAL records past the snapshot, repairs any torn tail, and arms
// the log for new appends. With durability disabled (empty Dir) it is
// exactly NewDynamic.
//
// The recovered corpus is the acknowledged mutation prefix: every mutation
// whose Insert/Delete returned nil under SyncAlways/SyncGroup is present,
// and recovery never applies a mutation out of order or partially.
func OpenOrCreate(bootstrap *trajectory.Dataset, cfg Config) (*Dynamic, RecoveryInfo, error) {
	var ri RecoveryInfo
	if cfg.Durability.Dir == "" {
		d, err := newDynamicBase(bootstrap, cfg)
		return d, ri, err
	}
	opts := cfg.Durability.Options()
	var man manifest
	found, err := wal.ReadJSON(opts.FS, opts.Dir, manifestName, &man)
	if err != nil {
		return nil, ri, fmt.Errorf("delta: read manifest: %w", err)
	}
	ds := bootstrap
	if found {
		if man.Version != 1 || man.Snapshot == "" {
			return nil, ri, fmt.Errorf("delta: unsupported manifest (version %d)", man.Version)
		}
		// The snapshot lives in the data directory: a name that is not a
		// bare file name (a separator, "..") would reach outside it.
		if !filepath.IsLocal(man.Snapshot) || filepath.Base(man.Snapshot) != man.Snapshot {
			return nil, ri, fmt.Errorf("delta: manifest names snapshot %q, not a file of the data directory", man.Snapshot)
		}
		ds, err = readSnapshot(opts.FS, filepath.Join(opts.Dir, man.Snapshot))
		if err != nil {
			return nil, ri, err
		}
	}
	d, err := newDynamicBase(ds, cfg)
	if err != nil {
		return nil, ri, err
	}
	d.log, ri, err = wal.Recover(opts, man.LastSeq, d.applyRecord)
	if err != nil {
		return nil, ri, fmt.Errorf("delta: recover wal: %w", err)
	}
	d.fsys = opts.FS
	return d, ri, nil
}

// applyRecord applies one replayed WAL record without re-logging it.
// Inserts re-derive their IDs from replay order — the WAL is appended under
// the same lock that assigns IDs, so the orders agree by construction.
func (d *Dynamic) applyRecord(r wal.Record) error {
	switch r.Kind {
	case recInsert:
		pts, err := decodeInsertBody(r.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", r.Seq, err)
		}
		d.mu.Lock()
		gen := d.gen.Load()
		id := trajectory.TrajID(d.nextID)
		d.nextID++
		gen.active.insert(id, trajectory.Trajectory{ID: id, Pts: pts})
		d.mu.Unlock()
		return nil
	case recDelete:
		id, err := decodeDeleteBody(r.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", r.Seq, err)
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		if int(id) >= d.nextID {
			return fmt.Errorf("%w: record %d deletes unknown trajectory %d", wal.ErrCorrupt, r.Seq, id)
		}
		gen := d.gen.Load()
		if gen.ov.Tombstoned(id) ||
			(int(id) < len(gen.ds.Trajs) && len(gen.ds.Trajs[id].Pts) == 0) {
			return nil
		}
		gen.active.delete(id)
		return nil
	default:
		return fmt.Errorf("%w: record %d has unknown kind %d", wal.ErrCorrupt, r.Seq, r.Kind)
	}
}

// Close seals the WAL (outstanding records are fsynced) and detaches it;
// the in-memory index keeps serving searches but rejects further mutations
// when durable. Closing a non-durable index is a no-op.
func (d *Dynamic) Close() error { return d.log.Close() }

// durableEpilogue persists a completed compaction: write the new base as a
// snapshot, commit it by atomically replacing the manifest, then garbage —
// stale snapshots and WAL segments the snapshot covers. Failures after the
// manifest rename are reported but leave a fully consistent store (the
// garbage is retried on the next compaction).
func (d *Dynamic) durableEpilogue(ds *trajectory.Dataset, lastSeq uint64) error {
	if d.log == nil {
		return nil
	}
	dir := d.cfg.Durability.Dir
	snap := snapName(lastSeq)
	err := wal.WriteFileAtomic(d.fsys, filepath.Join(dir, snap), func(w io.Writer) error {
		_, err := ds.WriteTo(w)
		return err
	})
	if err != nil {
		return fmt.Errorf("delta: write snapshot: %w", err)
	}
	man := manifest{Version: 1, Snapshot: snap, LastSeq: lastSeq}
	err = wal.WriteFileAtomic(d.fsys, filepath.Join(dir, manifestName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(man)
	})
	if err != nil {
		return fmt.Errorf("delta: commit manifest: %w", err)
	}
	// The manifest rename is the commit point; everything below is cleanup.
	names, err := d.fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("delta: prune snapshots: %w", err)
	}
	for _, n := range names {
		if n != snap && strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix) {
			if err := d.fsys.Remove(filepath.Join(dir, n)); err != nil {
				return fmt.Errorf("delta: prune snapshot %s: %w", n, err)
			}
		}
	}
	return d.log.Prune(lastSeq)
}

func readSnapshot(fsys wal.FS, path string) (*trajectory.Dataset, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("delta: open snapshot: %w", err)
	}
	defer f.Close()
	ds, err := trajectory.ReadDataset(f)
	if err != nil {
		return nil, fmt.Errorf("delta: read snapshot %s: %w", filepath.Base(path), err)
	}
	return ds, nil
}

// ForEachPts calls fn with every live trajectory's points (base and delta,
// tombstoned and husked ones skipped). It is how a recovered shard rebuilds
// its spatial bounds. fn must not retain or mutate pts.
func (d *Dynamic) ForEachPts(fn func(id trajectory.TrajID, pts []trajectory.Point)) {
	gen := d.acquire()
	defer gen.release()
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range gen.ds.Trajs {
		tr := &gen.ds.Trajs[i]
		if len(tr.Pts) == 0 || gen.ov.Tombstoned(tr.ID) {
			continue
		}
		fn(tr.ID, tr.Pts)
	}
	for _, l := range gen.ov.layers {
		for id, e := range l.trajs {
			if gen.ov.Tombstoned(id) {
				continue
			}
			fn(id, e.src.Pts)
		}
	}
}

// --- record codecs ---
//
// Insert bodies mirror the dataset codec's point encoding: uvarint point
// count, then per point two fixed float64 coordinates, a uvarint activity
// count, and delta-encoded activity IDs (first absolute, then gaps — the
// set is normalized, so gaps are >= 1). Delete bodies are a single uvarint
// trajectory ID. Integrity is the WAL frame CRC's job, not the codec's.

func encodeInsertBody(dst []byte, pts []trajectory.Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Loc.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Loc.Y))
		dst = binary.AppendUvarint(dst, uint64(len(p.Acts)))
		prev := uint64(0)
		for k, a := range p.Acts {
			v := uint64(a)
			if k == 0 {
				dst = binary.AppendUvarint(dst, v)
			} else {
				dst = binary.AppendUvarint(dst, v-prev)
			}
			prev = v
		}
	}
	return dst
}

func decodeInsertBody(b []byte) ([]trajectory.Point, error) {
	npts, b, err := getUvarint(b)
	if err != nil {
		return nil, err
	}
	if npts > uint64(len(b)) { // each point is >= 17 bytes; cheap sanity bound
		return nil, fmt.Errorf("delta: insert record claims %d points in %d bytes", npts, len(b))
	}
	pts := make([]trajectory.Point, npts)
	for i := range pts {
		if len(b) < 16 {
			return nil, fmt.Errorf("delta: truncated insert record")
		}
		pts[i].Loc.X = math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))
		pts[i].Loc.Y = math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
		b = b[16:]
		var nacts uint64
		nacts, b, err = getUvarint(b)
		if err != nil {
			return nil, err
		}
		if nacts == 0 {
			continue
		}
		if nacts > uint64(len(b)) {
			return nil, fmt.Errorf("delta: insert record claims %d activities in %d bytes", nacts, len(b))
		}
		acts := make(trajectory.ActivitySet, nacts)
		prev := uint64(0)
		for k := range acts {
			var v uint64
			v, b, err = getUvarint(b)
			if err != nil {
				return nil, err
			}
			if k > 0 {
				v += prev
			}
			acts[k] = trajectory.ActivityID(v)
			prev = v
		}
		pts[i].Acts = acts
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("delta: %d trailing bytes in insert record", len(b))
	}
	return pts, nil
}

func encodeDeleteBody(dst []byte, id trajectory.TrajID) []byte {
	return binary.AppendUvarint(dst, uint64(id))
}

func decodeDeleteBody(b []byte) (trajectory.TrajID, error) {
	id, rest, err := getUvarint(b)
	if err != nil {
		return 0, err
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("delta: %d trailing bytes in delete record", len(rest))
	}
	if id > math.MaxUint32 {
		return 0, fmt.Errorf("delta: delete record id %d out of range", id)
	}
	return trajectory.TrajID(id), nil
}

func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("delta: truncated varint in wal record")
	}
	return v, b[n:], nil
}

// EncodePoints appends the canonical WAL point-list encoding of pts to dst
// and returns the extended slice. It is the exact insert-record body format
// (see the codec comment above); internal/cluster reuses it for replication
// records so a node WAL and a delta WAL describe trajectories identically.
func EncodePoints(dst []byte, pts []trajectory.Point) []byte {
	return encodeInsertBody(dst, pts)
}

// DecodePoints decodes an EncodePoints body.
func DecodePoints(b []byte) ([]trajectory.Point, error) {
	return decodeInsertBody(b)
}
