package shard

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"activitytraj/internal/delta"
	"activitytraj/internal/faultfs"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// opLog is a wal.FS that records, in order, every operation a fault plan
// counts — create, write, sync, rename, remove — by its path under root. It
// also keeps the paths opened for reading (apart, as reads of different
// shards may interleave) and counts the files it handed out that are not
// closed yet.
type opLog struct {
	wal.FS
	root string

	mu    sync.Mutex
	ops   []string
	reads []string
	open  int
}

func (l *opLog) note(op, path string, opened int) {
	rel, err := filepath.Rel(l.root, path)
	if err != nil {
		rel = path
	}
	l.mu.Lock()
	switch op {
	case "":
	case "read":
		l.reads = append(l.reads, filepath.ToSlash(rel))
	default:
		l.ops = append(l.ops, op+" "+filepath.ToSlash(rel))
	}
	l.open += opened
	l.mu.Unlock()
}

func (l *opLog) Create(name string) (wal.File, error) {
	l.note("create", name, 0)
	f, err := l.FS.Create(name)
	if err != nil {
		return nil, err
	}
	l.note("", name, 1)
	return &loggedFile{File: f, log: l, name: name}, nil
}

func (l *opLog) Open(name string) (io.ReadCloser, error) {
	f, err := l.FS.Open(name)
	if err != nil {
		return nil, err
	}
	l.note("read", name, 1)
	return &loggedReader{ReadCloser: f, log: l, name: name}, nil
}

func (l *opLog) Remove(name string) error {
	l.note("remove", name, 0)
	return l.FS.Remove(name)
}

func (l *opLog) Rename(oldname, newname string) error {
	l.note("rename", newname, 0)
	return l.FS.Rename(oldname, newname)
}

func (l *opLog) SyncDir(dir string) error {
	l.note("sync", dir, 0)
	return l.FS.SyncDir(dir)
}

type loggedFile struct {
	wal.File
	log  *opLog
	name string
}

func (f *loggedFile) Write(p []byte) (int, error) {
	f.log.note("write", f.name, 0)
	return f.File.Write(p)
}

func (f *loggedFile) Sync() error {
	f.log.note("sync", f.name, 0)
	return f.File.Sync()
}

func (f *loggedFile) Close() error {
	f.log.note("", f.name, -1)
	return f.File.Close()
}

type loggedReader struct {
	io.ReadCloser
	log  *opLog
	name string
}

func (r *loggedReader) Close() error {
	r.log.note("", r.name, -1)
	return r.ReadCloser.Close()
}

// durableDir builds a closed 4-shard durable router directory: 60 base
// trajectories, 30 acknowledged inserts and 7 deletes, every shard
// compacted into a snapshot halfway. It returns the directory, the config
// to reopen it with (the directory unset) and each shard's mutations since
// its snapshot — what its WAL replays.
func durableDir(t *testing.T) (string, *trajectory.Dataset, Config, []int64) {
	t.Helper()
	full := testDataset(t, 90)
	base := full.Sample(60)
	cfg := Config{Shards: 4, Delta: delta.Config{CompactThreshold: -1}}
	dir := t.TempDir()
	dcfg := cfg
	dcfg.Durability = delta.Durability{Dir: dir}
	r, _, err := OpenOrCreate(base, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	replay := make([]int64, cfg.Shards)
	ops := shardWorkload(full, len(base.Trajs))
	for i, op := range ops {
		if err := op.apply(r); err != nil {
			t.Fatal(err)
		}
		if i == len(ops)/2 {
			if err := r.CompactAll(); err != nil {
				t.Fatal(err)
			}
			clear(replay)
			continue
		}
		gid := op.del
		if op.pts != nil {
			gid = trajectory.TrajID(r.Stats().NextID - 1)
		}
		si, _, _ := r.Owner(gid)
		replay[si]++
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, base, cfg, replay
}

// lastSegment returns the path of the newest WAL segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL segment in %s (%v)", dir, err)
	}
	slices.Sort(names)
	return names[len(names)-1]
}

// TestOpenRecoveryInShardOrder: the shards are built side by side, yet
// RecoveryInfo.Shards lists each shard's own recovery in shard order, and
// Torn is the OR over the shards and the journal.
func TestOpenRecoveryInShardOrder(t *testing.T) {
	dir, base, cfg, replay := durableDir(t)
	cfg.Durability = delta.Durability{Dir: dir}
	if distinct := slices.Compact(slices.Sorted(slices.Values(replay))); len(distinct) < 3 || replay[2] == 0 {
		t.Fatalf("per-shard replay counts %v: too few distinct ones to tell the order, or none to tear in shard 2", replay)
	}
	check := func(label string, torn int) {
		t.Helper()
		r, ri, err := OpenOrCreate(base, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer r.Close()
		if len(ri.Shards) != len(replay) {
			t.Fatalf("%s: %d shard recoveries for %d shards", label, len(ri.Shards), len(replay))
		}
		for si, sri := range ri.Shards {
			want := replay[si]
			if si == torn {
				want-- // the torn record is dropped
			}
			if sri.Replayed != want || sri.Torn != (si == torn) {
				t.Fatalf("%s: shard %d recovered %+v, want %d records replayed, torn %v (all: %+v)", label, si, sri, want, si == torn, ri.Shards)
			}
		}
		if ri.Torn != (torn >= 0) {
			t.Fatalf("%s: Torn %v with shard %d torn", label, ri.Torn, torn)
		}
	}
	check("clean", -1)

	// Tear the last record of shard 2's WAL. Recovery truncates it, so the
	// next open is clean again.
	seg := lastSegment(t, filepath.Join(dir, shardDirName(2)))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	check("torn", 2)
	replay[2]-- // the torn record is gone for good
	check("repaired", -1)
}

// TestOpenCorruptSnapshotNamesShard: a corrupt snapshot in shard 2's
// directory fails the open with an error naming shard 2, and leaves no file
// open and no goroutine running, although shards 0 and 1 were recovered
// before it and shard 3 was built beside it.
func TestOpenCorruptSnapshotNamesShard(t *testing.T) {
	dir, base, cfg, _ := durableDir(t)
	snaps, err := filepath.Glob(filepath.Join(dir, shardDirName(2), "snap-*.atrj"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("shard 2 snapshots: %v (%v)", snaps, err)
	}
	if err := os.WriteFile(snaps[0], []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	fsys := &opLog{FS: wal.OSFS(), root: dir}
	cfg.Durability = delta.Durability{Dir: dir, FS: fsys}
	r, _, err := OpenOrCreate(base, cfg)
	if err == nil {
		r.Close()
		t.Fatal("a corrupt snapshot opened")
	}
	if !strings.HasPrefix(err.Error(), "shard 2: ") || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("error %q does not name shard 2's snapshot", err)
	}
	if fsys.open != 0 {
		t.Fatalf("%d files left open after the failed open", fsys.open)
	}
	// Shards 0 and 1 ran their recovery, which reads their WAL, before shard
	// 2 failed; shard 3's WAL was never read. No file was written: a clean
	// recovery writes nothing.
	for si, want := range []bool{true, true, false, false} {
		read := slices.ContainsFunc(fsys.reads, func(p string) bool {
			return strings.HasPrefix(p, shardDirName(si)+"/wal-")
		})
		if read != want {
			t.Fatalf("shard %d: WAL read %v, want %v (reads %v)", si, read, want, fsys.reads)
		}
	}
	if len(fsys.ops) != 0 {
		t.Fatalf("a failed clean open wrote: %v", fsys.ops)
	}
	if !settled(before) {
		t.Fatalf("%d goroutines before the open, %d after", before, runtime.NumGoroutine())
	}
}

// settled reports whether the goroutine count falls back to at most before
// within a second (a goroutine winds down just after its last send).
func settled(before int) bool {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestDurableOpenOpsInShardOrder: a dry pass of faultfs over a durable open
// counts the same operations in the same order on every run, and every
// shard's operations come after the lower shards' — the shards are built
// side by side, but their logs are recovered one after another.
func TestDurableOpenOpsInShardOrder(t *testing.T) {
	src, base, cfg, _ := durableDir(t)
	// A torn tail in shard 1 and in shard 3 gives recovery writes of its
	// own to order.
	for _, si := range []int{1, 3} {
		seg := lastSegment(t, filepath.Join(src, shardDirName(si)))
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, raw[:len(raw)-2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var first []string
	var firstCounts [5]int
	for run := 0; run < 5; run++ {
		dir := copyDir(t, src)
		rec := &opLog{FS: wal.OSFS(), root: dir}
		ffs := faultfs.New(rec, faultfs.Plan{})
		cfg.Durability = delta.Durability{Dir: dir, FS: ffs}
		r, ri, err := OpenOrCreate(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if !ri.Shards[1].Torn || !ri.Shards[3].Torn {
			t.Fatalf("run %d: tears not found: %+v", run, ri.Shards)
		}
		var counts [5]int
		counts[0], counts[1], counts[2], counts[3], counts[4] = ffs.Ops()
		if run == 0 {
			first, firstCounts = rec.ops, counts
			last := -1
			for _, op := range rec.ops {
				for si := range cfg.Shards {
					if strings.Contains(op, shardDirName(si)+"/") || strings.HasSuffix(op, " "+shardDirName(si)) {
						if si < last {
							t.Fatalf("shard %d's %q after shard %d's operations: %v", si, op, last, rec.ops)
						}
						last = si
					}
				}
			}
			if last != cfg.Shards-1 {
				t.Fatalf("the last shard with a file operation is %d: %v", last, rec.ops)
			}
			continue
		}
		if counts != firstCounts || !slices.Equal(rec.ops, first) {
			t.Fatalf("run %d: ops %v (counts %v), run 0: %v (counts %v)", run, rec.ops, counts, first, firstCounts)
		}
	}
}
