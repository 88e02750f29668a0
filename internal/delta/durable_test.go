package delta

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"activitytraj/internal/faultfs"
	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// durOp is one scripted step of a durability workload: an insert, a delete,
// or an explicit compaction. Mutations consume WAL sequence numbers in
// script order (the tests run single-threaded), so "the corpus recovered to
// seq S" means exactly "the first S mutations of the script".
type durOp struct {
	pts     []trajectory.Point // insert when non-nil
	del     trajectory.TrajID
	compact bool
}

// durWorkload scripts inserts of the dataset's tail onto a base prefix,
// with a distinct live base trajectory deleted after every 5th insert
// (distinct targets keep every delete a real mutation — idempotent
// re-deletes are not logged and would break the seq<->op mapping).
// Compactions run after mutations 15 and 35.
func durWorkload(full *trajectory.Dataset, baseN int) []durOp {
	var ops []durOp
	muts, dels := 0, 0
	for _, tr := range full.Trajs[baseN:] {
		ops = append(ops, durOp{pts: tr.Pts})
		muts++
		if muts == 15 || muts == 35 {
			ops = append(ops, durOp{compact: true})
		}
		if muts%5 == 0 && dels < baseN {
			dels++
			ops = append(ops, durOp{del: trajectory.TrajID(baseN - dels)})
			muts++
			if muts == 15 || muts == 35 {
				ops = append(ops, durOp{compact: true})
			}
		}
	}
	return ops
}

// apply runs one op, returning whether it was a mutation and its error.
func (o durOp) apply(d *Dynamic) (mutation bool, err error) {
	switch {
	case o.compact:
		return false, d.CompactNow()
	case o.pts != nil:
		_, err := d.Insert(trajectory.Trajectory{Pts: o.pts})
		return true, err
	default:
		return true, d.Delete(o.del)
	}
}

// searchParity asserts byte-identical results between two dynamic indexes
// across the workload's queries, ordered and unordered.
func searchParity(t *testing.T, label string, want, got *Dynamic, qs []query.Query, k int) {
	t.Helper()
	we, ge := want.NewEngine(), got.NewEngine()
	ctx := context.Background()
	for qi, q := range qs {
		for _, ordered := range []bool{false, true} {
			wr, err := we.Search(ctx, query.Request{Query: q, K: k, Ordered: ordered})
			if err != nil {
				t.Fatalf("%s q%d ref: %v", label, qi, err)
			}
			gr, err := ge.Search(ctx, query.Request{Query: q, K: k, Ordered: ordered})
			if err != nil {
				t.Fatalf("%s q%d recovered: %v", label, qi, err)
			}
			requireIdentical(t, fmt.Sprintf("%s q%d ordered=%v", label, qi, ordered), wr.Results, gr.Results)
		}
	}
}

func TestNewDynamicRejectsDurability(t *testing.T) {
	_, err := NewDynamic(laPreset(t), Config{Durability: Durability{Dir: t.TempDir()}})
	if err == nil {
		t.Fatal("NewDynamic accepted a durable config; OpenOrCreate must be the only door")
	}
}

func TestInsertRecordCodecRoundTrip(t *testing.T) {
	cases := [][]trajectory.Point{
		nil,
		{{Loc: geo.Point{X: 1, Y: 2}}},
		{{Loc: geo.Point{X: -3.5, Y: 7.25}, Acts: trajectory.ActivitySet{0, 2, 9, 1000}}},
		{{Loc: geo.Point{X: 0, Y: 0}, Acts: trajectory.ActivitySet{5}}, {Loc: geo.Point{X: 1e9, Y: -1e-9}}},
	}
	for i, pts := range cases {
		body := encodeInsertBody(nil, pts)
		got, err := decodeInsertBody(body)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(pts) {
			t.Fatalf("case %d: %d points != %d", i, len(got), len(pts))
		}
		for j := range pts {
			if got[j].Loc != pts[j].Loc || !reflect.DeepEqual(got[j].Acts, normOrNil(pts[j].Acts)) {
				t.Fatalf("case %d point %d: %+v != %+v", i, j, got[j], pts[j])
			}
		}
		// Truncations must error, never panic.
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeInsertBody(body[:cut]); err == nil && cut != len(body) {
				// Some prefixes happen to decode (fewer points claimed is
				// caught by the trailing-bytes check, so err should be set).
				t.Fatalf("case %d: truncation to %d decoded cleanly", i, cut)
			}
		}
	}
}

func normOrNil(a trajectory.ActivitySet) trajectory.ActivitySet {
	if len(a) == 0 {
		return nil
	}
	return a
}

// TestDurableRecoverCleanShutdown: close and reopen without a crash — the
// recovered index must be byte-identical to a never-closed twin, and
// ingestion must resume with the next ID.
func TestDurableRecoverCleanShutdown(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) * 3 / 5
	dir := t.TempDir()
	cfg := Config{CompactThreshold: -1, Durability: Durability{Dir: dir, SegmentBytes: 4096}}

	d, ri, err := OpenOrCreate(prefix(full, baseN), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Replayed != 0 || ri.SnapshotSeq != 0 {
		t.Fatalf("fresh open reported recovery: %+v", ri)
	}
	twin, err := NewDynamic(prefix(full, baseN), Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	ops := durWorkload(full, baseN)
	muts := 0
	for _, op := range ops {
		m, err := op.apply(d)
		if err != nil {
			t.Fatalf("mutation %d: %v", muts, err)
		}
		if m {
			muts++
		}
		if !op.compact {
			if _, err := op.apply(twin); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, ri, err := OpenOrCreate(prefix(full, baseN), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if ri.LastSeq != uint64(muts) {
		t.Fatalf("recovered to seq %d, want %d (info %+v)", ri.LastSeq, muts, ri)
	}
	if ri.SnapshotSeq != 35 {
		t.Fatalf("snapshot covers seq %d, want 35 (info %+v)", ri.SnapshotSeq, ri)
	}
	if got, want := d2.Stats().IDSpace, twin.Stats().IDSpace; got != want {
		t.Fatalf("recovered IDSpace %d != twin %d", got, want)
	}
	qs := testWorkload(t, full, 8, 7)
	searchParity(t, "clean-shutdown", twin, d2, qs, 10)

	// Ingestion resumes exactly where it left off.
	id, err := d2.Insert(trajectory.Trajectory{Pts: full.Trajs[0].Pts})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := twin.Insert(trajectory.Trajectory{Pts: full.Trajs[0].Pts})
	if err != nil {
		t.Fatal(err)
	}
	if id != id2 {
		t.Fatalf("post-recovery insert assigned %d, twin assigned %d", id, id2)
	}
	searchParity(t, "post-recovery-insert", twin, d2, qs, 10)
}

// TestDurableCrashMatrix is the table-driven crash-matrix test: for every
// injected crash point — mid-record (clean and torn), mid-rotation,
// mid-compaction-swap, mid-prune, mid-fsync — SIGKILL-equivalent the index
// by latching the filesystem, "restart" by reopening the directory, and
// assert the recovered corpus is a strict prefix of the attempted mutation
// stream that (a) contains every acknowledged mutation and (b) searches
// byte-identically to an uncrashed twin that applied the same prefix.
func TestDurableCrashMatrix(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) * 3 / 5
	ops := durWorkload(full, baseN)
	qs := testWorkload(t, full, 6, 11)

	cases := []struct {
		name  string
		plan  faultfs.Plan
		crash bool
	}{
		{"first-record", faultfs.Plan{CrashOnWrite: 2}, true}, // write 1 is the segment header
		{"mid-record-clean", faultfs.Plan{CrashOnWrite: 9}, true},
		{"mid-record-torn-small", faultfs.Plan{CrashOnWrite: 9, WritePartial: 5}, true},
		{"mid-record-torn-large", faultfs.Plan{CrashOnWrite: 21, WritePartial: 40}, true},
		{"mid-record-torn-header-only", faultfs.Plan{CrashOnWrite: 15, WritePartial: 3}, true},
		{"mid-rotation-create", faultfs.Plan{CrashOnCreate: 3}, true},
		{"mid-rotation-header", faultfs.Plan{CrashOnCreate: 0, CrashOnWrite: 40, WritePartial: 2}, true},
		{"mid-compaction-snapshot-rename", faultfs.Plan{CrashOnRename: 1}, true},
		{"mid-compaction-manifest-rename", faultfs.Plan{CrashOnRename: 2}, true},
		{"mid-prune-remove", faultfs.Plan{CrashOnRemove: 1}, true},
		{"mid-commit-fsync", faultfs.Plan{CrashOnSync: 4}, true},
		{"late-fsync", faultfs.Plan{CrashOnSync: 30}, true},
		{"transient-fsync-error", faultfs.Plan{FailSync: 5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(nil, tc.plan)
			cfg := Config{CompactThreshold: -1, Durability: Durability{
				Dir: dir, SegmentBytes: 2048, FS: ffs,
			}}
			d, _, err := OpenOrCreate(prefix(full, baseN), cfg)
			if err != nil {
				// The plan can fire during the fresh open itself (e.g. the
				// very first create); nothing was acknowledged, recovery of
				// an empty directory is covered by other cases.
				t.Skipf("fault fired during open: %v", err)
			}
			acked := 0   // mutations whose call returned nil
			attempt := 0 // mutations that reached the index at all
			failed := false
			for _, op := range ops {
				m, err := op.apply(d)
				if m {
					attempt++
					if err == nil {
						if failed {
							t.Fatalf("%s: mutation %d succeeded after an earlier failure (not fail-stop)", tc.name, attempt)
						}
						acked++
					} else {
						failed = true
					}
				}
			}
			if tc.crash && !ffs.Crashed() {
				w, s, c, rn, rm := ffs.Ops()
				t.Fatalf("plan %+v never fired (ops: %d writes %d syncs %d creates %d renames %d removes)", tc.plan, w, s, c, rn, rm)
			}
			if !failed && tc.crash {
				t.Fatalf("crash fired but every mutation was acknowledged")
			}

			// "Restart": reopen through a healthy filesystem.
			cfg.Durability.FS = nil
			d2, ri, err := OpenOrCreate(prefix(full, baseN), cfg)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer d2.Close()
			s := int(ri.LastSeq)
			if s < acked {
				t.Fatalf("recovered seq %d < %d acknowledged mutations (info %+v)", s, acked, ri)
			}
			if s > attempt {
				t.Fatalf("recovered seq %d > %d attempted mutations", s, attempt)
			}

			// Twin: a fresh in-memory index applying the same prefix.
			twin, err := NewDynamic(prefix(full, baseN), Config{CompactThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			applied := 0
			for _, op := range ops {
				if op.compact {
					continue
				}
				if applied == s {
					break
				}
				if _, err := op.apply(twin); err != nil {
					t.Fatal(err)
				}
				applied++
			}
			if got, want := d2.Stats().IDSpace, twin.Stats().IDSpace; got != want {
				t.Fatalf("recovered IDSpace %d != twin %d", got, want)
			}
			searchParity(t, tc.name, twin, d2, qs, 10)

			// The recovered index must accept and persist new mutations.
			if _, err := d2.Insert(trajectory.Trajectory{Pts: full.Trajs[1].Pts}); err != nil {
				t.Fatalf("post-recovery insert: %v", err)
			}
			if _, err := twin.Insert(trajectory.Trajectory{Pts: full.Trajs[1].Pts}); err != nil {
				t.Fatal(err)
			}
			searchParity(t, tc.name+"/post-insert", twin, d2, qs, 10)
		})
	}
}

// TestDurableEmptyWALResumesAfterSnapshot: when a crash leaves a snapshot
// but not a single intact post-snapshot WAL record (prune keeps only the
// newest segment; a torn tail can erase it entirely), reopening must resume
// sequence numbering after the snapshot — numbering restarting at 1 would
// make the NEXT recovery silently skip every new acknowledged mutation.
func TestDurableEmptyWALResumesAfterSnapshot(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) / 2
	dir := t.TempDir()
	cfg := Config{CompactThreshold: -1, Durability: Durability{Dir: dir}}

	d, _, err := OpenOrCreate(prefix(full, baseN), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Insert(trajectory.Trajectory{Pts: full.Trajs[baseN+i].Pts}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}

	d2, ri, err := OpenOrCreate(prefix(full, baseN), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ri.SnapshotSeq != 3 || ri.LastSeq != 3 || ri.Replayed != 0 {
		t.Fatalf("recovery info %+v, want snapshot seq 3 with nothing replayed", ri)
	}
	if _, err := d2.Insert(trajectory.Trajectory{Pts: full.Trajs[baseN+3].Pts}); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3, ri, err := OpenOrCreate(prefix(full, baseN), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if ri.Replayed != 1 || ri.LastSeq != 4 {
		t.Fatalf("post-snapshot insert skipped on replay: %+v", ri)
	}
	if got, want := d3.Stats().IDSpace, baseN+4; got != want {
		t.Fatalf("recovered IDSpace %d, want %d", got, want)
	}
}

// TestDurableFailStop: after an injected fsync error the index must refuse
// further mutations (never acknowledging writes of unknown durability)
// while searches keep serving.
func TestDurableFailStop(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) / 2
	ffs := faultfs.New(nil, faultfs.Plan{FailSync: 1})
	d, _, err := OpenOrCreate(prefix(full, baseN), Config{
		CompactThreshold: -1,
		Durability:       Durability{Dir: t.TempDir(), FS: ffs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(trajectory.Trajectory{Pts: full.Trajs[baseN].Pts}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("first insert should fail with the injected error, got %v", err)
	}
	if _, err := d.Insert(trajectory.Trajectory{Pts: full.Trajs[baseN].Pts}); err == nil {
		t.Fatal("insert after a sync failure succeeded (not fail-stop)")
	}
	if err := d.Delete(0); err == nil {
		t.Fatal("delete after a sync failure succeeded (not fail-stop)")
	}
	e := d.NewEngine()
	qs := testWorkload(t, full, 2, 3)
	if _, err := e.Search(context.Background(), query.Request{Query: qs[0], K: 5}); err != nil {
		t.Fatalf("search after WAL failure: %v", err)
	}
}

// TestDurableSyncModes: each sync policy survives a clean close/reopen with
// full parity (the crash matrix pins down SyncAlways; this pins the others'
// replay paths).
func TestDurableSyncModes(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) * 3 / 5
	ops := durWorkload(full, baseN)
	qs := testWorkload(t, full, 4, 5)
	for _, mode := range []wal.SyncMode{wal.SyncGroup, wal.SyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{CompactThreshold: -1, Durability: Durability{
				Dir: t.TempDir(), Sync: mode, SegmentBytes: 4096,
			}}
			d, _, err := OpenOrCreate(prefix(full, baseN), cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewDynamic(prefix(full, baseN), Config{CompactThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				if _, err := op.apply(d); err != nil {
					t.Fatal(err)
				}
				if !op.compact {
					if _, err := op.apply(twin); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, _, err := OpenOrCreate(prefix(full, baseN), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			searchParity(t, mode.String(), twin, d2, qs, 10)
		})
	}
}

// TestManifestSnapshotStaysInDir: a manifest whose snapshot name is not a
// bare file name is refused, even when the file it names exists — the
// snapshot is read from the data directory and nowhere else.
func TestManifestSnapshotStaysInDir(t *testing.T) {
	full := laPreset(t)
	baseN := len(full.Trajs) / 2
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	cfg := Config{CompactThreshold: -1, Durability: Durability{Dir: dir}}
	d, _, err := OpenOrCreate(prefix(full, baseN), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(trajectory.Trajectory{Pts: full.Trajs[baseN].Pts}); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "outside.atrj"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "nested"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "nested", "inside.atrj"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := func(name string) []byte {
		return []byte(fmt.Sprintf(`{"version":1,"snapshot":%q,"last_seq":1}`, name))
	}
	for _, name := range []string{"../outside.atrj", "nested/../../outside.atrj", filepath.Join(root, "outside.atrj"), "nested/inside.atrj", "..", "."} {
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest(name), 0o644); err != nil {
			t.Fatal(err)
		}
		if d, _, err := OpenOrCreate(prefix(full, baseN), cfg); err == nil {
			d.Close()
			t.Fatalf("snapshot %q: opened", name)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest(snapName(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	d, _, err = OpenOrCreate(prefix(full, baseN), cfg)
	if err != nil {
		t.Fatalf("the manifest's own snapshot name: %v", err)
	}
	d.Close()
}
