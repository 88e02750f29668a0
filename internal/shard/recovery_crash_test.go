package shard

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"activitytraj/internal/delta"
	"activitytraj/internal/faultfs"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// journalAhead builds a durable 3-shard router directory holding 8
// acknowledged inserts, closes it, and plants one journal record of the
// given kind by hand after them. With a route record this is the state a
// machine crash leaves when the journal became durable and the shard WAL did
// not: an insert that was never acknowledged. It returns the directory and
// where every acknowledged global ID lived when it was acknowledged.
func journalAhead(t *testing.T, base, full *trajectory.Dataset, cfg Config, kind uint8, body []byte) (string, map[trajectory.TrajID]owner) {
	t.Helper()
	dir := t.TempDir()
	cfg.Durability = delta.Durability{Dir: dir}
	r, _, err := OpenOrCreate(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[trajectory.TrajID]owner)
	for i := 0; i < 8; i++ {
		gid, err := r.Insert(trajectory.Trajectory{Pts: full.Trajs[len(base.Trajs)+i].Pts})
		if err != nil {
			t.Fatal(err)
		}
		si, local, _ := r.Owner(gid)
		acked[gid] = owner{shard: int32(si), local: local}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(wal.Options{Dir: filepath.Join(dir, journalDirName)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jl.Append(kind, body); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, acked
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestRouterCrashMatrixRecovery crashes recovery itself: the reopen of a
// journal-ahead directory is killed at every filesystem operation it
// performs, the directory is reopened on a healthy filesystem, and the
// result must equal a router that recovered the same directory without
// crashing — same owner map, NextID, holes and answers — with every
// acknowledged global ID still resolving to the (shard, local) it was
// acknowledged with. (A recovery that rewrites the journal in place fails
// this: a crash between removing the old segments and writing the new ones
// leaves no journal, and the next recovery renumbers the orphaned inserts in
// shard order.)
func TestRouterCrashMatrixRecovery(t *testing.T) {
	full := testDataset(t, 60)
	base := full.Sample(40)
	cfg := Config{Shards: 3, Delta: delta.Config{CompactThreshold: -1}}
	lost := full.Trajs[len(base.Trajs)+8].Pts
	probe, err := NewRouter(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pristine, acked := journalAhead(t, base, full, cfg, recRoute,
		binary.AppendUvarint(nil, uint64(probe.layout.Route(lost))))
	qs := workload(t, full, 6)

	reopen := func(dir string, fsys wal.FS) (*Router, RecoveryInfo, error) {
		c := cfg
		c.Durability = delta.Durability{Dir: dir, FS: fsys}
		return OpenOrCreate(base, c)
	}
	want, wantInfo, err := reopen(copyDir(t, pristine), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	if wantInfo.Holes != 1 || wantInfo.Synthesized != 0 {
		t.Fatalf("uncrashed recovery %+v, want exactly the planted hole", wantInfo)
	}

	// A fault-free pass counts the operations recovery performs.
	dry := faultfs.New(nil, faultfs.Plan{})
	r, _, err := reopen(copyDir(t, pristine), dry)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	writes, syncs, creates, renames, removes := dry.Ops()
	if writes == 0 || syncs == 0 {
		t.Fatalf("recovery made %d writes and %d syncs; making the hole durable needs both", writes, syncs)
	}
	type crashPoint struct {
		name string
		plan faultfs.Plan
	}
	var points []crashPoint
	for i := 1; i <= writes; i++ {
		points = append(points,
			crashPoint{fmt.Sprintf("write-%02d", i), faultfs.Plan{CrashOnWrite: i}},
			crashPoint{fmt.Sprintf("write-%02d-torn", i), faultfs.Plan{CrashOnWrite: i, WritePartial: 5}})
	}
	for i := 1; i <= syncs; i++ {
		points = append(points, crashPoint{fmt.Sprintf("sync-%02d", i), faultfs.Plan{CrashOnSync: i}})
	}
	for i := 1; i <= creates; i++ {
		points = append(points, crashPoint{fmt.Sprintf("create-%02d", i), faultfs.Plan{CrashOnCreate: i}})
	}
	for i := 1; i <= renames; i++ {
		points = append(points, crashPoint{fmt.Sprintf("rename-%02d", i), faultfs.Plan{CrashOnRename: i}})
	}
	for i := 1; i <= removes; i++ {
		points = append(points, crashPoint{fmt.Sprintf("remove-%02d", i), faultfs.Plan{CrashOnRemove: i}})
	}

	for _, cp := range points {
		t.Run(cp.name, func(t *testing.T) {
			dir := copyDir(t, pristine)
			ffs := faultfs.New(nil, cp.plan)
			if r, _, err := reopen(dir, ffs); err == nil {
				r.Close()
			}
			if !ffs.Crashed() {
				t.Fatal("plan never fired")
			}
			got, info, err := reopen(dir, nil)
			if err != nil {
				t.Fatalf("recovery after a crashed recovery: %v", err)
			}
			defer got.Close()
			if info.Holes != wantInfo.Holes || info.Synthesized != 0 {
				t.Fatalf("recovered %+v, uncrashed recovery %+v", info, wantInfo)
			}
			if g, w := got.Stats().NextID, want.Stats().NextID; g != w {
				t.Fatalf("NextID %d, uncrashed recovery %d", g, w)
			}
			for gid := 0; gid < want.Stats().NextID; gid++ {
				ws, wl, wok := want.Owner(trajectory.TrajID(gid))
				gs, gl, gok := got.Owner(trajectory.TrajID(gid))
				if ws != gs || wl != gl || wok != gok {
					t.Fatalf("gid %d resolves to (%d, %d, %v), uncrashed recovery (%d, %d, %v)", gid, gs, gl, gok, ws, wl, wok)
				}
			}
			for gid, o := range acked {
				if s, l, ok := got.Owner(gid); !ok || int32(s) != o.shard || l != o.local {
					t.Fatalf("acknowledged gid %d was (%d, %d), now resolves to (%d, %d, %v)", gid, o.shard, o.local, s, l, ok)
				}
			}
			routerParity(t, "recovered", want, got, qs, 10)
		})
	}
}

// TestRouterLegacyHoleRecordReplays: a journal an earlier version rewrote
// holds explicit kind-2 hole records; they must keep consuming their global
// ID without binding it.
func TestRouterLegacyHoleRecordReplays(t *testing.T) {
	full := testDataset(t, 60)
	base := full.Sample(40)
	cfg := Config{Shards: 3, Delta: delta.Config{CompactThreshold: -1}}
	dir, acked := journalAhead(t, base, full, cfg, recHole, nil)
	cfg.Durability = delta.Durability{Dir: dir}
	r, ri, err := OpenOrCreate(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hole := trajectory.TrajID(len(base.Trajs) + len(acked))
	if ri.Holes != 1 || ri.JournalRebuilt || r.Stats().NextID != int(hole)+1 {
		t.Fatalf("recovery %+v with NextID %d, want the one legacy hole replayed as is", ri, r.Stats().NextID)
	}
	if _, _, ok := r.Owner(hole); ok {
		t.Fatalf("legacy hole %d resolves to an owner", hole)
	}
	for gid, o := range acked {
		if s, l, ok := r.Owner(gid); !ok || int32(s) != o.shard || l != o.local {
			t.Fatalf("acknowledged gid %d was (%d, %d), now resolves to (%d, %d, %v)", gid, o.shard, o.local, s, l, ok)
		}
	}
}
