package shard

import (
	"context"
	"encoding/binary"
	"path/filepath"
	"sync"
	"testing"

	"activitytraj/internal/delta"
	"activitytraj/internal/faultfs"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// shardOp is one scripted router mutation (insert when pts != nil).
type shardOp struct {
	pts []trajectory.Point
	del trajectory.TrajID
}

// shardWorkload scripts inserts of the dataset's tail onto a base prefix,
// deleting a distinct live base trajectory after every 4th insert. The
// tail's spread across the region exercises routing to multiple shards.
func shardWorkload(full *trajectory.Dataset, baseN int) []shardOp {
	var ops []shardOp
	dels := 0
	for i, tr := range full.Trajs[baseN:] {
		ops = append(ops, shardOp{pts: tr.Pts})
		if i%4 == 3 && dels < baseN {
			dels++
			ops = append(ops, shardOp{del: trajectory.TrajID(baseN - dels)})
		}
	}
	return ops
}

func (o shardOp) apply(r *Router) error {
	if o.pts != nil {
		_, err := r.Insert(trajectory.Trajectory{Pts: o.pts})
		return err
	}
	return r.Delete(o.del)
}

// routerParity asserts bit-identical search results between two routers.
func routerParity(t *testing.T, label string, want, got *Router, qs []query.Query, k int) {
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
			requireIdentical(t, label, wr.Results, gr.Results)
		}
	}
}

func TestNewRouterRejectsDurability(t *testing.T) {
	_, err := NewRouter(testDataset(t, 40), Config{Durability: delta.Durability{Dir: t.TempDir()}})
	if err == nil {
		t.Fatal("NewRouter accepted a durable config; OpenOrCreate must be the only door")
	}
	_, _, err = OpenOrCreate(testDataset(t, 40), Config{
		Durability: delta.Durability{Dir: t.TempDir()},
		Delta:      delta.Config{Durability: delta.Durability{Dir: t.TempDir()}},
	})
	if err == nil {
		t.Fatal("OpenOrCreate accepted per-delta durability under a durable router")
	}
}

// TestRouterRecoverCleanShutdown: close and reopen a durable router — the
// recovered router must search bit-identically to an uncrashed twin and
// resume global ID assignment exactly where it left off.
func TestRouterRecoverCleanShutdown(t *testing.T) {
	full := testDataset(t, 120)
	baseN := 80
	base := full.Sample(baseN)
	cfg := Config{Shards: 3, Delta: delta.Config{CompactThreshold: -1}}
	dcfg := cfg
	dcfg.Durability = delta.Durability{Dir: t.TempDir(), SegmentBytes: 4096}

	r, ri, err := OpenOrCreate(base, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ri.JournalReplayed != 0 || ri.Synthesized != 0 {
		t.Fatalf("fresh open reported recovery: %+v", ri)
	}
	twin, err := NewRouter(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := shardWorkload(full, baseN)
	for i, op := range ops {
		if err := op.apply(r); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := op.apply(twin); err != nil {
			t.Fatal(err)
		}
		// Compact mid-stream so recovery crosses shard snapshots too.
		if i == len(ops)/2 {
			if err := r.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, ri, err := OpenOrCreate(base, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if ri.JournalReplayed == 0 {
		t.Fatalf("no journal records replayed: %+v", ri)
	}
	if ri.Synthesized != 0 || ri.JournalRebuilt {
		t.Fatalf("clean shutdown should not synthesize or rebuild: %+v", ri)
	}
	wantStats, gotStats := twin.Stats(), r2.Stats()
	if wantStats.NextID != gotStats.NextID {
		t.Fatalf("recovered NextID %d != twin %d", gotStats.NextID, wantStats.NextID)
	}
	for si := range wantStats.PerShard {
		if wantStats.PerShard[si].Trajectories != gotStats.PerShard[si].Trajectories {
			t.Fatalf("shard %d: recovered %d trajectories, twin %d",
				si, gotStats.PerShard[si].Trajectories, wantStats.PerShard[si].Trajectories)
		}
	}
	qs := workload(t, full, 8)
	routerParity(t, "clean-shutdown", twin, r2, qs, 10)

	// Global ID assignment resumes in lockstep.
	gid, err := r2.Insert(trajectory.Trajectory{Pts: full.Trajs[0].Pts})
	if err != nil {
		t.Fatal(err)
	}
	gid2, err := twin.Insert(trajectory.Trajectory{Pts: full.Trajs[0].Pts})
	if err != nil {
		t.Fatal(err)
	}
	if gid != gid2 {
		t.Fatalf("post-recovery insert assigned %d, twin %d", gid, gid2)
	}
	routerParity(t, "post-recovery-insert", twin, r2, qs, 10)
}

// TestRouterJournalAheadLeavesHole: a journal record whose shard record was
// lost before becoming durable (a machine crash persisting the journal
// first — the insert was never acknowledged) must replay as a hole: its
// global ID stays consumed so every later record keeps the ID it was
// acknowledged with, and the hole resolves to nothing.
func TestRouterJournalAheadLeavesHole(t *testing.T) {
	full := testDataset(t, 60)
	baseN := 40
	base := full.Sample(baseN)
	cfg := Config{Shards: 3, Delta: delta.Config{CompactThreshold: -1}}
	dcfg := cfg
	dcfg.Durability = delta.Durability{Dir: t.TempDir()}

	r, _, err := OpenOrCreate(base, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Insert(trajectory.Trajectory{Pts: full.Trajs[baseN+i].Pts}); err != nil {
			t.Fatal(err)
		}
	}
	nextID := r.Stats().NextID
	si := r.layout.Route(full.Trajs[baseN+5].Pts)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant the orphan routing record by hand: its shard insert "was lost".
	jdir := filepath.Join(dcfg.Durability.Dir, journalDirName)
	jl, err := wal.Open(wal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jl.Append(recRoute, binary.AppendUvarint(nil, uint64(si))); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	r2, ri, err := OpenOrCreate(base, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Holes != 1 || !ri.JournalRebuilt {
		t.Fatalf("recovery info %+v, want 1 hole and a journal rebuild", ri)
	}
	hole := trajectory.TrajID(nextID)
	if got := r2.Stats().NextID; got != nextID+1 {
		t.Fatalf("recovered NextID %d, want %d (the hole must consume its ID)", got, nextID+1)
	}
	if _, _, ok := r2.Owner(hole); ok {
		t.Fatalf("hole %d resolves to an owner", hole)
	}
	if err := r2.Delete(hole); err == nil {
		t.Fatalf("deleting hole %d succeeded", hole)
	}
	gid, err := r2.Insert(trajectory.Trajectory{Pts: full.Trajs[baseN+6].Pts})
	if err != nil {
		t.Fatal(err)
	}
	if gid != hole+1 {
		t.Fatalf("post-recovery insert assigned %d, want %d (past the hole)", gid, hole+1)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}

	// The hole survives further recoveries as an explicit record, without
	// another rebuild and without shifting IDs.
	r3, ri, err := OpenOrCreate(base, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if ri.Holes != 1 || ri.JournalRebuilt {
		t.Fatalf("second recovery info %+v, want the hole replayed with no rebuild", ri)
	}
	if got := r3.Stats().NextID; got != int(gid)+1 {
		t.Fatalf("second recovery NextID %d, want %d", got, int(gid)+1)
	}
	wantSi := r3.layout.Route(full.Trajs[baseN+6].Pts)
	if s, local, ok := r3.Owner(gid); !ok || s != wantSi {
		t.Fatalf("post-hole insert %d resolves to (%d, %d, %v), want shard %d", gid, s, local, ok, wantSi)
	}
}

// TestRouterConcurrentDurableInserts drives the out-of-lock durability
// waits under the race detector: concurrent inserts must overlap safely,
// assign dense global IDs, and recover cleanly.
func TestRouterConcurrentDurableInserts(t *testing.T) {
	full := testDataset(t, 120)
	baseN := 40
	base := full.Sample(baseN)
	cfg := Config{Shards: 3, Delta: delta.Config{CompactThreshold: -1}}
	dcfg := cfg
	dcfg.Durability = delta.Durability{Dir: t.TempDir(), Sync: wal.SyncGroup}

	r, _, err := OpenOrCreate(base, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	tail := full.Trajs[baseN:]
	var wg sync.WaitGroup
	errs := make([]error, len(tail))
	gids := make([]trajectory.TrajID, len(tail))
	for i := range tail {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gids[i], errs[i] = r.Insert(trajectory.Trajectory{Pts: tail[i].Pts})
		}(i)
	}
	wg.Wait()
	seen := make(map[trajectory.TrajID]bool)
	for i := range tail {
		if errs[i] != nil {
			t.Fatalf("insert %d: %v", i, errs[i])
		}
		if seen[gids[i]] {
			t.Fatalf("global ID %d assigned twice", gids[i])
		}
		seen[gids[i]] = true
	}
	if got := r.Stats().NextID; got != len(full.Trajs) {
		t.Fatalf("NextID %d, want %d", got, len(full.Trajs))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, ri, err := OpenOrCreate(base, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if ri.Synthesized != 0 || ri.Holes != 0 || ri.JournalRebuilt {
		t.Fatalf("clean shutdown recovered with %+v", ri)
	}
	if got := r2.Stats().NextID; got != len(full.Trajs) {
		t.Fatalf("recovered NextID %d, want %d", got, len(full.Trajs))
	}
	for gid := range seen {
		if _, _, ok := r2.Owner(gid); !ok {
			t.Fatalf("acknowledged insert %d has no owner after recovery", gid)
		}
	}
}

// TestRouterCrashMatrix injects crash points across the sharded stack —
// inside shard WALs, the routing journal, and shard compaction — and
// asserts the reopened router is bit-identical to a twin that applied the
// recovered mutation prefix. Routing is deterministic, so the recovered
// prefix is identified by the number of surviving global IDs.
func TestRouterCrashMatrix(t *testing.T) {
	full := testDataset(t, 120)
	baseN := 80
	base := full.Sample(baseN)
	ops := shardWorkload(full, baseN)
	qs := workload(t, full, 6)

	cases := []struct {
		name string
		plan faultfs.Plan
	}{
		{"early-write", faultfs.Plan{CrashOnWrite: 30}},
		{"torn-record", faultfs.Plan{CrashOnWrite: 40, WritePartial: 6}},
		{"journal-window", faultfs.Plan{CrashOnWrite: 41}},
		{"late-write", faultfs.Plan{CrashOnWrite: 75, WritePartial: 11}},
		{"fsync", faultfs.Plan{CrashOnSync: 35}},
		{"segment-create", faultfs.Plan{CrashOnCreate: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faultfs.New(nil, tc.plan)
			cfg := Config{Shards: 3, Delta: delta.Config{CompactThreshold: -1}}
			dcfg := cfg
			dcfg.Durability = delta.Durability{
				Dir: t.TempDir(), SegmentBytes: 2048, FS: ffs,
			}
			r, _, err := OpenOrCreate(base, dcfg)
			if err != nil {
				t.Skipf("fault fired during open: %v", err)
			}
			acked := 0
			failed := false
			for _, op := range ops {
				err := op.apply(r)
				if op.pts != nil {
					if err == nil {
						acked++
					} else {
						failed = true
					}
				}
			}
			if !ffs.Crashed() {
				w, s, c, rn, rm := ffs.Ops()
				t.Fatalf("plan %+v never fired (ops: %d writes %d syncs %d creates %d renames %d removes)", tc.plan, w, s, c, rn, rm)
			}
			if !failed {
				t.Fatal("crash fired but every insert was acknowledged")
			}

			dcfg.Durability.FS = nil
			r2, ri, err := OpenOrCreate(base, dcfg)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer r2.Close()
			recovered := r2.Stats().NextID - baseN
			if recovered < acked {
				t.Fatalf("recovered %d inserts < %d acknowledged (info %+v)", recovered, acked, ri)
			}

			// Mutations are serialized and the filesystem fail-stops, so the
			// recovered corpus is ops[0:m] for some m. Identify m by matching
			// each shard's recovered (inserts, tombstones) against a running
			// simulation of the op stream — each op changes one counter, so
			// the match is unique.
			stats := r2.Stats()
			type counts struct{ ins, del int }
			baseOwned := make([]int, len(stats.PerShard))
			for gid := range base.Trajs {
				si, _, ok := r2.Owner(trajectory.TrajID(gid))
				if !ok {
					t.Fatalf("base trajectory %d has no owner", gid)
				}
				baseOwned[si]++
			}
			want := make([]counts, len(stats.PerShard))
			for si, ss := range stats.PerShard {
				want[si] = counts{
					ins: ss.Trajectories - baseOwned[si],
					del: ss.Delta.Tombstones,
				}
			}
			sim := make([]counts, len(stats.PerShard))
			matches := func() bool {
				for si := range sim {
					if sim[si] != want[si] {
						return false
					}
				}
				return true
			}
			m := -1
			if matches() {
				m = 0
			}
			for i, op := range ops {
				if op.pts != nil {
					sim[r2.layout.Route(op.pts)].ins++
				} else {
					dsh, _, ok := r2.Owner(op.del)
					if !ok {
						// The delete targets a base trajectory; Owner always
						// knows it.
						t.Fatalf("op %d: unknown delete target %d", i, op.del)
					}
					sim[dsh].del++
				}
				if matches() {
					m = i + 1
					break
				}
			}
			if m < 0 {
				t.Fatalf("no op prefix matches recovered shard state %+v", want)
			}

			twin, err := NewRouter(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops[:m] {
				if err := op.apply(twin); err != nil {
					t.Fatal(err)
				}
			}
			routerParity(t, tc.name, twin, r2, qs, 10)

			// The recovered router must accept new mutations.
			g1, err := r2.Insert(trajectory.Trajectory{Pts: full.Trajs[1].Pts})
			if err != nil {
				t.Fatalf("post-recovery insert: %v", err)
			}
			g2, err := twin.Insert(trajectory.Trajectory{Pts: full.Trajs[1].Pts})
			if err != nil {
				t.Fatal(err)
			}
			if g1 != g2 {
				t.Fatalf("post-recovery insert assigned %d, twin %d", g1, g2)
			}
			routerParity(t, tc.name+"/post-insert", twin, r2, qs, 10)
		})
	}
}
