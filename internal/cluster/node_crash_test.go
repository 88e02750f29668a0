package cluster

import (
	"fmt"
	"slices"
	"testing"

	"activitytraj/internal/delta"
	"activitytraj/internal/faultfs"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

// nodeOp is one step of a scripted node program: an insert of pts under gid,
// (pts == nil) a delete of gid, or (segs != nil) a catch-up — ApplySegments
// of the segments a fault-free lead node ships for the mutations in ships.
type nodeOp struct {
	gid   trajectory.TrajID
	pts   []trajectory.Point
	segs  []WALSegment
	ships []nodeOp
}

func (op nodeOp) apply(n *Node) error {
	switch {
	case op.segs != nil:
		_, err := n.ApplySegments(op.segs)
		return err
	case op.pts == nil:
		return n.Delete(op.gid)
	}
	_, err := n.Insert(op.gid, op.pts)
	return err
}

// records flattens a program into the mutations it leaves in the WAL, one
// per record: a catch-up stands for the mutations it ships.
func records(ops []nodeOp) []nodeOp {
	var flat []nodeOp
	for _, op := range ops {
		if op.segs != nil {
			flat = append(flat, op.ships...)
		} else {
			flat = append(flat, op)
		}
	}
	return flat
}

// nodeProgram scripts inserts of fresh gids interleaved with deletes of base
// trajectories, of inserted ones, a re-delete (a no-op that still logs) and,
// in the middle, a catch-up of three mutations.
func nodeProgram(t *testing.T, ds *trajectory.Dataset, l *shard.Layout) []nodeOp {
	t.Helper()
	muts := mutationsFor(t, ds, l, 0, 8)
	var g []trajectory.TrajID
	for gid := range muts {
		g = append(g, gid)
	}
	slices.Sort(g)
	_, base := l.SubDataset(ds, 0)
	ins := func(i int) nodeOp { return nodeOp{gid: g[i], pts: muts[g[i]]} }
	del := func(gid trajectory.TrajID) nodeOp { return nodeOp{gid: gid} }
	before := []nodeOp{ins(0), ins(1), del(base[0]), ins(2), del(g[0]), ins(3)}
	catchup := nodeOp{ships: []nodeOp{ins(6), del(base[1]), ins(7)}}
	after := []nodeOp{del(base[len(base)/2]), ins(4), del(g[3]), ins(5), del(g[0])}

	// The lead applies everything through the catch-up's mutations and ships
	// the segments past what the program applied itself (file granularity:
	// the first one overlaps records the receiver already has).
	lead, _, err := OpenNode(ds, l, NodeConfig{Shard: 0, Durability: delta.Durability{Dir: t.TempDir(), SegmentBytes: 256}})
	if err != nil {
		t.Fatalf("lead: %v", err)
	}
	defer lead.Close()
	for i, op := range append(slices.Clone(before), catchup.ships...) {
		if err := op.apply(lead); err != nil {
			t.Fatalf("lead op %d: %v", i, err)
		}
	}
	if catchup.segs, err = lead.Segments(uint64(len(before))); err != nil || len(catchup.segs) == 0 {
		t.Fatalf("lead shipped %d segments: %v", len(catchup.segs), err)
	}
	return append(append(before, catchup), after...)
}

// requireSameNode compares everything a node exposes about its mutation
// history with a twin's: the sequence, the gid mappings, and the answers.
func requireSameNode(t *testing.T, label string, got, want *Node, ops []nodeOp, qs []query.Query) {
	t.Helper()
	if got.LastSeq() != want.LastSeq() || got.Trajectories() != want.Trajectories() || got.NextGID() != want.NextGID() {
		t.Fatalf("%s: seq/trajectories/nextGID = %d/%d/%d, want %d/%d/%d", label,
			got.LastSeq(), got.Trajectories(), got.NextGID(),
			want.LastSeq(), want.Trajectories(), want.NextGID())
	}
	for _, op := range ops {
		if got.Owns(op.gid) != want.Owns(op.gid) {
			t.Fatalf("%s: Owns(%d) = %v, want %v", label, op.gid, got.Owns(op.gid), want.Owns(op.gid))
		}
	}
	for _, q := range qs {
		requireSameResults(t, label, searchNode(t, want, q, 10), searchNode(t, got, q, 10))
	}
}

// TestNodeCrashMatrix crashes a durable node at every filesystem operation
// of a scripted insert/delete/catch-up program — every write (clean and
// torn), every fsync, every segment create — reopens it on a healthy
// filesystem and requires the recovered node to be exactly a twin that
// applied a prefix of the program's mutations: at least every acknowledged
// one, at most those of the op that was in flight, nothing out of order. The
// recovered node must then take the rest of the program and still match.
func TestNodeCrashMatrix(t *testing.T) {
	ds := testDataset(t, 150)
	l := testLayout(t, ds, 2)
	ops := nodeProgram(t, ds, l)
	flat := records(ops)
	qs := testWorkload(t, ds, 4)
	// Small segments, so the program crosses several rotations.
	cfgFor := func(dir string, ffs *faultfs.FS) NodeConfig {
		cfg := NodeConfig{Shard: 0, Durability: delta.Durability{Dir: dir, SegmentBytes: 256}}
		if ffs != nil {
			cfg.Durability.FS = ffs
		}
		return cfg
	}

	// A fault-free pass counts the operations there are to crash at.
	dry := faultfs.New(nil, faultfs.Plan{})
	n, _, err := OpenNode(ds, l, cfgFor(t.TempDir(), dry))
	if err != nil {
		t.Fatalf("dry run open: %v", err)
	}
	for i, op := range ops {
		if err := op.apply(n); err != nil {
			t.Fatalf("dry run op %d: %v", i, err)
		}
	}
	n.Close()
	writes, syncs, creates, _, _ := dry.Ops()
	if creates < 3 {
		t.Fatalf("program crossed only %d segment creates; the matrix needs rotations", creates)
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

	for _, cp := range points {
		t.Run(cp.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(nil, cp.plan)
			acked, inflight := 0, 1 // in mutations: a catch-up carries several
			if n, _, err := OpenNode(ds, l, cfgFor(dir, ffs)); err == nil {
				failed := false
				for i, op := range ops {
					carries := len(records([]nodeOp{op}))
					switch err := op.apply(n); {
					case err != nil:
						if !failed {
							failed, inflight = true, carries
						}
					case failed:
						t.Fatalf("op %d succeeded after an earlier failure (not fail-stop)", i)
					default:
						acked += carries
					}
				}
				n.Close()
			}
			if !ffs.Crashed() {
				t.Fatalf("plan never fired")
			}

			re, rec, err := OpenNode(ds, l, cfgFor(dir, nil))
			if err != nil {
				t.Fatalf("recovery after %d acknowledged ops: %v", acked, err)
			}
			defer re.Close()
			m := int(rec.Replayed)
			if m < acked || m > acked+inflight || m > len(flat) {
				t.Fatalf("recovered %d records, %d were acknowledged (recovery %+v)", m, acked, rec)
			}
			if re.LastSeq() != uint64(m) || rec.LastSeq != uint64(m) {
				t.Fatalf("LastSeq = %d (recovery %+v), want the %d recovered records", re.LastSeq(), rec, m)
			}
			twin, _, err := OpenNode(ds, l, NodeConfig{Shard: 0})
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range flat[:m] {
				if err := op.apply(twin); err != nil {
					t.Fatalf("twin op %d: %v", i, err)
				}
			}
			requireSameNode(t, "recovered", re, twin, flat, qs)
			for i, op := range flat[m:] {
				if err := op.apply(re); err != nil {
					t.Fatalf("op %d on the recovered node: %v", m+i, err)
				}
				if err := op.apply(twin); err != nil {
					t.Fatalf("twin op %d: %v", m+i, err)
				}
			}
			requireSameNode(t, "resumed", re, twin, flat, qs)
		})
	}
}
