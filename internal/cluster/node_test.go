package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/geo"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

func testDataset(t testing.TB, n int) *trajectory.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name:            "mini",
		Seed:            99,
		NumTrajectories: n,
		NumVenues:       max(2*n, 60),
		VocabSize:       120,
		RegionW:         40,
		RegionH:         40,
		Clusters:        6,
		TrajLenMean:     10,
		TrajLenStd:      4,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds
}

func testWorkload(t testing.TB, ds *trajectory.Dataset, n int) []query.Query {
	t.Helper()
	qs, err := queries.Generate(ds, queries.Config{
		NumQueries:   n,
		NumPoints:    3,
		ActsPerPoint: 2,
		DiameterKm:   8,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	return qs
}

func testLayout(t testing.TB, ds *trajectory.Dataset, shards int) *shard.Layout {
	t.Helper()
	l, err := shard.PlanLayout(ds, shards, 0)
	if err != nil {
		t.Fatalf("plan layout: %v", err)
	}
	return l
}

// mutationsFor builds new trajectories routed to shard si: fresh gids with
// point slices borrowed from base trajectories the layout places there.
func mutationsFor(t testing.TB, ds *trajectory.Dataset, l *shard.Layout, si, n int) map[trajectory.TrajID][]trajectory.Point {
	t.Helper()
	out := make(map[trajectory.TrajID][]trajectory.Point, n)
	next := trajectory.TrajID(len(ds.Trajs))
	for gid := range ds.Trajs {
		if len(out) == n {
			break
		}
		tr := ds.Trajs[gid]
		if len(tr.Pts) == 0 || l.Route(tr.Pts) != si {
			continue
		}
		out[next] = tr.Pts
		next++
	}
	if len(out) != n {
		t.Fatalf("found only %d/%d donor trajectories for shard %d", len(out), n, si)
	}
	return out
}

func searchNode(t testing.TB, n *Node, q query.Query, k int) []query.Result {
	t.Helper()
	resp, err := n.Search(context.Background(), query.Request{Query: q, K: k})
	if err != nil {
		t.Fatalf("node search: %v", err)
	}
	return resp.Results
}

func requireSameResults(t *testing.T, label string, want, got []query.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d\nwant %v\ngot  %v", label, len(got), len(want), want, got)
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Dist != got[i].Dist {
			t.Fatalf("%s: result %d differs\nwant %v\ngot  %v", label, i, want, got)
		}
	}
}

// TestNodeReplicasConverge pins the replication contract: two nodes of the
// same shard fed the identical mutation sequence answer identically.
func TestNodeReplicasConverge(t *testing.T) {
	ds := testDataset(t, 200)
	l := testLayout(t, ds, 2)

	a, _, err := OpenNode(ds, l, NodeConfig{Shard: 0})
	if err != nil {
		t.Fatalf("node a: %v", err)
	}
	b, _, err := OpenNode(ds, l, NodeConfig{Shard: 0})
	if err != nil {
		t.Fatalf("node b: %v", err)
	}

	muts := mutationsFor(t, ds, l, 0, 8)
	var gids []trajectory.TrajID
	for gid := range muts {
		gids = append(gids, gid)
	}
	// Apply in a fixed (sorted) order to both nodes.
	for i := 0; i < len(gids); i++ {
		for j := i + 1; j < len(gids); j++ {
			if gids[j] < gids[i] {
				gids[i], gids[j] = gids[j], gids[i]
			}
		}
	}
	for _, n := range []*Node{a, b} {
		for _, gid := range gids {
			applied, err := n.Insert(gid, muts[gid])
			if err != nil || !applied {
				t.Fatalf("insert gid %d: applied=%v err=%v", gid, applied, err)
			}
		}
		// Delete one base trajectory and one fresh insert.
		if err := n.Delete(a.globalIDs[0]); err != nil {
			t.Fatalf("delete base: %v", err)
		}
		if err := n.Delete(gids[0]); err != nil {
			t.Fatalf("delete fresh: %v", err)
		}
	}
	if a.LastSeq() != b.LastSeq() {
		t.Fatalf("seq diverged: %d vs %d", a.LastSeq(), b.LastSeq())
	}
	if got, want := a.LastSeq(), uint64(len(gids)+2); got != want {
		t.Fatalf("LastSeq = %d, want %d", got, want)
	}
	if a.NextGID() != b.NextGID() {
		t.Fatalf("NextGID diverged: %d vs %d", a.NextGID(), b.NextGID())
	}

	for qi, q := range testWorkload(t, ds, 20) {
		ra := searchNode(t, a, q, 10)
		rb := searchNode(t, b, q, 10)
		requireSameResults(t, "query", ra, rb)
		// Every result carries a GLOBAL ID the layout routes to this shard.
		for _, r := range ra {
			if int(r.ID) < len(ds.Trajs) {
				if l.Route(ds.Trajs[r.ID].Pts) != 0 {
					t.Fatalf("query %d: result gid %d not on shard 0", qi, r.ID)
				}
			} else if _, ok := muts[r.ID]; !ok {
				t.Fatalf("query %d: result gid %d unknown", qi, r.ID)
			}
		}
	}
}

// TestNodeInsertIdempotent pins the retry contract: re-sending an applied
// insert is a no-op that does not advance the sequence.
func TestNodeInsertIdempotent(t *testing.T) {
	ds := testDataset(t, 120)
	l := testLayout(t, ds, 2)
	n, _, err := OpenNode(ds, l, NodeConfig{Shard: 1})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	muts := mutationsFor(t, ds, l, 1, 1)
	for gid, pts := range muts {
		applied, err := n.Insert(gid, pts)
		if err != nil || !applied {
			t.Fatalf("first insert: applied=%v err=%v", applied, err)
		}
		seq, count := n.LastSeq(), n.Trajectories()
		applied, err = n.Insert(gid, pts)
		if err != nil {
			t.Fatalf("second insert: %v", err)
		}
		if applied {
			t.Fatal("second insert of same gid must report applied=false")
		}
		if n.LastSeq() != seq || n.Trajectories() != count {
			t.Fatalf("idempotent insert changed state: seq %d→%d, trajs %d→%d",
				seq, n.LastSeq(), count, n.Trajectories())
		}
	}

	// Deleting an unknown gid is an error; re-deleting a tombstoned one is a
	// logged no-op (replicas must stay record-identical).
	if err := n.Delete(trajectory.TrajID(1 << 30)); err == nil {
		t.Fatal("delete of unknown gid should error")
	}
	victim := n.globalIDs[0]
	if err := n.Delete(victim); err != nil {
		t.Fatalf("delete: %v", err)
	}
	seq := n.LastSeq()
	if err := n.Delete(victim); err != nil {
		t.Fatalf("re-delete: %v", err)
	}
	if n.LastSeq() != seq+1 {
		t.Fatalf("re-delete must still log: seq %d, want %d", n.LastSeq(), seq+1)
	}
	if !n.Owns(victim) {
		t.Fatal("tombstoned gid must still answer Owns=true")
	}
}

// TestNodeDurableRestart pins crash recovery: a reopened node replays its
// replication WAL back to the exact pre-restart state.
func TestNodeDurableRestart(t *testing.T) {
	ds := testDataset(t, 150)
	l := testLayout(t, ds, 2)
	dir := t.TempDir()

	cfg := NodeConfig{Shard: 0, Durability: delta.Durability{Dir: dir}}
	n, rec, err := OpenNode(ds, l, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rec.Replayed != 0 || rec.LastSeq != 0 {
		t.Fatalf("fresh boot recovered %+v", rec)
	}
	muts := mutationsFor(t, ds, l, 0, 5)
	gids := make([]trajectory.TrajID, 0, len(muts))
	for gid := range muts {
		gids = append(gids, gid)
	}
	for _, gid := range gids {
		if _, err := n.Insert(gid, muts[gid]); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if err := n.Delete(gids[0]); err != nil {
		t.Fatalf("delete: %v", err)
	}
	wantSeq := n.LastSeq()
	qs := testWorkload(t, ds, 10)
	var before [][]query.Result
	for _, q := range qs {
		before = append(before, searchNode(t, n, q, 10))
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	n2, rec2, err := OpenNode(ds, l, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec2.Replayed != int64(wantSeq) || rec2.LastSeq != wantSeq {
		t.Fatalf("recovery %+v, want %d records through seq %d", rec2, wantSeq, wantSeq)
	}
	if n2.LastSeq() != wantSeq {
		t.Fatalf("LastSeq = %d, want %d", n2.LastSeq(), wantSeq)
	}
	if n2.NextGID() != n.NextGID() {
		t.Fatalf("NextGID = %d, want %d", n2.NextGID(), n.NextGID())
	}
	for i, q := range qs {
		requireSameResults(t, "restart", before[i], searchNode(t, n2, q, 10))
	}
	n2.Close()
}

// TestNodeRejectedInsertLeavesNoRecord: a trajectory the index refuses must
// be refused before it is logged — a record that fails on apply fails on
// every later replay too, and the node never boots again.
func TestNodeRejectedInsertLeavesNoRecord(t *testing.T) {
	ds := testDataset(t, 150)
	l := testLayout(t, ds, 2)
	cfg := NodeConfig{Shard: 0, Durability: delta.Durability{Dir: t.TempDir()}}
	n, _, err := OpenNode(ds, l, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	gid := trajectory.TrajID(len(ds.Trajs))
	bad := []trajectory.Point{{Loc: geo.Point{X: math.NaN(), Y: 1}}}
	if applied, err := n.Insert(gid, bad); err == nil || applied {
		t.Fatalf("insert of a NaN point: applied=%v err=%v, want a rejection", applied, err)
	}
	if n.LastSeq() != 0 || n.Owns(gid) {
		t.Fatalf("rejected insert left LastSeq=%d Owns=%v", n.LastSeq(), n.Owns(gid))
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	n2, rec, err := OpenNode(ds, l, cfg)
	if err != nil {
		t.Fatalf("reopen after a rejected insert: %v", err)
	}
	if rec.Replayed != 0 {
		t.Fatalf("reopen replayed %d records, want none", rec.Replayed)
	}

	// The same record arriving by catch-up — shipped from a replica whose
	// log was written before the check existed — is refused before it
	// reaches the local log too.
	donor := t.TempDir()
	dl, err := wal.Open(wal.Options{Dir: donor})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := dl.Append(recNodeInsert, delta.EncodePoints(binary.AppendUvarint(nil, uint64(gid)), bad))
	if err == nil {
		err = dl.Commit(seq)
	}
	if err != nil {
		t.Fatal(err)
	}
	dl.Close()
	names, err := wal.ListSegments(wal.OSFS(), donor)
	if err != nil || len(names) != 1 {
		t.Fatalf("donor segments %v: %v", names, err)
	}
	data, err := os.ReadFile(filepath.Join(donor, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := n2.ApplySegments([]WALSegment{{Name: names[0], Data: data}}); err == nil || got != 0 {
		t.Fatalf("catch-up of a NaN insert: seq=%d err=%v, want a rejection at seq 0", got, err)
	}
	n2.Close()
	n3, rec, err := OpenNode(ds, l, cfg)
	if err != nil {
		t.Fatalf("reopen after a rejected catch-up: %v", err)
	}
	defer n3.Close()
	if rec.Replayed != 0 {
		t.Fatalf("reopen replayed %d records, want none", rec.Replayed)
	}
}

// TestNodeCatchup pins WAL shipping: a lagging replica converges to the
// healthy one via Segments→ApplySegments, idempotently.
func TestNodeCatchup(t *testing.T) {
	ds := testDataset(t, 150)
	l := testLayout(t, ds, 2)

	lead, _, err := OpenNode(ds, l, NodeConfig{Shard: 0, Durability: delta.Durability{Dir: t.TempDir(), SegmentBytes: 256}})
	if err != nil {
		t.Fatalf("leader: %v", err)
	}
	lag, _, err := OpenNode(ds, l, NodeConfig{Shard: 0, Durability: delta.Durability{Dir: t.TempDir(), SegmentBytes: 256}})
	if err != nil {
		t.Fatalf("lagger: %v", err)
	}

	muts := mutationsFor(t, ds, l, 0, 6)
	gids := make([]trajectory.TrajID, 0, len(muts))
	for gid := range muts {
		gids = append(gids, gid)
	}
	for i := 0; i < len(gids); i++ {
		for j := i + 1; j < len(gids); j++ {
			if gids[j] < gids[i] {
				gids[i], gids[j] = gids[j], gids[i]
			}
		}
	}
	// The lagger sees the first two mutations, then misses the rest.
	for i, gid := range gids {
		if _, err := lead.Insert(gid, muts[gid]); err != nil {
			t.Fatalf("lead insert: %v", err)
		}
		if i < 2 {
			if _, err := lag.Insert(gid, muts[gid]); err != nil {
				t.Fatalf("lag insert: %v", err)
			}
		}
	}
	if err := lead.Delete(gids[1]); err != nil {
		t.Fatalf("lead delete: %v", err)
	}
	if lead.LastSeq() == lag.LastSeq() {
		t.Fatal("test setup: lagger should be behind")
	}

	segs, err := lead.Segments(lag.LastSeq())
	if err != nil {
		t.Fatalf("segments: %v", err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments shipped")
	}
	got, err := lag.ApplySegments(segs)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got != lead.LastSeq() {
		t.Fatalf("caught up to seq %d, want %d", got, lead.LastSeq())
	}

	// Idempotent: applying the same shipment again changes nothing.
	if got, err = lag.ApplySegments(segs); err != nil || got != lead.LastSeq() {
		t.Fatalf("re-apply: seq %d err %v", got, err)
	}

	for _, q := range testWorkload(t, ds, 20) {
		requireSameResults(t, "catchup",
			searchNode(t, lead, q, 10), searchNode(t, lag, q, 10))
	}

	// A caught-up node restarts from its own (shipped) WAL cleanly.
	if err := lag.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	lead.Close()
}

// TestNodeServerWorkers: a shard replica's /v1/stats reports Options.Workers
// as its admission bound, and searches past the bound queue for a slot
// instead of failing.
func TestNodeServerWorkers(t *testing.T) {
	ds := testDataset(t, 200)
	n, _, err := OpenNode(ds, testLayout(t, ds, 2), NodeConfig{Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ts := httptest.NewServer(NewNodeServer(n, server.Options{Workers: 1}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats["workers"] != 1.0 {
		t.Fatalf("/v1/stats workers = %v, want 1", stats["workers"])
	}

	qs := testWorkload(t, ds, 4)
	errs := make(chan error, len(qs))
	for _, q := range qs {
		go func() {
			wire := server.SearchRequest{K: 5}
			for _, p := range q.Pts {
				pt := server.QueryPointJSON{X: p.Loc.X, Y: p.Loc.Y}
				for _, a := range p.Acts {
					pt.Acts = append(pt.Acts, int(a))
				}
				wire.Points = append(wire.Points, pt)
			}
			body, err := json.Marshal(wire)
			if err == nil {
				var r *http.Response
				if r, err = http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body)); err == nil {
					r.Body.Close()
					if r.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", r.StatusCode)
					}
				}
			}
			errs <- err
		}()
	}
	for range qs {
		if err := <-errs; err != nil {
			t.Fatalf("search behind a one-slot bound: %v", err)
		}
	}
}
