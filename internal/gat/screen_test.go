package gat

import (
	"math"
	"math/rand"
	"testing"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/geo"
	"activitytraj/internal/invindex"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// tombOverlay is a delta overlay holding only what the screen must leave
// alone: tombstones, and delta trajectories served through the overflow
// path (retrieved in the first batch, whatever they carry).
type tombOverlay struct {
	baseN int
	delta []uint32
	tombs map[trajectory.TrajID]bool
}

func (o *tombOverlay) Entry(trajectory.TrajID) evaluate.DeltaEntry { return evaluate.DeltaEntry{} }
func (o *tombOverlay) IDSpace() int                                { return o.baseN + len(o.delta) }
func (o *tombOverlay) Empty() bool                                 { return false }
func (o *tombOverlay) AppendCellSets(dst []*invindex.Set, _ int, _ trajectory.ActivityID) []*invindex.Set {
	return dst
}
func (o *tombOverlay) AppendRangeTrajs(dst []uint32, _, _ uint32, _ trajectory.ActivityID, _ *geo.Rect) []uint32 {
	return dst
}
func (o *tombOverlay) Tombstoned(id trajectory.TrajID) bool { return o.tombs[id] }
func (o *tombOverlay) HasTombstones() bool                  { return len(o.tombs) > 0 }
func (o *tombOverlay) AppendOverflow(dst []uint32) []uint32 { return append(dst, o.delta...) }

// TestScreenMatchesDirectory pins the retrieval-side containment screen:
// for random requests, the base trajectories Begin stamps eligible are
// exactly those whose activity set contains every query activity, and a
// drained search emits exactly the retrieved base trajectories among them,
// every delta trajectory it retrieves, and nothing tombstoned. Requests mix
// activities absent from the index, activities shared by several query
// points and region filters; the last rounds run across a forced stamp
// wrap with the stamp array poisoned.
func TestScreenMatchesDirectory(t *testing.T) {
	ds, ts, idx := buildSmall(t, Config{Depth: 6})
	baseN := ts.NumTrajs()
	var vocab trajectory.ActivitySet
	for ti := range ds.Trajs {
		vocab = vocab.Union(ds.Trajs[ti].ActivityUnion())
	}
	absent := vocab[len(vocab)-1] + 7
	ov := &tombOverlay{
		baseN: baseN,
		delta: []uint32{uint32(baseN), uint32(baseN + 1), uint32(baseN + 2)},
		tombs: map[trajectory.TrajID]bool{3: true, 41: true, 150: true, trajectory.TrajID(baseN + 1): true},
	}
	rng := rand.New(rand.NewSource(28))
	randReq := func() query.Request {
		pick := func() trajectory.ActivityID {
			// Draw from a trajectory so multi-activity queries have matches.
			acts := ds.Trajs[rng.Intn(len(ds.Trajs))].ActivityUnion()
			return acts[rng.Intn(len(acts))]
		}
		shared := pick()
		pts := make([]query.Point, 1+rng.Intn(3))
		for i := range pts {
			var acts []trajectory.ActivityID
			for range 1 + rng.Intn(3) {
				acts = append(acts, pick())
			}
			switch rng.Intn(6) {
			case 0:
				acts = append(acts, absent)
			case 1, 2:
				acts = append(acts, shared)
			}
			tr := &ds.Trajs[rng.Intn(len(ds.Trajs))]
			pts[i] = query.Point{Loc: tr.Pts[rng.Intn(len(tr.Pts))].Loc, Acts: trajectory.NewActivitySet(acts...)}
		}
		req := query.Request{Query: query.New(pts...), K: 5}
		if rng.Intn(3) == 0 {
			c := pts[0].Loc
			region := geo.NewRect(c.X-4, c.Y-4, c.X+4, c.Y+4)
			req.Region = &region
		}
		return req
	}
	check := func(e *Engine, round int, req query.Request) {
		t.Helper()
		s := peekScratch(e)
		var stats query.SearchStats
		s.Begin(req, &stats)
		all := req.Query.AllActs()
		eligible := 0
		for tid := range baseN {
			want := ds.Trajs[tid].ActivityUnion().ContainsAll(all)
			if got := s.elig[tid] == s.want; got != want {
				t.Fatalf("round %d: traj %d stamped eligible=%v, directory says %v (query %v)", round, tid, got, want, all)
			}
			if want {
				eligible++
			}
		}
		if all.Contains(absent) && eligible != 0 {
			t.Fatalf("round %d: %d trajectories eligible for an absent activity", round, eligible)
		}
		emitted := make(map[trajectory.TrajID]bool)
		for {
			for _, id := range s.NextBatch() {
				if emitted[id] {
					t.Fatalf("round %d: traj %d emitted twice", round, id)
				}
				emitted[id] = true
			}
			if s.Exhausted() {
				break
			}
		}
		screened := 0
		for id := range s.seen[:baseN] {
			tid := trajectory.TrajID(id)
			retrieved := s.seen[id] == s.gen
			want := retrieved && ds.Trajs[id].ActivityUnion().ContainsAll(all)
			if emitted[tid] != want {
				t.Fatalf("round %d: base traj %d emitted=%v, want %v", round, id, emitted[tid], want)
			}
			if retrieved && !want {
				screened++
			}
		}
		if stats.Candidates != screened || stats.APLRejected != screened || stats.HeaderOnlyRejects != screened {
			t.Fatalf("round %d: screened %d, charged candidates %d, APL %d, header-only %d",
				round, screened, stats.Candidates, stats.APLRejected, stats.HeaderOnlyRejects)
		}
		if e.ov != nil {
			for id := range emitted {
				if ov.tombs[id] {
					t.Fatalf("round %d: tombstoned traj %d emitted", round, id)
				}
			}
			for _, id := range ov.delta {
				if tid := trajectory.TrajID(id); emitted[tid] == ov.tombs[tid] {
					t.Fatalf("round %d: delta traj %d emitted=%v, tombstoned=%v", round, id, emitted[tid], ov.tombs[tid])
				}
			}
		}
	}
	plain, merged := NewEngine(idx), NewEngineWithOverlay(idx, ov)
	for round := range 150 {
		req := randReq()
		check(plain, round, req)
		check(merged, round, req)
	}
	// Force the wrap: stamps would overflow within the next search or two.
	// Poison every entry with a small stamp the restarted sequence hands out
	// again, so a missed wipe would make ineligible trajectories eligible.
	for _, e := range []*Engine{plain, merged} {
		s := peekScratch(e)
		s.stamp = math.MaxUint32 - 3
		for i := range s.elig {
			s.elig[i] = uint32(i%5) + 1
		}
	}
	for round := 150; round < 170; round++ {
		req := randReq()
		check(plain, round, req)
		check(merged, round, req)
	}
	if peekScratch(plain).stamp > 1000 || peekScratch(merged).stamp > 1000 {
		t.Fatalf("stamps did not wrap: %d, %d", peekScratch(plain).stamp, peekScratch(merged).stamp)
	}
}
