package enginetest

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"activitytraj/internal/baseline"
	"activitytraj/internal/dataset"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/geo"
	"activitytraj/internal/matcher"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// boxModes are the scoring modes the box screen serves, each with the
// matcher call that decides it on a candidate's full rows.
var boxModes = []struct {
	name string
	req  query.Request // Query and K are filled in per use
	full func(m *matcher.Matcher, n int, rows []matcher.QueryRow, th float64) float64
}{
	{"ATSQ", query.Request{}, func(m *matcher.Matcher, n int, rows []matcher.QueryRow, th float64) float64 {
		return m.MinMatch(rows, th)
	}},
	{"OATSQ", query.Request{Ordered: true}, func(m *matcher.Matcher, n int, rows []matcher.QueryRow, th float64) float64 {
		return m.MinOrderMatch(n, rows, th)
	}},
	{"Span", query.Request{Subtrajectory: true, MaxSpanPoints: 3}, func(m *matcher.Matcher, n int, rows []matcher.QueryRow, th float64) float64 {
		return m.MinMatchSpan(n, rows, 0, 3, th)
	}},
	{"OrderedSpan", query.Request{Ordered: true, Subtrajectory: true, MaxSpanPoints: 3}, func(m *matcher.Matcher, n int, rows []matcher.QueryRow, th float64) float64 {
		return m.MinOrderMatchSpan(n, rows, 0, 3, th)
	}},
}

// boxWorld is one store plus the queries and regions screened against it.
type boxWorld struct {
	name    string
	ds      *trajectory.Dataset
	qs      []query.Query
	regions []*geo.Rect
	// tight names a (query, trajectory) pair whose bound equals its ATSQ
	// distance exactly, so one ulp below the distance must screen it.
	tight *[2]int
}

// screenOutcome scores id under req at threshold th on a fresh evaluator
// and reports the distance, the outcome and whether the box screen decided
// it.
func screenOutcome(t *testing.T, ts *evaluate.TrajStore, req query.Request, id trajectory.TrajID, th float64) (float64, evaluate.Outcome, bool) {
	t.Helper()
	ev := evaluate.NewEvaluator(ts)
	ev.Install(req)
	var st query.SearchStats
	d, out, err := ev.Score(req.Query, req.Ordered, id, th, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.BoxScreened > st.Scored {
		t.Fatalf("BoxScreened %d > Scored %d", st.BoxScreened, st.Scored)
	}
	return d, out, st.BoxScreened == 1
}

// checkBoxWorld holds the screen to exactness on every (request,
// candidate) pair of w: at thresholds of the mode's distance D, one ulp
// either side of it and +Inf, a screened candidate is Scored at +Inf and
// the matcher on its full rows returns +Inf at that threshold too; at D
// itself and at +Inf nothing is screened; and whatever is not screened
// scores exactly what the full rows score.
func checkBoxWorld(t *testing.T, w boxWorld) {
	ts, err := evaluate.BuildTrajStore(w.ds, evaluate.TrajStoreConfig{})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	defer ts.Close()
	var m matcher.Matcher
	screened := 0
	for qi, q := range w.qs {
		for _, region := range w.regions {
			for _, mode := range boxModes {
				req := mode.req
				req.Query, req.K, req.Region = q, 1, region
				for ti := range w.ds.Trajs {
					tr := &w.ds.Trajs[ti]
					pts := tr.Pts
					if region != nil {
						pts = slices.Clone(pts)
						for i := range pts {
							if !region.ContainsPoint(pts[i].Loc) {
								pts[i].Acts = nil
							}
						}
					}
					rows := matcher.BuildRowsFromPoints(q.Pts, pts)
					n := len(tr.Pts)
					d := mode.full(&m, n, rows, matcher.Inf)
					ths := []float64{matcher.Inf, math.Nextafter(d, -1), 1e-3, 0}
					if d < matcher.Inf {
						ths = append(ths, d, math.Nextafter(d, matcher.Inf))
					}
					for _, th := range ths {
						got, out, scr := screenOutcome(t, ts, req, tr.ID, th)
						if out != evaluate.Scored {
							break // containment or MIB: decided before any screen
						}
						want := mode.full(&m, n, rows, th)
						if scr {
							screened++
							if got != matcher.Inf || want != matcher.Inf {
								t.Fatalf("%s q%d t%d %s region=%v th=%v: screened, but scores %v and the full rows %v", w.name, qi, ti, mode.name, region != nil, th, got, want)
							}
							if th == d || th == matcher.Inf {
								t.Fatalf("%s q%d t%d %s region=%v: screened at th=%v with distance %v", w.name, qi, ti, mode.name, region != nil, th, d)
							}
						} else if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s q%d t%d %s region=%v th=%v: scores %v, the full rows %v", w.name, qi, ti, mode.name, region != nil, th, got, want)
						}
					}
				}
			}
		}
	}
	if w.tight != nil {
		q, tr := w.qs[w.tight[0]], &w.ds.Trajs[w.tight[1]]
		d := m.MinMatch(matcher.BuildRowsFromPoints(q.Pts, tr.Pts), matcher.Inf)
		if _, _, scr := screenOutcome(t, ts, query.Request{Query: q, K: 1}, tr.ID, d); scr {
			t.Fatalf("%s: the tight pair was screened at its distance %v", w.name, d)
		}
		if _, _, scr := screenOutcome(t, ts, query.Request{Query: q, K: 1}, tr.ID, math.Nextafter(d, -1)); !scr {
			t.Fatalf("%s: the tight pair (distance %v) was not screened one ulp below it", w.name, d)
		}
	}
	if screened == 0 {
		t.Fatalf("%s: nothing was screened", w.name)
	}
}

func pointAt(x, y float64, acts ...trajectory.ActivityID) trajectory.Point {
	return trajectory.Point{Loc: geo.Point{X: x, Y: y}, Acts: trajectory.NewActivitySet(acts...)}
}

func qpAt(x, y float64, acts ...trajectory.ActivityID) query.Point {
	return query.Point{Loc: geo.Point{X: x, Y: y}, Acts: trajectory.NewActivitySet(acts...)}
}

func worldOf(name string, trajs ...[]trajectory.Point) *trajectory.Dataset {
	ds := &trajectory.Dataset{Name: name}
	for i, pts := range trajs {
		ds.Trajs = append(ds.Trajs, trajectory.Trajectory{ID: trajectory.TrajID(i), Pts: pts})
	}
	return ds
}

// TestBoxScreenExact: the box screen decides a candidate only when the
// matcher would abandon it at the same threshold, bit for bit — on random
// worlds and on hand-built stores at the lattice's edges — and on the
// golden world it fires for GAT, never for IL's bound-only ATSQ
// threshold, never beyond Scored.
func TestBoxScreenExact(t *testing.T) {
	rng := rand.New(rand.NewSource(59)) // this property's own rng
	far := []query.Query{
		query.New(qpAt(1e6, 1e6, 1)),
		query.New(qpAt(-1e9, 5, 1), qpAt(3, -1e7, 2)),
	}
	worlds := []boxWorld{
		{
			name: "one point",
			ds:   worldOf("one point", []trajectory.Point{pointAt(3, 4, 1, 2)}),
			qs:   append(far, query.New(qpAt(3, 4, 1)), query.New(qpAt(7, 1, 1, 2))),
		},
		{
			name: "zero width",
			ds: worldOf("zero width",
				[]trajectory.Point{pointAt(2, 0, 1), pointAt(2, 5, 2), pointAt(2, 9, 1, 2)},
				[]trajectory.Point{pointAt(2, 1, 2), pointAt(2, 3, 1)}),
			qs: append(far, query.New(qpAt(2, 4, 1), qpAt(-6, 8, 2))),
		},
		{
			name: "zero height",
			ds: worldOf("zero height",
				[]trajectory.Point{pointAt(0, -3, 1), pointAt(5, -3, 2), pointAt(9, -3, 1, 2)},
				[]trajectory.Point{pointAt(1, -3, 2), pointAt(3, -3, 1)}),
			qs: append(far, query.New(qpAt(4, -3, 2), qpAt(8, 6, 1))),
		},
		{
			name: "one location",
			ds: worldOf("one location",
				[]trajectory.Point{pointAt(1.5, 1.5, 1), pointAt(1.5, 1.5, 2)},
				[]trajectory.Point{pointAt(1.5, 1.5, 1, 2)}),
			qs: append(far, query.New(qpAt(1.5, 1.5, 1, 2)), query.New(qpAt(0, 0, 2))),
		},
		{
			// Bounds [0, 256]² put the cell edges on the integers: points on
			// them, on the store's maximum edge and corner. The last
			// trajectory's lone point at the maximum corner has a box whose
			// upper edges are its coordinates exactly, so a query straight
			// out along x has a bound equal to its distance.
			name: "cell edges",
			ds: worldOf("cell edges",
				[]trajectory.Point{pointAt(0, 0, 1), pointAt(256, 17, 2), pointAt(17, 256, 1)},
				[]trajectory.Point{pointAt(1, 1, 1, 2), pointAt(2, 2, 2), pointAt(255, 255, 1)},
				[]trajectory.Point{pointAt(128, 0.5, 1), pointAt(127.999999, 3, 2)},
				[]trajectory.Point{pointAt(256, 256, 1)}),
			qs: append(far,
				query.New(qpAt(300, 256, 1)),
				query.New(qpAt(256, 256, 1), qpAt(0, 0, 2)),
				query.New(qpAt(128, 128, 1, 2))),
			tight: &[2]int{2, 3},
		},
	}
	// Bounds [0, 0.3]², whose cell width is inexact: one lone point one ulp
	// below every inner cell edge on the x axis, where dividing by the
	// width may round up into the next cell. The query at the origin
	// measures exactly the side of the box such rounding would cut: its
	// distance to each point is the point's x.
	edge := worldOf("below edges", []trajectory.Point{pointAt(0, 0, 2), pointAt(0.3, 0.3, 2)})
	for c := 1; c < 256; c++ {
		x := math.Nextafter(float64(c)*(0.3/256), -1)
		edge.Trajs = append(edge.Trajs, trajectory.Trajectory{ID: trajectory.TrajID(c), Pts: []trajectory.Point{pointAt(x, 0, 1)}})
	}
	worlds = append(worlds, boxWorld{
		name:    "below edges",
		ds:      edge,
		qs:      []query.Query{query.New(qpAt(0, 0, 1)), query.New(qpAt(-0.5, 0.1, 1))},
		regions: []*geo.Rect{nil},
	})
	for wi := 0; wi < 12; wi++ {
		worlds = append(worlds, randomBoxWorld(rng, wi))
	}
	for _, w := range worlds {
		if w.regions == nil {
			env := w.ds.Bounds()
			half := geo.NewRect(env.MinX, env.MinY, env.Center().X, env.MaxY)
			w.regions = []*geo.Rect{nil, &half}
		}
		checkBoxWorld(t, w)
	}

	t.Run("golden world", func(t *testing.T) {
		ds, err := dataset.Generate(dataset.LA(0.03))
		if err != nil {
			t.Fatal(err)
		}
		qs, err := queries.Generate(ds, queries.Config{NumQueries: 12, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		newStore := func() *evaluate.TrajStore {
			ts, err := evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return ts
		}
		idx, err := gat.Build(newStore(), gatCfgDefault())
		if err != nil {
			t.Fatal(err)
		}
		engines := []query.Engine{gat.NewEngine(idx), baseline.BuildIL(newStore())}
		for _, e := range engines {
			for _, mode := range goldenModes {
				var st query.SearchStats
				for _, q := range qs {
					resp, err := e.Search(context.Background(), mode.req(q))
					if err != nil {
						t.Fatal(err)
					}
					st.Add(resp.Stats)
				}
				if st.BoxScreened > st.Scored {
					t.Errorf("%s %s: BoxScreened %d > Scored %d", e.Name(), mode.name, st.BoxScreened, st.Scored)
				}
				switch {
				case e.Name() == "GAT" && mode.name == "ATSQ" && st.BoxScreened == 0:
					t.Errorf("GAT ATSQ: nothing box-screened (Scored %d)", st.Scored)
				case e.Name() == "IL" && mode.name == "ATSQ" && st.BoxScreened != 0:
					t.Errorf("IL ATSQ: %d box-screened against a threshold that is the (infinite) bound", st.BoxScreened)
				}
			}
		}
	})
}

// randomBoxWorld is a small random store — clustered points, a few on
// shared coordinates, activities 1..5 — with queries in, around and far
// outside its bounds.
func randomBoxWorld(rng *rand.Rand, wi int) boxWorld {
	ds := &trajectory.Dataset{Name: "random"}
	span := []float64{1, 100, 1e-3, 5e4}[wi%4]
	for ti := 0; ti < 6+rng.Intn(10); ti++ {
		cx, cy := rng.Float64()*span, rng.Float64()*span
		var pts []trajectory.Point
		for pi := 0; pi < 1+rng.Intn(12); pi++ {
			var acts []trajectory.ActivityID
			for a := trajectory.ActivityID(1); a <= 5; a++ {
				if rng.Intn(3) == 0 {
					acts = append(acts, a)
				}
			}
			if len(acts) == 0 {
				acts = append(acts, trajectory.ActivityID(1+rng.Intn(5)))
			}
			x, y := cx+rng.NormFloat64()*span/10, cy+rng.NormFloat64()*span/10
			if rng.Intn(5) == 0 {
				x = cx // shared coordinates: several points on one lattice edge
			}
			pts = append(pts, pointAt(x, y, acts...))
		}
		ds.Trajs = append(ds.Trajs, trajectory.Trajectory{ID: trajectory.TrajID(ti), Pts: pts})
	}
	var qs []query.Query
	for qi := 0; qi < 6; qi++ {
		var qp []query.Point
		for i := 0; i < 1+rng.Intn(3); i++ {
			scale := span * []float64{1, 1.5, 1e3}[rng.Intn(3)]
			x, y := (rng.Float64()-0.25)*scale, (rng.Float64()-0.25)*scale
			qp = append(qp, qpAt(x, y, trajectory.ActivityID(1+rng.Intn(5))))
			if rng.Intn(3) == 0 {
				qp[i].Acts = trajectory.NewActivitySet(qp[i].Acts[0], trajectory.ActivityID(1+rng.Intn(5)))
			}
		}
		qs = append(qs, query.New(qp...))
	}
	return boxWorld{name: "random", ds: ds, qs: qs}
}
