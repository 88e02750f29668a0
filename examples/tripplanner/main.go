// Tripplanner demonstrates the order-sensitive query (OATSQ) on a
// hand-modelled city: a visitor plans morning coffee downtown, an
// afternoon museum in the arts district, then dinner and live music by the
// waterfront — in that order. The search returns the check-in histories of
// people who did those things in the requested order near the requested
// places; their trajectories are printed as candidate itineraries.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"activitytraj"
)

// district is a neighbourhood with a themed venue mix.
type district struct {
	name   string
	center activitytraj.Point
	themes []string // activities its venues offer
}

var districts = []district{
	{"downtown", activitytraj.Point{X: 2, Y: 2}, []string{"coffee", "brunch", "shopping"}},
	{"arts-quarter", activitytraj.Point{X: 6, Y: 3}, []string{"museum", "gallery", "coffee"}},
	{"waterfront", activitytraj.Point{X: 10, Y: 6}, []string{"dinner", "livemusic", "bar"}},
	{"old-town", activitytraj.Point{X: 4, Y: 7}, []string{"dinner", "shopping", "gallery"}},
}

func main() {
	ds := buildCity(1234)
	store, err := activitytraj.NewStore(ds)
	if err != nil {
		log.Fatalf("store: %v", err)
	}
	engine, err := activitytraj.NewGAT(store, activitytraj.GATConfig{Depth: 6})
	if err != nil {
		log.Fatalf("engine: %v", err)
	}

	q := activitytraj.Query{Pts: []activitytraj.QueryPoint{
		{Loc: districts[0].center, Acts: ds.Vocab.SetFromNames("coffee")},
		{Loc: districts[1].center, Acts: ds.Vocab.SetFromNames("museum", "gallery")},
		{Loc: districts[2].center, Acts: ds.Vocab.SetFromNames("dinner", "livemusic")},
	}}
	fmt.Println("Planned itinerary (in order):")
	fmt.Println("  1. coffee near downtown")
	fmt.Println("  2. museum + gallery near the arts quarter")
	fmt.Println("  3. dinner + live music by the waterfront")

	// WithMatches reports which check-ins satisfied each planned stop, so
	// the itinerary below can mark them; the stats arrive in-band with the
	// response.
	resp, err := engine.Search(context.Background(), activitytraj.Request{
		Query: q, K: 5, Ordered: true, WithMatches: true,
	})
	if err != nil {
		log.Fatalf("OATSQ: %v", err)
	}
	results := resp.Results
	fmt.Printf("\nTop %d order-compliant trajectories (of %d candidates examined):\n",
		len(results), resp.Stats.Candidates)
	for rank, r := range results {
		fmt.Printf("\n#%d — trajectory %d, match distance %.2f km\n", rank+1, r.ID, r.Dist)
		printItinerary(ds, r.ID, resp.Matches[rank])
	}

	// Contrast with the order-insensitive ranking.
	atsq, err := engine.Search(context.Background(), activitytraj.Request{Query: q, K: 5})
	if err != nil {
		log.Fatalf("ATSQ: %v", err)
	}
	fmt.Println("\nFor contrast, ATSQ (order ignored) top-5 distances:")
	for rank, r := range atsq.Results {
		marker := ""
		if rank < len(results) && r.ID != results[rank].ID {
			marker = "   <- differs from OATSQ"
		}
		fmt.Printf("  %d. trajectory %-4d %.2f km%s\n", rank+1, r.ID, r.Dist, marker)
	}
}

// buildCity synthesizes ~600 visitor trajectories over the districts.
func buildCity(seed int64) *activitytraj.Dataset {
	rng := rand.New(rand.NewSource(seed))
	counts := map[string]int64{}
	type venue struct {
		loc  activitytraj.Point
		acts []string
	}
	var venues []venue
	for _, d := range districts {
		for i := 0; i < 60; i++ {
			loc := activitytraj.Point{
				X: d.center.X + rng.NormFloat64()*0.7,
				Y: d.center.Y + rng.NormFloat64()*0.7,
			}
			n := 1 + rng.Intn(2)
			acts := make([]string, 0, n)
			for len(acts) < n {
				a := d.themes[rng.Intn(len(d.themes))]
				if !contains(acts, a) {
					acts = append(acts, a)
				}
			}
			for _, a := range acts {
				counts[a]++
			}
			venues = append(venues, venue{loc: loc, acts: acts})
		}
	}
	vocab := activitytraj.NewVocabulary(counts)

	var trajs []activitytraj.Trajectory
	for ti := 0; ti < 600; ti++ {
		n := 3 + rng.Intn(6)
		pts := make([]activitytraj.TrajectoryPoint, 0, n)
		for p := 0; p < n; p++ {
			v := venues[rng.Intn(len(venues))]
			pts = append(pts, activitytraj.TrajectoryPoint{
				Loc:  v.loc,
				Acts: vocab.SetFromNames(v.acts...),
			})
		}
		trajs = append(trajs, activitytraj.Trajectory{ID: activitytraj.TrajID(ti), Pts: pts})
	}
	return &activitytraj.Dataset{Name: "tripcity", Vocab: vocab, Trajs: trajs}
}

// printItinerary lists a trajectory's stops, marking which planned query
// stop each check-in satisfied (from Response.Matches).
func printItinerary(ds *activitytraj.Dataset, id activitytraj.TrajID, matches [][]int32) {
	servedStop := map[int32][]int{}
	for qi, cover := range matches {
		for _, pi := range cover {
			servedStop[pi] = append(servedStop[pi], qi+1)
		}
	}
	tr := &ds.Trajs[id]
	for pi, p := range tr.Pts {
		names := make([]string, len(p.Acts))
		for i, a := range p.Acts {
			names[i] = ds.Vocab.Name(a)
		}
		mark := ""
		if stops := servedStop[int32(pi)]; len(stops) > 0 {
			parts := make([]string, len(stops))
			for i, s := range stops {
				parts[i] = fmt.Sprintf("plan stop %d", s)
			}
			mark = "   <- matches " + strings.Join(parts, ", ")
		}
		fmt.Printf("    stop %d (%.1f, %.1f): %s%s\n", pi+1, p.Loc.X, p.Loc.Y, strings.Join(names, ", "), mark)
	}
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
