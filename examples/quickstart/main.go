// Quickstart reproduces the paper's running example (Figure 1): three query
// locations with desired activities {a,b}, {c,d}, {e} and two candidate
// trajectories. Tr1 is geometrically closer to the query, but its nearby
// points do not cover the requested activities; Tr2 covers every request at
// moderate distance. The activity-aware minimum match distance therefore
// ranks Tr2 first — the paper's motivating observation — and the
// order-sensitive variant agrees here because Tr2's matches already follow
// the query order.
package main

import (
	"context"
	"fmt"
	"log"

	"activitytraj"
)

func main() {
	vb := vocab()
	ds := buildDataset(vb)

	store, err := activitytraj.NewStore(ds)
	if err != nil {
		log.Fatalf("store: %v", err)
	}
	engine, err := activitytraj.NewGAT(store, activitytraj.GATConfig{Depth: 5})
	if err != nil {
		log.Fatalf("engine: %v", err)
	}

	q := activitytraj.Query{Pts: []activitytraj.QueryPoint{
		{Loc: activitytraj.Point{X: 1, Y: 4}, Acts: ds.Vocab.SetFromNames("art", "brunch")},
		{Loc: activitytraj.Point{X: 5, Y: 4}, Acts: ds.Vocab.SetFromNames("coffee", "dining")},
		{Loc: activitytraj.Point{X: 9, Y: 4}, Acts: ds.Vocab.SetFromNames("explore")},
	}}

	fmt.Println("Query: three stops with desired activities")
	for i, p := range q.Pts {
		fmt.Printf("  q%d at (%.0f,%.0f): %s\n", i+1, p.Loc.X, p.Loc.Y, names(ds.Vocab, p.Acts))
	}

	// Search(ctx, Request) is the query entry point: the context carries
	// deadlines/cancellation, the request carries the query, K, the
	// ATSQ/OATSQ mode and per-request options. WithMatches additionally
	// reports WHICH trajectory points satisfied each query stop.
	ctx := context.Background()
	resp, err := engine.Search(ctx, activitytraj.Request{Query: q, K: 3, WithMatches: true})
	if err != nil {
		log.Fatalf("ATSQ: %v", err)
	}
	fmt.Println("\nATSQ (order-insensitive) ranking:")
	printResults(ds, resp)

	orderedResp, err := engine.Search(ctx, activitytraj.Request{Query: q, K: 3, Ordered: true, WithMatches: true})
	if err != nil {
		log.Fatalf("OATSQ: %v", err)
	}
	fmt.Println("\nOATSQ (order-sensitive) ranking:")
	printResults(ds, orderedResp)

	fmt.Println("\nTr1 hugs the query locations but lacks the requested activities")
	fmt.Println("nearby, so the activity-aware search correctly prefers Tr2.")
}

func vocab() *activitytraj.Vocabulary {
	// Names stand in for the paper's abstract activities a..f; synthetic
	// descending counts keep the IDs in this order.
	return activitytraj.NewVocabulary(map[string]int64{
		"art": 100, "brunch": 90, "coffee": 80,
		"dining": 70, "explore": 60, "fitness": 50,
	})
}

func buildDataset(v *activitytraj.Vocabulary) *activitytraj.Dataset {
	pt := func(x, y float64, acts ...string) activitytraj.TrajectoryPoint {
		return activitytraj.TrajectoryPoint{
			Loc:  activitytraj.Point{X: x, Y: y},
			Acts: v.SetFromNames(acts...),
		}
	}
	// Tr1: very close to the query line y=4 but activity-mismatched near
	// q1/q2 (mirrors Figure 1's Tr1: {d},{a,c},{b},{c},{d,e}).
	tr1 := activitytraj.Trajectory{ID: 0, Pts: []activitytraj.TrajectoryPoint{
		pt(1.0, 3.8, "dining"),
		pt(3.0, 3.9, "art", "coffee"),
		pt(5.0, 3.8, "brunch"),
		pt(7.0, 3.9, "coffee"),
		pt(9.0, 3.9, "dining", "explore"),
	}}
	// Tr2: a bit further out but covering each stop's activities nearby
	// (Figure 1's Tr2: {a},{b,c},{c,d},{e},{f}).
	tr2 := activitytraj.Trajectory{ID: 1, Pts: []activitytraj.TrajectoryPoint{
		pt(0.8, 5.0, "art"),
		pt(1.6, 5.2, "brunch", "coffee"),
		pt(5.2, 5.0, "coffee", "dining"),
		pt(8.8, 5.1, "explore"),
		pt(10.0, 5.2, "fitness"),
	}}
	// Tr3 from Figure 2: present but never a match (no "art"/"dining").
	tr3 := activitytraj.Trajectory{ID: 2, Pts: []activitytraj.TrajectoryPoint{
		pt(2.0, 1.0, "coffee", "explore"),
		pt(4.0, 1.2, "brunch"),
		pt(6.0, 1.1, "brunch", "coffee"),
		pt(8.0, 1.0, "explore"),
		pt(9.5, 1.2, "fitness"),
	}}
	return &activitytraj.Dataset{
		Name:  "figure1",
		Vocab: v,
		Trajs: []activitytraj.Trajectory{tr1, tr2, tr3},
	}
}

func printResults(ds *activitytraj.Dataset, resp activitytraj.Response) {
	if len(resp.Results) == 0 {
		fmt.Println("  (no matching trajectory)")
		return
	}
	for rank, r := range resp.Results {
		fmt.Printf("  %d. Tr%d  distance %.2f km\n", rank+1, r.ID+1, r.Dist)
		// Response.Matches[rank][qi] lists the trajectory point indexes
		// that cover query point qi's activities.
		if rank < len(resp.Matches) {
			for qi, cover := range resp.Matches[rank] {
				for _, pi := range cover {
					p := ds.Trajs[r.ID].Pts[pi]
					fmt.Printf("       q%d <- point %d at (%.1f,%.1f) %s\n",
						qi+1, pi+1, p.Loc.X, p.Loc.Y, names(ds.Vocab, p.Acts))
				}
			}
		}
	}
}

func names(v *activitytraj.Vocabulary, acts activitytraj.ActivitySet) string {
	out := ""
	for i, a := range acts {
		if i > 0 {
			out += ", "
		}
		out += v.Name(a)
	}
	return "{" + out + "}"
}
