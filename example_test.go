package activitytraj_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"activitytraj"
)

// figure1Dataset builds the paper's running example: Tr1 hugs the query
// locations but lacks the requested activities nearby; Tr2 covers them.
func figure1Dataset() *activitytraj.Dataset {
	v := activitytraj.NewVocabulary(map[string]int64{
		"art": 100, "brunch": 90, "coffee": 80, "dining": 70, "explore": 60, "fitness": 50,
	})
	pt := func(x, y float64, acts ...string) activitytraj.TrajectoryPoint {
		return activitytraj.TrajectoryPoint{
			Loc:  activitytraj.Point{X: x, Y: y},
			Acts: v.SetFromNames(acts...),
		}
	}
	return &activitytraj.Dataset{
		Name:  "figure1",
		Vocab: v,
		Trajs: []activitytraj.Trajectory{
			{ID: 0, Pts: []activitytraj.TrajectoryPoint{
				pt(1.0, 3.8, "dining"), pt(3.0, 3.9, "art", "coffee"),
				pt(5.0, 3.8, "brunch"), pt(7.0, 3.9, "coffee"), pt(9.0, 3.9, "dining", "explore"),
			}},
			{ID: 1, Pts: []activitytraj.TrajectoryPoint{
				pt(0.8, 5.0, "art"), pt(1.6, 5.2, "brunch", "coffee"),
				pt(5.2, 5.0, "coffee", "dining"), pt(8.8, 5.1, "explore"), pt(10.0, 5.2, "fitness"),
			}},
		},
	}
}

// ExampleNewGAT demonstrates building the GAT engine and running an
// activity trajectory similarity query on the paper's Figure 1 scenario.
func ExampleNewGAT() {
	ds := figure1Dataset()
	store, err := activitytraj.NewStore(ds)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := activitytraj.NewGAT(store, activitytraj.GATConfig{Depth: 5})
	if err != nil {
		log.Fatal(err)
	}
	q := activitytraj.Query{Pts: []activitytraj.QueryPoint{
		{Loc: activitytraj.Point{X: 1, Y: 4}, Acts: ds.Vocab.SetFromNames("art", "brunch")},
		{Loc: activitytraj.Point{X: 5, Y: 4}, Acts: ds.Vocab.SetFromNames("coffee", "dining")},
		{Loc: activitytraj.Point{X: 9, Y: 4}, Acts: ds.Vocab.SetFromNames("explore")},
	}}
	resp, err := engine.Search(context.Background(), activitytraj.Request{Query: q, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	for rank, r := range resp.Results {
		fmt.Printf("%d. Tr%d %.2f km\n", rank+1, r.ID+1, r.Dist)
	}
	// Output:
	// 1. Tr2 4.50 km
	// 2. Tr1 12.11 km
}

// ExampleExtractActivities shows tip-text tokenization for raw check-ins.
func ExampleExtractActivities() {
	acts := activitytraj.ExtractActivities("Great coffee, and the brunch is amazing!")
	fmt.Println(strings.Join(acts, " "))
	// Output:
	// great coffee brunch amazing
}

// ExampleParseCheckinsCSV turns a raw check-in log into a searchable
// dataset.
func ExampleParseCheckinsCSV() {
	csv := `user,timestamp,lat,lon,venue,tip
alice,2012-06-01T09:00:00Z,40.700,-74.000,v1,"great coffee spot"
alice,2012-06-01T12:00:00Z,40.710,-73.990,v2,"lovely museum"
bob,2012-06-01T09:30:00Z,40.705,-74.002,v1,"coffee was amazing"
bob,2012-06-01T13:00:00Z,40.720,-73.980,v3,"shopping spree"
`
	recs, err := activitytraj.ParseCheckinsCSV(strings.NewReader(csv))
	if err != nil {
		log.Fatal(err)
	}
	ds, err := activitytraj.BuildDatasetFromCheckins(recs, activitytraj.CheckinOptions{Name: "demo"})
	if err != nil {
		log.Fatal(err)
	}
	st := ds.Stats()
	fmt.Printf("%d trajectories, %d check-ins, %d distinct activities\n",
		st.Trajectories, st.Points, st.DistinctActs)
	// Output:
	// 2 trajectories, 4 check-ins, 8 distinct activities
}
