// Indexreport builds the GAT index at several partition granularities and
// prints the per-component memory breakdown (ITL / directories) — the
// companion of the paper's Figure 8 memory-cost curve. The index has no
// HICL of its own to report: every HICL probe is a bisection into the ITL.
package main

import (
	"fmt"
	"log"

	"activitytraj"
)

func main() {
	ds, err := activitytraj.GenerateDataset(activitytraj.PresetNY(0.05))
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	st := ds.Stats()
	fmt.Printf("dataset %s: %d trajectories, %d points, %d activity tokens, %d distinct\n\n",
		ds.Name, st.Trajectories, st.Points, st.ActivityTokens, st.DistinctActs)

	store, err := activitytraj.NewStore(ds)
	if err != nil {
		log.Fatalf("store: %v", err)
	}
	fmt.Printf("shared trajectory store: %.1f MiB on disk (coords + APLs), %.2f MiB in memory (directories)\n\n",
		mib(store.DiskBytes()), mib(store.MemBytes()))

	fmt.Printf("%-11s %-9s %10s %10s %10s\n",
		"#partition", "depth", "ITL MiB", "dir MiB", "total MiB")
	for _, depth := range []int{5, 6, 7, 8} {
		idx, err := activitytraj.BuildGATIndex(store, activitytraj.GATConfig{Depth: depth})
		if err != nil {
			log.Fatalf("build d=%d: %v", depth, err)
		}
		bd := idx.Breakdown()
		fmt.Printf("%-11d %-9d %10.2f %10.2f %10.2f\n",
			1<<depth, depth, mib(bd.ITL), mib(bd.Directories), mib(bd.Total))
	}

	fmt.Println("\nfiner grids buy tighter lower bounds (fewer candidates per query)")
	fmt.Println("at the price of more cells in the ITL — the Figure 8 trade-off.")
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
