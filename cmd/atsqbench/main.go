// Command atsqbench regenerates the paper's evaluation: every figure
// (Fig. 3 effect of k, Fig. 4 effect of |Q|, Fig. 5 effect of |q.Φ|,
// Fig. 6 effect of δ(Q), Fig. 7 scalability, Fig. 8 partition granularity),
// the Table IV dataset statistics, and the design-choice ablations —
// printed as aligned text tables.
//
// Usage:
//
//	atsqbench -experiment all -scale 0.05 -queries 20
//	atsqbench -experiment k -datasets LA -scale 0.1 -o fig3.txt
//
// Absolute times depend on hardware and the synthetic data scale; the
// shapes (method ranking, trends along each sweep) are the reproduction
// target.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"activitytraj/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atsqbench: ")

	experiment := flag.String("experiment", "all", harness.ExperimentNames())
	scale := flag.Float64("scale", 0.2, "dataset scale relative to Table IV")
	queriesN := flag.Int("queries", 15, "queries per configuration")
	k := flag.Int("k", 9, "default result count (Table V)")
	datasets := flag.String("datasets", "LA,NY", "comma-separated: LA,NY")
	seed := flag.Int64("seed", 1, "workload seed")
	out := flag.String("o", "", "also write output to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	flag.Parse()

	// stopProfiles flushes both profiles exactly once. log.Fatal skips
	// defers (os.Exit), so every fatal path below calls it explicitly —
	// otherwise an error after StartCPUProfile would leave the CPU profile
	// truncated. Heap-profile problems only warn: the benchmark output the
	// run produced is still valid.
	var cpuFile *os.File
	profilesDone := false
	stopProfiles := func() {
		if profilesDone {
			return
		}
		profilesDone = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("create %s: %v", *memProfile, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("write heap profile: %v", err)
			}
		}
	}
	defer stopProfiles()
	fatalf := func(format string, args ...any) {
		stopProfiles()
		log.Fatalf(format, args...)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("create %s: %v", *cpuProfile, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			log.Fatalf("start CPU profile: %v", err)
		}
		cpuFile = f
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create %s: %v", *out, err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var names []string
	for _, d := range strings.Split(*datasets, ",") {
		if d = strings.TrimSpace(strings.ToUpper(d)); d != "" {
			names = append(names, d)
		}
	}

	suite := harness.NewSuite(harness.Options{
		Scale:    *scale,
		Queries:  *queriesN,
		K:        *k,
		Datasets: names,
		Seed:     *seed,
	})

	fmt.Fprintf(w, "activity trajectory search benchmark — %s\n", time.Now().Format(time.RFC3339))
	fmt.Fprintf(w, "scale=%.3g queries=%d k=%d datasets=%s\n", *scale, *queriesN, *k, strings.Join(names, ","))
	fmt.Fprintf(w, "defaults (Table V): |Q|=4, |q.Φ|=3, δ(Q)=10km\n\n")

	start := time.Now()
	if err := suite.Run(*experiment, w); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(w, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
}
