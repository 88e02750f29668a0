// Command bench is the repository benchmark: it serves a 4-shard router
// with internal/server on a loopback listener inside this process and
// drives it over HTTP. See README.md for the workloads and metrics and
// BENCHMARK.json for the contract the output follows.
//
//	go run ./bench -workload search_fit -seed 1            measured run
//	go run ./bench -workload search_fit -seed 1 -trace 1   per-layer run
//	go run ./bench -compare A.jsonl B.jsonl                two run sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// record is one line of a -record file: a run's result with what produced
// it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed of the traffic: arrival order, Zipf draws, ingest order, delete picks")
		seconds = fs.Float64("seconds", defaultSeconds, "length of the open-loop phase")
		trace   = fs.Int("trace", 0, "1 = the per-layer run: traced requests and layer probes instead of the measured phases")
		out     = fs.String("out", "", "directory for the span file (default: a scratch directory under .bench_build, removed on exit)")
		rec     = fs.String("record", "", "append each result as a JSON line to this file, for -compare")
		compare = fs.Bool("compare", false, "compare two -record files given as arguments, using the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two -record files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var todo []workload
	if *names == "all" {
		todo = workloads
	} else if wl, ok := workloadByName(*names); ok {
		todo = []workload{wl}
	} else {
		return fmt.Errorf("unknown workload %q", *names)
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: corpusScale, outDir: *out, log: stderr}
	if cfg.outDir == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(".bench_build", "run-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.outDir = dir
	}
	correct := true
	for _, wl := range todo {
		res, err := runWorkload(cfg, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		if *rec != "" {
			if err := appendRecord(*rec, record{Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace, result: res}); err != nil {
				return err
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		correct = correct && res.Correct
	}
	if !correct {
		return fmt.Errorf("outputs were not correct")
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
