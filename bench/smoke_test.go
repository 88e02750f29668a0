package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// spec is BENCHMARK.json as the driver reads it.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, measured and traced, on a small corpus
// with 2-second phases, and holds what each run emits against
// BENCHMARK.json: every declared metric and nothing else, with the declared
// unit, and no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark on a small corpus")
	}
	s := readSpec(t)
	if s.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the schedules are sized for %d", s.RunSeconds, defaultSeconds)
	}
	var declared []string
	for _, wl := range s.Workloads {
		declared = append(declared, wl.Name)
		if !nameRE.MatchString(wl.Name) || wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %q: bad name or why", wl.Name)
		}
	}
	if got := workloadNames(); !equalSets(got, declared) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", declared, got)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
	}

	out := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			res, err := runWorkload(runConfig{seed: 1, seconds: 2, trace: trace, scale: 0.02, outDir: out, log: &log}, wl)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed\n%s", wl.name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			var wantNames, gotNames []string
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if got, ok := res.Metrics[m.Name]; ok && got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, declared %q", wl.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			for name, m := range res.Metrics {
				gotNames = append(gotNames, name)
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.name, name)
				}
			}
			if !equalSets(gotNames, wantNames) {
				sort.Strings(gotNames)
				sort.Strings(wantNames)
				t.Errorf("%s trace=%v emits\n%v\ndeclared\n%v", wl.name, trace, gotNames, wantNames)
			}
			if trace {
				spans, err := os.ReadFile(filepath.Join(out, "spans-"+wl.name+"-seed1.jsonl"))
				if err != nil || !bytes.Contains(spans, []byte(`"name":"server.handle"`)) {
					t.Errorf("%s: span file: %v", wl.name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "data*")); len(left) > 0 {
		t.Errorf("durable data left behind: %v", left)
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-compare", "one.jsonl"},
		{"stray"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if err := mainErr(args, &stdout, &stderr); err == nil {
			t.Errorf("%q was accepted", args)
		}
		if stdout.Len() > 0 {
			t.Errorf("%q printed a result: %s", args, stdout.String())
		}
	}
}
