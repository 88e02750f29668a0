package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 = %g, %g, want 0.75, 2.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %g, %g, want it twice", q1, q3)
	}
}

const testSpec = `{
  "workloads": [{"name": "w", "why": "test"}],
  "end_to_end": [
    {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "absent", "unit": "s", "better": "lower", "bound": 0.1}
  ]
}`

// recordSet writes one -record file with a run per (lat, qps) pair.
func recordSet(t *testing.T, dir, name string, lat, qps []float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	for i := range lat {
		rec := record{Workload: "w", Seed: int64(i), result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
			"lat_ms": {Value: lat[i], Unit: "ms"},
			"qps":    {Value: qps[i], Unit: "1/s"},
		}}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	// A traced run's metrics must not be mixed in.
	if err := appendRecord(path, record{Workload: "w", Trace: true, result: result{Metrics: map[string]metric{"lat_ms": {Value: 1e9}}}}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	a := recordSet(t, dir, "a.jsonl", steady, steady)
	same := recordSet(t, dir, "same.jsonl", steady, steady)
	slower := recordSet(t, dir, "slower.jsonl", []float64{12, 12.1, 11.9, 12, 12}, []float64{8, 8.1, 7.9, 8, 8})
	wide := recordSet(t, dir, "wide.jsonl", []float64{8, 10, 12, 9, 11}, []float64{8, 10, 12, 9, 11})
	faster := recordSet(t, dir, "faster.jsonl", []float64{5, 7, 6, 5.5, 6.5}, []float64{15, 17, 16, 15.5, 16.5})

	verdicts := func(b string) (string, error) {
		var out bytes.Buffer
		err := compareFiles(a, b, spec, &out)
		return out.String(), err
	}
	out, err := verdicts(same)
	if err != nil || strings.Count(out, " ok") != 2 || !strings.Contains(out, "missing") {
		t.Errorf("same runs: err %v, want two ok rows and the absent metric missing:\n%s", err, out)
	}
	out, err = verdicts(slower)
	if err == nil || strings.Count(out, "regressed") != 2 {
		t.Errorf("a fifth worse on both metrics: err %v, want two regressed rows:\n%s", err, out)
	}
	out, err = verdicts(wide)
	if err != nil || strings.Count(out, "unresolved") != 2 {
		t.Errorf("spread wider than the bound: err %v, want two unresolved rows:\n%s", err, out)
	}
	out, err = verdicts(faster)
	if err != nil || strings.Count(out, " ok") != 2 {
		t.Errorf("wide but every run better: err %v, want two ok rows:\n%s", err, out)
	}
	if err := compareFiles(a, filepath.Join(dir, "nope.jsonl"), spec, &bytes.Buffer{}); err == nil {
		t.Error("a missing record file was not reported")
	}
}
