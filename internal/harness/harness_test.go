package harness

import (
	"bytes"
	"strings"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/gat"
	"activitytraj/internal/queries"
)

func tinySuite() *Suite {
	return NewSuite(Options{Scale: 0.008, Queries: 3, K: 3, Datasets: []string{"NY"}, Seed: 2})
}

func TestSuiteDatasetCaching(t *testing.T) {
	s := tinySuite()
	a, err := s.Dataset("NY")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Dataset("NY")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset must be cached")
	}
	if _, err := s.Dataset("XX"); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestRunWorkload(t *testing.T) {
	s := tinySuite()
	st, err := s.Setup("NY")
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := s.Dataset("NY")
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 3, NumPoints: 2, ActsPerPoint: 2, DiameterKm: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st.Engines {
		res, err := RunWorkload(st.TS, e, qs, 3, false)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Queries != 3 || res.Method != e.Name() {
			t.Fatalf("result = %+v", res)
		}
		if res.AvgMs() < 0 || res.AvgCandidates() < 0 {
			t.Fatalf("negative averages: %+v", res)
		}
	}
	if st.Engine("GAT") == nil || st.Engine("nope") != nil {
		t.Fatal("Engine lookup broken")
	}
}

func TestDatasetStatsExperiment(t *testing.T) {
	s := tinySuite()
	var buf bytes.Buffer
	if err := s.DatasetStats(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table IV") || !strings.Contains(out, "NY") {
		t.Fatalf("output missing expected content:\n%s", out)
	}
}

func TestGranularityExperiment(t *testing.T) {
	s := tinySuite()
	var buf bytes.Buffer
	if err := s.Granularity(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"32", "64", "128", "256", "mem MB"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("granularity output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunDispatch(t *testing.T) {
	s := tinySuite()
	var buf bytes.Buffer
	if err := s.Run("stats", &buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("nonsense", &buf); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// TestAllExperimentsRun pins what the suite is: Run("all") executes every
// entry of experiments that is not standalone, and the workload drivers the
// repository benchmark replaced are gone by name.
func TestAllExperimentsRun(t *testing.T) {
	s := NewSuite(Options{Scale: 0.008, Queries: 2, Datasets: []string{"NY"}})
	var buf bytes.Buffer
	if err := s.Run("all", &buf); err != nil {
		t.Fatal(err)
	}
	for _, x := range experiments {
		header := "==== experiment: " + x.name + " ===="
		want := 1
		if x.standalone {
			want = 0
		}
		if got := strings.Count(buf.String(), header); got != want {
			t.Fatalf("%d headers %q in the output of all, want %d", got, header, want)
		}
	}
	for _, name := range []string{"throughput", "mixed", "sharded", "watch"} {
		err := s.Run(name, &buf)
		if err == nil || !strings.Contains(err.Error(), ExperimentNames()) {
			t.Fatalf("Run(%q) = %v, want a rejection listing %s", name, err, ExperimentNames())
		}
		if strings.Contains(ExperimentNames(), name) {
			t.Fatalf("ExperimentNames() still lists %q: %s", name, ExperimentNames())
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "a", "bb")
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "333") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestBuildSetupAblationConfigs(t *testing.T) {
	cfg := dataset.NY(0.006)
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildSetup(ds, gat.Config{Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Engines) != 4 {
		t.Fatalf("engines = %d", len(st.Engines))
	}
	names := map[string]bool{}
	for _, e := range st.Engines {
		names[e.Name()] = true
	}
	for _, want := range MethodNames {
		if !names[want] {
			t.Fatalf("missing engine %s", want)
		}
	}
}
