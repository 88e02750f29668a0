package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords returns the measured (untraced) values of a -record file,
// keyed by workload then metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile of vals the way Python's
// statistics.quantiles(vals, n=4) does, which is how the driver takes a
// metric's spread.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, median(vals))
}

// compareFiles prints, per workload and end-to-end metric, both run sets'
// medians, the relative change from A to B, the bound, and a verdict:
// regressed when B's median is worse than A's by more than the bound,
// unresolved when either set's own spread is wider than the bound (unless
// every run of B reads better than every run of A), ok otherwise. It
// returns an error when any metric regressed.
func compareFiles(pathA, pathB, specPath string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median (n, spread)\tB median (n, spread)\tchange\tbound\tverdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t%.2f\tmissing\n", wl.Name, m.Name, m.Unit, m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			case (spread(va) > m.Bound || spread(vb) > m.Bound) && !allBetter(va, vb, m.Better == "higher"):
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g (%d, %.1f%%)\t%.4g (%d, %.1f%%)\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, ma, len(va), 100*spread(va), mb, len(vb), 100*spread(vb), 100*change, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed past their bound", regressed)
	}
	return nil
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, higher bool) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
