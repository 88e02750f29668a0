package harness

import (
	"fmt"
	"io"

	"activitytraj/internal/queries"
	"activitytraj/internal/query"
)

// Throughput measures concurrent query execution: each engine runs the
// same workload with 1, 2, 4 and 8 worker goroutines (engine clones over
// the shared, immutable indexes) and reports queries per second. This is
// an extension beyond the paper — production trajectory services field
// many queries at once — enabled by the read-only nature of all four
// index structures.
func (s *Suite) Throughput(w io.Writer) error {
	for _, dsName := range s.opts.Datasets {
		st, err := s.Setup(dsName)
		if err != nil {
			return err
		}
		ds, err := s.Dataset(dsName)
		if err != nil {
			return err
		}
		qs, err := s.workload(ds, queries.Config{Seed: s.opts.Seed + 71})
		if err != nil {
			return err
		}
		// Repeat the workload so each measurement has enough queries to
		// keep all workers busy.
		reps := qs
		for len(reps) < 64 {
			reps = append(reps, qs...)
		}
		// WithDefaults guarantees a non-empty sweep.
		sweep := s.opts.Workers
		tab := NewTable(
			fmt.Sprintf("Throughput — ATSQ on %s (queries/sec, %d queries)", dsName, len(reps)),
			"workers", "IL", "RT", "IRT", "GAT")
		for _, workers := range sweep {
			row := []string{fmt.Sprint(workers)}
			for _, e := range st.Engines {
				ce, ok := e.(query.CloneableEngine)
				if !ok {
					row = append(row, "n/a")
					continue
				}
				res, err := RunWorkloadParallel(st.TS, ce, reps, s.opts.K, false, workers)
				if err != nil {
					return err
				}
				qps := float64(res.Queries) / res.TotalTime.Seconds()
				row = append(row, fmt.Sprintf("%.0f", qps))
			}
			tab.AddRow(row...)
		}
		tab.Write(w)
	}
	return nil
}
