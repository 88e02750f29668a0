package harness

import (
	"fmt"
	"io"

	"activitytraj/internal/dataset"
	"activitytraj/internal/gat"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// Options configures a run of the experiment suite.
type Options struct {
	// Scale shrinks the LA/NY presets (1.0 = the full Table IV
	// cardinalities). Experiments default to 0.2 — small enough to keep
	// the whole suite in the minutes range, large enough that workloads
	// have well over k matches (below ~0.1 the spatial methods degrade to
	// exhaustive scans because the k-th match distance explodes).
	Scale float64
	// Queries is the workload size per configuration (the paper uses 50).
	Queries int
	// K is the default result count (Table V: 9).
	K int
	// Datasets selects "LA", "NY" or both.
	Datasets []string
	// Seed offsets workload generation.
	Seed int64
}

// WithDefaults fills unset options with the suite defaults.
func (o Options) WithDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.2
	}
	if o.Queries <= 0 {
		o.Queries = 15
	}
	if o.K <= 0 {
		o.K = queries.DefaultK
	}
	if len(o.Datasets) == 0 {
		o.Datasets = []string{"LA", "NY"}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Suite caches datasets and engine setups across experiments.
type Suite struct {
	opts   Options
	setups map[string]*Setup
	data   map[string]*trajectory.Dataset
}

// NewSuite returns an empty suite.
func NewSuite(opts Options) *Suite {
	return &Suite{
		opts:   opts.WithDefaults(),
		setups: make(map[string]*Setup),
		data:   make(map[string]*trajectory.Dataset),
	}
}

// Dataset returns (building and caching) the named preset dataset.
func (s *Suite) Dataset(name string) (*trajectory.Dataset, error) {
	if ds, ok := s.data[name]; ok {
		return ds, nil
	}
	var cfg dataset.Config
	switch name {
	case "LA":
		cfg = dataset.LA(s.opts.Scale)
	case "NY":
		cfg = dataset.NY(s.opts.Scale)
	default:
		return nil, fmt.Errorf("harness: unknown dataset %q", name)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	s.data[name] = ds
	return ds, nil
}

// Setup returns (building and caching) the four-engine setup for a dataset.
func (s *Suite) Setup(name string) (*Setup, error) {
	if st, ok := s.setups[name]; ok {
		return st, nil
	}
	ds, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	st, err := BuildSetup(ds, gat.Config{})
	if err != nil {
		return nil, err
	}
	s.setups[name] = st
	return st, nil
}

func (s *Suite) workload(ds *trajectory.Dataset, cfg queries.Config) ([]query.Query, error) {
	cfg.NumQueries = s.opts.Queries
	if cfg.Seed == 0 {
		cfg.Seed = s.opts.Seed
	}
	return queries.Generate(ds, cfg)
}

// sweep describes one of the paper's parameter sweeps (Figures 3–6): one
// query or result-count parameter varied over values, everything else at the
// Table V defaults.
type sweep struct {
	title  string // table title prefix
	param  string // column header of the varied parameter
	values []float64
	unit   string // suffix of a rendered value
	// workload returns the workload configuration and result count for one
	// value of the parameter.
	workload func(o Options, v float64) (queries.Config, int)
}

var (
	sweepK = sweep{"Fig.3 effect of k", "k", []float64{5, 10, 15, 20, 25}, "",
		func(o Options, v float64) (queries.Config, int) { return queries.Config{}, int(v) }}
	sweepQ = sweep{"Fig.4 effect of |Q|", "|Q|", []float64{2, 3, 4, 5, 6}, "",
		func(o Options, v float64) (queries.Config, int) { return queries.Config{NumPoints: int(v)}, o.K }}
	sweepPhi = sweep{"Fig.5 effect of |q.Φ|", "|q.Φ|", []float64{1, 2, 3, 4, 5}, "",
		func(o Options, v float64) (queries.Config, int) { return queries.Config{ActsPerPoint: int(v)}, o.K }}
	// Diameters are capped to the dataset region at small scales.
	sweepDiameter = sweep{"Fig.6 effect of δ(Q)", "diam", []float64{5, 10, 20, 30, 50}, "km",
		func(o Options, v float64) (queries.Config, int) { return queries.Config{DiameterKm: v}, o.K }}
)

// run executes the sweep for every dataset and both query types, writing a
// latency table and a work table (candidates / page reads) for each.
func (sw sweep) run(s *Suite, w io.Writer) error {
	for _, dsName := range s.opts.Datasets {
		st, err := s.Setup(dsName)
		if err != nil {
			return err
		}
		for _, ordered := range []bool{false, true} {
			qt := "ATSQ"
			if ordered {
				qt = "OATSQ"
			}
			lat := NewTable(
				fmt.Sprintf("%s — %s on %s (avg ms/query, %d queries)", sw.title, qt, dsName, s.opts.Queries),
				append([]string{sw.param}, MethodNames...)...)
			work := NewTable(
				fmt.Sprintf("%s — %s on %s (avg candidates | pages read)", sw.title, qt, dsName),
				append([]string{sw.param}, MethodNames...)...)
			for _, v := range sw.values {
				cfg, k := sw.workload(s.opts, v)
				qs, err := s.workload(st.DS, cfg)
				if err != nil {
					return err
				}
				label := fmt.Sprintf("%.0f%s", v, sw.unit)
				latRow := []string{label}
				workRow := []string{label}
				for _, e := range st.Engines {
					res, err := RunWorkload(st.TS, e, qs, k, ordered)
					if err != nil {
						return err
					}
					latRow = append(latRow, ms(res.AvgMs()))
					workRow = append(workRow, fmt.Sprintf("%s | %s", cnt(res.AvgCandidates()), cnt(res.AvgPageReads())))
				}
				lat.AddRow(latRow...)
				work.AddRow(workRow...)
			}
			lat.Write(w)
			work.Write(w)
		}
	}
	return nil
}

// Scalability reproduces Figure 7: prefixes of the NY dataset at 20%, 40%,
// 60%, 80% and 100% of its trajectories (the paper's 10K..50K).
func (s *Suite) Scalability(w io.Writer) error {
	ny, err := s.Dataset("NY")
	if err != nil {
		return err
	}
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for _, ordered := range []bool{false, true} {
		qt := "ATSQ"
		if ordered {
			qt = "OATSQ"
		}
		lat := NewTable(
			fmt.Sprintf("Fig.7 effect of |D| — %s on NY samples (avg ms/query)", qt),
			append([]string{"|D|"}, MethodNames...)...)
		for _, f := range fracs {
			n := int(float64(len(ny.Trajs)) * f)
			sub := ny.Sample(n)
			st, err := BuildSetup(sub, gat.Config{})
			if err != nil {
				return err
			}
			qs, err := s.workload(sub, queries.Config{Seed: s.opts.Seed + 31})
			if err != nil {
				return err
			}
			row := []string{fmt.Sprint(n)}
			for _, e := range st.Engines {
				res, err := RunWorkload(st.TS, e, qs, s.opts.K, ordered)
				if err != nil {
					return err
				}
				row = append(row, ms(res.AvgMs()))
			}
			lat.AddRow(row...)
		}
		lat.Write(w)
	}
	return nil
}

// Granularity reproduces Figure 8: GAT grid depth d ∈ {5,6,7,8}
// (32..256 partitions per axis), reporting ATSQ/OATSQ latency and the
// index memory cost. The paper's trade-off — a finer grid means more cells
// to pop, a coarser one more trajectories per cell — is the pops/query and
// cand/query columns (ATSQ); the bucketed descent flattens the first, since
// a sparse subtree costs one pop at any depth.
func (s *Suite) Granularity(w io.Writer) error {
	for _, dsName := range s.opts.Datasets {
		ds, err := s.Dataset(dsName)
		if err != nil {
			return err
		}
		ts, err := s.Setup(dsName)
		if err != nil {
			return err
		}
		qs, err := s.workload(ds, queries.Config{Seed: s.opts.Seed + 97})
		if err != nil {
			return err
		}
		tab := NewTable(
			fmt.Sprintf("Fig.8 partition granularity — GAT on %s", dsName),
			"#partition", "ATSQ ms", "OATSQ ms", "pops/query", "cand/query", "mem MB", "HICL MB", "ITL MB", "dirs MB")
		for _, d := range []int{5, 6, 7, 8} {
			idx, err := gat.Build(ts.TS, gat.Config{Depth: d, MemLevels: 6})
			if err != nil {
				return err
			}
			e := gat.NewEngine(idx)
			a, err := RunWorkload(ts.TS, e, qs, s.opts.K, false)
			if err != nil {
				return err
			}
			o, err := RunWorkload(ts.TS, e, qs, s.opts.K, true)
			if err != nil {
				return err
			}
			bd := idx.Breakdown()
			tab.AddRow(fmt.Sprint(1<<d), ms(a.AvgMs()), ms(o.AvgMs()),
				cnt(float64(a.Stats.PQPops)/float64(a.Queries)), cnt(a.AvgCandidates()),
				mb(bd.Total), mb(bd.HICL), mb(bd.ITL), mb(bd.Directories))
		}
		tab.Write(w)
	}
	return nil
}

// DatasetStats reproduces Table IV for the generated datasets, alongside
// the paper's published cardinalities scaled by Options.Scale.
func (s *Suite) DatasetStats(w io.Writer) error {
	tab := NewTable(
		fmt.Sprintf("Table IV dataset statistics (scale %.3g; paper targets scaled alongside)", s.opts.Scale),
		"dataset", "#trajectory", "target", "#points", "#activity", "target", "#distinct", "target")
	targets := map[string][4]int{
		"LA": {dataset.LATrajectories, dataset.LAVenues, dataset.LAActivities, dataset.LADistinctActs},
		"NY": {dataset.NYTrajectories, dataset.NYVenues, dataset.NYActivities, dataset.NYDistinctActs},
	}
	for _, dsName := range s.opts.Datasets {
		ds, err := s.Dataset(dsName)
		if err != nil {
			return err
		}
		st := ds.Stats()
		tg := targets[dsName]
		scale := s.opts.Scale
		tab.AddRow(dsName,
			fmt.Sprint(st.Trajectories), fmt.Sprint(int(float64(tg[0])*scale)),
			fmt.Sprint(st.Points),
			fmt.Sprint(st.ActivityTokens), fmt.Sprint(int(float64(tg[2])*scale)),
			fmt.Sprint(st.DistinctActs), fmt.Sprint(int(float64(tg[3])*scale)),
		)
	}
	tab.Write(w)
	return nil
}

// Ablations measures the tight lower bound of Algorithm 2 against the
// naive queue-head bound (A1), reporting candidates, directory rejects,
// page reads and latency.
func (s *Suite) Ablations(w io.Writer) error {
	for _, dsName := range s.opts.Datasets {
		ds, err := s.Dataset(dsName)
		if err != nil {
			return err
		}
		st, err := s.Setup(dsName)
		if err != nil {
			return err
		}
		qs, err := s.workload(ds, queries.Config{Seed: s.opts.Seed + 13})
		if err != nil {
			return err
		}
		variants := []struct {
			name string
			cfg  gat.Config
		}{
			{"GAT (full)", gat.Config{}},
			{"loose LB (A1)", gat.Config{LooseLowerBound: true}},
		}
		tab := NewTable(
			fmt.Sprintf("Ablations — GAT variants on %s (ATSQ, avg per query)", dsName),
			"variant", "ms", "candidates", "hdr-rej", "pages", "KB-decoded")
		for _, v := range variants {
			idx, err := gat.Build(st.TS, v.cfg)
			if err != nil {
				return err
			}
			e := gat.NewEngine(idx)
			res, err := RunWorkload(st.TS, e, qs, s.opts.K, false)
			if err != nil {
				return err
			}
			tab.AddRow(v.name, ms(res.AvgMs()), cnt(res.AvgCandidates()),
				cnt(float64(res.Stats.HeaderOnlyRejects)/float64(res.Queries)),
				cnt(res.AvgPageReads()),
				ms(res.AvgKBDecoded()))
		}
		tab.Write(w)
	}
	return nil
}

// experiments is the one list of what the suite can run, in paper order:
// Run, All and ExperimentNames (the atsqbench flag help) all read it.
var experiments = []struct {
	name string
	fig  string // what the experiment reproduces, "" for the extensions
	run  func(*Suite, io.Writer) error
	// standalone experiments are not part of "all": cluster boots live
	// HTTP listeners.
	standalone bool
}{
	{"stats", "Table IV", (*Suite).DatasetStats, false},
	{"k", "Fig.3", sweepK.run, false},
	{"q", "Fig.4", sweepQ.run, false},
	{"phi", "Fig.5", sweepPhi.run, false},
	{"diameter", "Fig.6", sweepDiameter.run, false},
	{"scale", "Fig.7", (*Suite).Scalability, false},
	{"granularity", "Fig.8", (*Suite).Granularity, false},
	{"ablations", "", (*Suite).Ablations, false},
	{"cluster", "", (*Suite).Cluster, true},
}

// ExperimentNames lists what Run accepts, "all" first, each paper
// experiment followed by the figure or table it reproduces.
func ExperimentNames() string {
	names := "all"
	for _, x := range experiments {
		names += "|" + x.name
		if x.fig != "" {
			names += " (" + x.fig + ")"
		}
	}
	return names
}

// All runs every experiment in paper order.
func (s *Suite) All(w io.Writer) error {
	for _, x := range experiments {
		if x.standalone {
			continue
		}
		fmt.Fprintf(w, "==== experiment: %s ====\n\n", x.name)
		if err := x.run(s, w); err != nil {
			return fmt.Errorf("experiment %s: %w", x.name, err)
		}
	}
	return nil
}

// Run dispatches one named experiment ("all" runs the suite).
func (s *Suite) Run(name string, w io.Writer) error {
	if name == "all" {
		return s.All(w)
	}
	for _, x := range experiments {
		if x.name == name {
			return x.run(s, w)
		}
	}
	return fmt.Errorf("harness: unknown experiment %q (want %s)", name, ExperimentNames())
}
