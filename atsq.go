package activitytraj

import (
	"io"

	"activitytraj/internal/baseline"
	"activitytraj/internal/checkin"
	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/geo"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// Core data model re-exports. The aliases make the internal packages'
// types part of the public surface without duplicating them.
type (
	// Point is a planar location in kilometres.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// ActivityID identifies an activity in a dataset's vocabulary.
	ActivityID = trajectory.ActivityID
	// ActivitySet is a sorted set of activity IDs.
	ActivitySet = trajectory.ActivitySet
	// Vocabulary maps activity names to frequency-ranked IDs.
	Vocabulary = trajectory.Vocabulary
	// TrajID identifies a trajectory within a dataset.
	TrajID = trajectory.TrajID
	// TrajectoryPoint is one activity-tagged point of a trajectory.
	TrajectoryPoint = trajectory.Point
	// Trajectory is a sequence of activity-tagged points.
	Trajectory = trajectory.Trajectory
	// Dataset is a trajectory database with its vocabulary.
	Dataset = trajectory.Dataset
	// DatasetStats summarizes a dataset (the paper's Table IV quantities).
	DatasetStats = trajectory.Stats

	// Query is a sequence of query locations with desired activities.
	Query = query.Query
	// QueryPoint is one query location.
	QueryPoint = query.Point
	// Request describes one search: the query, K, the ATSQ/OATSQ mode
	// (Ordered), and per-request options (InitialBound, Region,
	// WithMatches). Pass it to Engine.Search with a context for deadline
	// and cancellation control.
	Request = query.Request
	// Response is one search's complete answer: results, in-band
	// per-request SearchStats, requested match covers, and the Truncated
	// cancellation marker.
	Response = query.Response
	// Result is one top-k answer entry.
	Result = query.Result
	// SearchStats itemizes the work a search performed.
	SearchStats = query.SearchStats
	// Engine answers ATSQ and OATSQ queries through Search(ctx, Request).
	Engine = query.Engine
	// ParallelEngine fans request batches out over goroutines sharing one
	// engine so throughput scales with cores; see NewParallelEngine.
	ParallelEngine = query.ParallelEngine
	// ResultCache is an epoch-invalidated cache of complete search
	// responses; attach one to a ParallelEngine with SetResultCache, or
	// enable it server-side with server Options.ResultCacheEntries. See
	// NewResultCache.
	ResultCache = query.ResultCache
	// EpochSource is the monotone apply-then-bump mutation counter a
	// ResultCache invalidates on. DynamicIndex, DynamicEngine,
	// ShardedRouter and ShardedEngine implement it; StaticEpoch covers
	// immutable indexes.
	EpochSource = query.EpochSource
	// StaticEpoch is the EpochSource of an index that never mutates:
	// cached results stay valid forever.
	StaticEpoch = query.StaticEpoch

	// TrajStore is the disk-resident trajectory storage every engine
	// shares (coordinates, activity posting lists, activity directory).
	TrajStore = evaluate.TrajStore
	// StoreConfig tunes TrajStore construction.
	StoreConfig = evaluate.TrajStoreConfig
	// GATConfig tunes the GAT index; the zero value uses the paper's
	// defaults (256×256 leaf grid, λ = 32, m = 8 near cells). The HICL is
	// read off the ITL, so there is no memory budget to set.
	GATConfig = gat.Config
	// GATIndex is a built GAT index.
	GATIndex = gat.Index

	// GeneratorConfig parameterizes synthetic dataset generation.
	GeneratorConfig = dataset.Config
	// WorkloadConfig parameterizes query workload generation.
	WorkloadConfig = queries.Config

	// DynamicIndex is the LSM-style dynamic GAT index: an immutable base
	// generation plus an in-memory delta layer absorbing Insert/Delete,
	// searched together exactly and compacted in the background. See
	// NewDynamic.
	DynamicIndex = delta.Dynamic
	// DynamicConfig tunes a DynamicIndex (base GAT/store configuration and
	// the auto-compaction threshold).
	DynamicConfig = delta.Config
	// DynamicStats snapshots a DynamicIndex's shape (epoch, delta size,
	// tombstones, compactions).
	DynamicStats = delta.Stats
	// DynamicEngine serves queries over a DynamicIndex; it implements
	// Engine and, like every engine, is safe for concurrent use.
	DynamicEngine = delta.Engine

	// ShardedRouter partitions a corpus into K spatial shards (Z-order
	// ranges over leaf cells), each owning its own store, GAT index and
	// delta layer, and routes queries and mutations across them. See
	// NewSharded.
	ShardedRouter = shard.Router
	// ShardedConfig tunes a ShardedRouter (shard count, partition
	// granularity, per-shard dynamic-index options).
	ShardedConfig = shard.Config
	// ShardedStats snapshots a sharded index's shape.
	ShardedStats = shard.Stats
	// ShardStats describes one shard within ShardedStats.
	ShardStats = shard.ShardStats
	// ShardedEngine answers queries over a ShardedRouter with an exact
	// scatter-gather top-k (planning + cross-shard bound sharing); it
	// implements Engine.
	ShardedEngine = shard.Engine

	// Durability configures write-ahead durability for a dynamic or sharded
	// index: the data directory, the WAL fsync policy, and segment sizing.
	// Set it in DynamicConfig / ShardedConfig and open the index with
	// OpenDynamic / OpenSharded.
	Durability = delta.Durability
	// SyncMode selects how eagerly the WAL fsyncs (SyncAlways, SyncGroup,
	// SyncOff).
	SyncMode = wal.SyncMode
	// DynamicRecoveryInfo summarizes what OpenDynamic replayed.
	DynamicRecoveryInfo = delta.RecoveryInfo
	// ShardedRecoveryInfo summarizes what OpenSharded replayed across the
	// routing journal and every shard.
	ShardedRecoveryInfo = shard.RecoveryInfo
)

// WAL sync policies for Durability.Sync: SyncAlways fsyncs every mutation
// before acknowledging it (no acknowledged write is ever lost), SyncGroup
// coalesces concurrent commits into one fsync (group commit), and SyncOff
// leaves flushing to the OS (process crashes lose nothing that reached the
// page cache; machine crashes may lose a recent suffix).
const (
	SyncAlways = wal.SyncAlways
	SyncGroup  = wal.SyncGroup
	SyncOff    = wal.SyncOff
)

// ParseSyncMode parses a WAL sync policy name: "always", "group" (also
// "batch") or "off" (also "never"); the empty string is SyncAlways.
func ParseSyncMode(s string) (SyncMode, error) { return wal.ParseSyncMode(s) }

// NewActivitySet returns a normalized activity set.
func NewActivitySet(ids ...ActivityID) ActivitySet { return trajectory.NewActivitySet(ids...) }

// NewVocabulary builds a vocabulary from activity occurrence counts,
// assigning IDs in descending frequency order (ties broken by name), the
// order every generated dataset uses. Use it when assembling datasets from
// your own check-in data.
func NewVocabulary(counts map[string]int64) *Vocabulary {
	b := trajectory.NewVocabularyBuilder()
	for name, n := range counts {
		b.AddN(name, n)
	}
	return b.Build()
}

// NewStore lays ds out on the simulated disk and builds the in-memory
// directories. All engines for a dataset should share one store.
func NewStore(ds *Dataset) (*TrajStore, error) {
	return evaluate.BuildTrajStore(ds, evaluate.TrajStoreConfig{})
}

// NewStoreWithConfig is NewStore with explicit storage options (buffer
// pool size, cache capacities, optional file backing).
func NewStoreWithConfig(ds *Dataset, cfg StoreConfig) (*TrajStore, error) {
	return evaluate.BuildTrajStore(ds, cfg)
}

// BuildGATIndex constructs the GAT index over a store. Use NewGAT unless
// you need access to the index itself (memory breakdowns, grid).
func BuildGATIndex(ts *TrajStore, cfg GATConfig) (*GATIndex, error) {
	return gat.Build(ts, cfg)
}

// NewGAT builds the paper's GAT engine: hierarchical inverted cell lists,
// per-cell inverted trajectory lists and disk-resident posting lists,
// searched best-first with the tight Algorithm 2 bound.
func NewGAT(ts *TrajStore, cfg GATConfig) (Engine, error) {
	idx, err := gat.Build(ts, cfg)
	if err != nil {
		return nil, err
	}
	return gat.NewEngine(idx), nil
}

// NewEngineForIndex wraps an already-built GAT index.
func NewEngineForIndex(idx *GATIndex) Engine { return gat.NewEngine(idx) }

// NewDynamic builds a dynamic GAT index over ds for live ingestion: the
// dataset becomes the immutable base generation, and Insert/Delete apply
// online through an in-memory delta layer that searches merge exactly with
// the base. Past DynamicConfig.CompactThreshold delta mutations, a
// background compaction rebuilds base+delta into a fresh immutable
// generation and atomically swaps it in; in-flight searches finish on the
// old generation. Use (*DynamicIndex).NewEngine for a serving engine.
func NewDynamic(ds *Dataset, cfg DynamicConfig) (*DynamicIndex, error) {
	return delta.NewDynamic(ds, cfg)
}

// NewSharded spatially partitions ds into cfg.Shards shards and builds one
// dynamic GAT index per shard. Queries served through
// (*ShardedRouter).NewEngine return exactly the results a single
// unpartitioned index would — the scatter-gather merge shares its running
// global k-th distance with every in-flight shard search, so the paper's
// Algorithm-2 termination bound tightens across shard boundaries — while
// inserts, deletes, and compactions proceed shard-locally. Global
// trajectory IDs are assigned exactly as NewDynamic would for the same
// mutation sequence.
func NewSharded(ds *Dataset, cfg ShardedConfig) (*ShardedRouter, error) {
	return shard.NewRouter(ds, cfg)
}

// OpenDynamic is NewDynamic with durability: when cfg.Durability.Dir is
// set, every Insert/Delete is logged to a checksummed WAL before it is
// applied and acknowledged, compactions persist a snapshot and prune the
// log, and reopening the same directory (with the same bootstrap dataset)
// replays whatever a crash left behind — the recovered index is
// byte-identical, search for search, to one that never crashed, holding a
// consistent prefix of the acknowledged mutation stream. A torn tail from
// a mid-write crash is detected by checksum and truncated. With an empty
// Durability.Dir it is exactly NewDynamic. Close the index with
// (*DynamicIndex).Close so the WAL is sealed.
func OpenDynamic(bootstrap *Dataset, cfg DynamicConfig) (*DynamicIndex, DynamicRecoveryInfo, error) {
	return delta.OpenOrCreate(bootstrap, cfg)
}

// OpenSharded is NewSharded with durability: cfg.Durability names a data
// directory under which each shard keeps its own WAL and snapshots and the
// router keeps a routing journal, so a crashed or killed server reopens to
// a consistent prefix of the acknowledged mutation stream with global IDs
// assigned exactly as the uncrashed run would have. The bootstrap dataset
// must be the same on every open — it is the base the journal and WALs
// replay onto. Close the router with (*ShardedRouter).Close.
func OpenSharded(bootstrap *Dataset, cfg ShardedConfig) (*ShardedRouter, ShardedRecoveryInfo, error) {
	return shard.OpenOrCreate(bootstrap, cfg)
}

// NewParallelEngine serves e with SearchAll batches fanned out over workers
// goroutines (workers <= 0 selects GOMAXPROCS) that share e: every engine
// is safe for concurrent Search. Single searches go straight to e.
func NewParallelEngine(e Engine, workers int) *ParallelEngine {
	return query.NewParallelEngine(e, workers)
}

// NewResultCache returns an epoch-invalidated cache of up to entries
// complete responses (entries <= 0 selects the default), invalidated by
// src's mutation counter: any insert, delete or compaction makes every
// older entry unreachable at once, so a stale result can never serve. Use
// the index itself as src (DynamicIndex, ShardedRouter and their engines
// implement EpochSource) or StaticEpoch{} over an immutable index, and
// attach the cache with (*ParallelEngine).SetResultCache.
func NewResultCache(entries int, src EpochSource) *ResultCache {
	return query.NewResultCache(entries, src)
}

// NewIL builds the inverted-list baseline (activity-only pruning).
func NewIL(ts *TrajStore) Engine { return baseline.BuildIL(ts) }

// NewRT builds the R-tree baseline (spatial-only pruning).
func NewRT(ts *TrajStore) Engine { return baseline.BuildRT(ts, 0, 0) }

// NewIRT builds the IR-tree baseline (spatial pruning with node-level
// activity filters).
func NewIRT(ts *TrajStore) Engine { return baseline.BuildIRT(ts, 0, 0) }

// GenerateDataset synthesizes a check-in dataset (see GeneratorConfig).
func GenerateDataset(cfg GeneratorConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// PresetLA returns the Los Angeles generator preset scaled by scale
// (1.0 = the paper's Table IV cardinalities).
func PresetLA(scale float64) GeneratorConfig { return dataset.LA(scale) }

// PresetNY returns the New York generator preset.
func PresetNY(scale float64) GeneratorConfig { return dataset.NY(scale) }

// GenerateQueries derives a query workload from a dataset the way the
// paper's experiments do (random trajectories, steered diameter).
func GenerateQueries(ds *Dataset, cfg WorkloadConfig) ([]Query, error) {
	return queries.Generate(ds, cfg)
}

// Dist returns the Euclidean distance between two points in kilometres.
func Dist(a, b Point) float64 { return geo.Dist(a, b) }

// SaveGATIndex serializes a built GAT index so deployments can pay the
// build cost once; reload with LoadGATIndex against a store holding the
// same dataset.
func SaveGATIndex(idx *GATIndex, w io.Writer) (int64, error) { return idx.WriteTo(w) }

// LoadGATIndex reconstructs an index written by SaveGATIndex.
func LoadGATIndex(r io.Reader, ts *TrajStore) (*GATIndex, error) { return gat.Load(r, ts) }

// Raw check-in ingestion: the paper's source data is check-in logs (user,
// time, venue coordinates, tip text); these helpers turn such logs into a
// searchable dataset.
type (
	// LatLon is a geodetic coordinate in degrees.
	LatLon = geo.LatLon
	// CheckinRecord is one raw check-in.
	CheckinRecord = checkin.Record
	// CheckinOptions tunes dataset assembly from raw check-ins.
	CheckinOptions = checkin.Options
)

// ParseCheckinsCSV reads "user,timestamp,lat,lon,venue,tip" rows.
func ParseCheckinsCSV(r io.Reader) ([]CheckinRecord, error) { return checkin.ParseCSV(r) }

// BuildDatasetFromCheckins groups records by user in chronological order,
// extracts activities from tip text, and projects coordinates onto the
// planar kilometre frame.
func BuildDatasetFromCheckins(recs []CheckinRecord, opts CheckinOptions) (*Dataset, error) {
	return checkin.BuildDataset(recs, opts)
}

// ExtractActivities tokenizes tip text into activity words (lowercased,
// stopwords removed).
func ExtractActivities(tip string) []string { return checkin.ExtractActivities(tip) }
