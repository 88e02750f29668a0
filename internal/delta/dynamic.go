package delta

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/gat"
	"activitytraj/internal/geo"
	"activitytraj/internal/invindex"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
	"activitytraj/internal/wal"
)

// Config tunes a Dynamic index.
type Config struct {
	// GAT configures the immutable base index (rebuilt on every
	// compaction); the zero value uses the paper's defaults.
	GAT gat.Config
	// Store configures the base trajectory store. FilePath must be empty:
	// the dynamic index rebuilds the store on every compaction and only
	// supports the in-memory pager.
	Store evaluate.TrajStoreConfig
	// CompactThreshold is the number of delta mutations (inserts+deletes)
	// that triggers a background compaction. 0 selects
	// DefaultCompactThreshold; negative disables auto-compaction (call
	// CompactNow explicitly).
	CompactThreshold int
	// Durability persists mutations to a write-ahead log and compactions to
	// snapshots for crash recovery. The zero value disables it; a durable
	// index must be opened with OpenOrCreate, not NewDynamic.
	Durability Durability
}

// DefaultCompactThreshold is the default delta-mutation count that triggers
// a background compaction.
const DefaultCompactThreshold = 4096

// view merges up to two delta layers (frozen under active) into the single
// overlay the GAT searcher and evaluator consume. It is immutable; layer
// content consistency is guaranteed by the generation's read-locking of the
// active layer (frozen layers receive no writes).
type view struct {
	layers []*Layer // search order: frozen first, then active
	baseN  int
}

var _ gat.DeltaOverlay = (*view)(nil)

func (v *view) IDSpace() int {
	n := v.baseN
	for _, l := range v.layers {
		if l.idSpace > n {
			n = l.idSpace
		}
	}
	return n
}

func (v *view) Empty() bool {
	for _, l := range v.layers {
		// Reading len under the generation's search-time lock discipline:
		// the active layer is read-locked for the whole search, frozen
		// layers receive no writes.
		if len(l.trajs) > 0 || l.numTombs.Load() > 0 {
			return false
		}
	}
	return true
}

func (v *view) AppendCellSets(dst []*invindex.Set, level int, a trajectory.ActivityID) []*invindex.Set {
	for _, l := range v.layers {
		if set := l.hicl[level][a]; set != nil {
			dst = append(dst, set)
		}
	}
	return dst
}

func (v *view) AppendRangeTrajs(dst []uint32, zlo, zlast uint32, a trajectory.ActivityID, region *geo.Rect) []uint32 {
	for _, l := range v.layers {
		dst = l.appendRangeTrajs(dst, zlo, zlast, a, region)
	}
	return dst
}

func (v *view) Tombstoned(id trajectory.TrajID) bool {
	for _, l := range v.layers {
		if l.tombstoned(id) {
			return true
		}
	}
	return false
}

func (v *view) HasTombstones() bool {
	for _, l := range v.layers {
		if l.numTombs.Load() > 0 {
			return true
		}
	}
	return false
}

func (v *view) AppendOverflow(dst []uint32) []uint32 {
	for _, l := range v.layers {
		dst = append(dst, l.overflowIDs...)
	}
	return dst
}

// Entry implements evaluate.DeltaSource: one probe per layer finds the
// trajectory, and everything scoring reads of it comes back together.
func (v *view) Entry(id trajectory.TrajID) evaluate.DeltaEntry {
	for _, l := range v.layers {
		if e := l.lookup(id); e != nil {
			return evaluate.DeltaEntry{Acts: e.acts, Lists: e.postings, Coords: e.pts}
		}
	}
	return evaluate.DeltaEntry{}
}

// generation is one immutable epoch of the dynamic index: a base index and
// store plus the delta layers stacked on top. Searches acquire the current
// generation, search it, and release it; compaction retires generations by
// swapping in a successor. refs/drained implement the RCU-style grace
// period after which a retired generation's caches are dropped.
type generation struct {
	epoch  uint64
	ds     *trajectory.Dataset
	ts     *evaluate.TrajStore
	idx    *gat.Index
	frozen *Layer // layer under compaction, nil otherwise
	active *Layer
	ov     *view
	// eng searches base ∪ delta for every Engine while this generation is
	// current; its scratch goes with the generation.
	eng *gat.Engine

	refs      atomic.Int64
	retired   atomic.Bool
	drainOnce sync.Once
	drained   chan struct{}
}

func newGeneration(epoch uint64, ds *trajectory.Dataset, ts *evaluate.TrajStore, idx *gat.Index, frozen, active *Layer) *generation {
	layers := make([]*Layer, 0, 2)
	if frozen != nil {
		layers = append(layers, frozen)
	}
	layers = append(layers, active)
	ov := &view{layers: layers, baseN: ts.NumTrajs()}
	return &generation{
		epoch:   epoch,
		ds:      ds,
		ts:      ts,
		idx:     idx,
		frozen:  frozen,
		active:  active,
		ov:      ov,
		eng:     gat.NewEngineWithOverlay(idx, ov),
		drained: make(chan struct{}),
	}
}

func (g *generation) release() {
	if g.refs.Add(-1) == 0 && g.retired.Load() {
		g.drainOnce.Do(func() { close(g.drained) })
	}
}

func (g *generation) retire() {
	g.retired.Store(true)
	if g.refs.Load() == 0 {
		g.drainOnce.Do(func() { close(g.drained) })
	}
}

// Dynamic is an LSM-style dynamic GAT index: an immutable base generation
// plus an in-memory delta layer absorbing Insert/Delete, searched together
// exactly, and compacted into a fresh immutable generation in the
// background once the delta grows past Config.CompactThreshold.
//
// All methods are safe for concurrent use. Searches go through an engine
// from NewEngine, which is safe for concurrent use too.
type Dynamic struct {
	cfg Config

	mu     sync.Mutex // serializes writers and generation swaps
	nextID int        // next trajectory ID to assign (monotone, never reused)

	compactMu   sync.Mutex  // one compaction at a time
	compacting  atomic.Bool // auto-compaction trigger latch
	autoOff     atomic.Bool // auto-compaction disabled after a failure
	compactions atomic.Int64
	// testFailBuild injects a rebuild failure so tests can exercise the
	// rollback path (in-memory builds cannot fail organically).
	testFailBuild atomic.Bool
	// compactErr holds the last background compaction error, boxed so
	// atomic.Value never sees two different concrete error types.
	compactErr atomic.Value // of errBox

	// log receives every mutation before it applies (see Durability; nil
	// for a volatile index, whose Log calls do nothing); fsys is the
	// filesystem snapshots are written through.
	log  *wal.Stream
	fsys wal.FS

	gen atomic.Pointer[generation]

	// mutEpoch counts mutations with apply-then-bump ordering: incremented
	// after each insert/delete/compaction swap becomes visible to searches
	// and before the mutation is acknowledged — the contract
	// query.EpochSource requires for result-cache invalidation. It is NOT
	// the generation epoch (gen.epoch advances only on compaction swaps,
	// which would let a cache serve results predating unacknowledged
	// inserts as fresh).
	mutEpoch atomic.Uint64

	// obs, when non-nil, is notified of every insert/delete under mu at the
	// apply point (after the mutEpoch bump), so per-index notification order
	// equals apply order. See MutationObserver.
	obs MutationObserver
}

// MutationObserver receives insert/delete notifications from a Dynamic
// index. Callbacks fire under the index's mutation lock, immediately after
// the mutation became visible to searches (apply-then-bump order), so
// notifications arrive in exactly the order mutations applied. They must
// therefore be fast and must not call back into the index — enqueue and
// return. Idempotent re-deletes and compaction swaps do not notify (the
// corpus membership is unchanged).
type MutationObserver interface {
	// OnInsert reports a newly inserted trajectory: its assigned ID, its
	// point coordinates, and the union of its points' activities. Both
	// slices are immutable — observers may retain them.
	OnInsert(id trajectory.TrajID, pts []geo.Point, acts trajectory.ActivitySet)
	// OnDelete reports a newly effective delete (first tombstone for id).
	OnDelete(id trajectory.TrajID)
}

// SetObserver attaches (nil detaches) the index's mutation observer. The
// observer sees every mutation applied after SetObserver returns; mutations
// already applied are the caller's to discover (e.g. by searching).
func (d *Dynamic) SetObserver(obs MutationObserver) {
	d.mu.Lock()
	d.obs = obs
	d.mu.Unlock()
}

// NewDynamic builds a dynamic index over ds. The dataset is the initial
// base generation; it must satisfy (*Dataset).Validate and is treated as
// immutable afterwards. An index with Config.Durability set must be opened
// with OpenOrCreate instead, so pre-crash state is never silently ignored.
func NewDynamic(ds *trajectory.Dataset, cfg Config) (*Dynamic, error) {
	if cfg.Durability.Dir != "" {
		return nil, fmt.Errorf("delta: durable indexes must be opened with OpenOrCreate")
	}
	return newDynamicBase(ds, cfg)
}

func newDynamicBase(ds *trajectory.Dataset, cfg Config) (*Dynamic, error) {
	if cfg.Store.FilePath != "" {
		return nil, fmt.Errorf("delta: file-backed stores are not supported (compaction rebuilds the store)")
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("delta: invalid dataset: %w", err)
	}
	ts, idx, err := buildBase(ds, cfg)
	if err != nil {
		return nil, err
	}
	d := &Dynamic{cfg: cfg, nextID: len(ds.Trajs)}
	active := NewLayer(idx.Grid(), len(ds.Trajs))
	d.gen.Store(newGeneration(1, ds, ts, idx, nil, active))
	return d, nil
}

func buildBase(ds *trajectory.Dataset, cfg Config) (*evaluate.TrajStore, *gat.Index, error) {
	ts, err := evaluate.BuildTrajStore(ds, cfg.Store)
	if err != nil {
		return nil, nil, fmt.Errorf("delta: build store: %w", err)
	}
	idx, err := gat.Build(ts, cfg.GAT)
	if err != nil {
		return nil, nil, fmt.Errorf("delta: build index: %w", err)
	}
	return ts, idx, nil
}

// threshold returns the effective auto-compaction threshold (<= 0 = off).
func (d *Dynamic) threshold() int {
	switch {
	case d.cfg.CompactThreshold < 0:
		return 0
	case d.cfg.CompactThreshold == 0:
		return DefaultCompactThreshold
	default:
		return d.cfg.CompactThreshold
	}
}

// acquire pins the current generation for one search. The re-check after
// incrementing closes the load-then-increment race with retire(): without
// it, a reader descheduled between Load and Add could pin a generation
// whose drained channel already fired, and search it while the retirement
// path drops its caches.
func (d *Dynamic) acquire() *generation {
	for {
		g := d.gen.Load()
		g.refs.Add(1)
		if d.gen.Load() == g {
			return g
		}
		g.release()
	}
}

// Insert adds a trajectory to the index and returns its assigned ID. The
// trajectory becomes visible to searches atomically, point activity sets
// must be normalized (see NewActivitySet) and within the dataset's
// vocabulary, and the Pts slice is retained — callers must not mutate it
// afterwards. tr.ID is ignored; IDs are assigned densely after the base
// dataset's and are stable across compactions.
//
// A non-nil error with a non-zero ID means the mutation is applied and
// visible but unacknowledged (the durability wait failed): it may or may
// not survive a crash.
func (d *Dynamic) Insert(tr trajectory.Trajectory) (trajectory.TrajID, error) {
	id, commit, err := d.InsertDeferred(tr)
	if err != nil {
		return 0, err
	}
	if err := commit(); err != nil {
		return id, err
	}
	return id, nil
}

// InsertDeferred is Insert split at the durability wait: on a nil error the
// trajectory is applied, visible to searches and logged, with its ID
// assigned — but not yet durable. The caller must then invoke commit
// (holding no locks of its own, so concurrent writers share fsyncs) to
// block until the record is durable under the configured sync policy and to
// arm auto-compaction. A commit error means applied-but-unacknowledged; an
// InsertDeferred error means nothing was applied and no ID was consumed.
// The split lets the shard router publish its ID mappings before any fsync
// wait, keeping them in step with this index on every failure path.
func (d *Dynamic) InsertDeferred(tr trajectory.Trajectory) (trajectory.TrajID, func() error, error) {
	if err := d.Validate(tr); err != nil {
		return 0, nil, err
	}
	d.mu.Lock()
	logged, err := d.log.Log(recInsert, func(b []byte) []byte { return encodeInsertBody(b, tr.Pts) })
	if err != nil {
		d.mu.Unlock()
		return 0, nil, err
	}
	gen := d.gen.Load()
	id := trajectory.TrajID(d.nextID)
	d.nextID++
	tr.ID = id
	ent := gen.active.insert(id, tr)
	d.mutEpoch.Add(1) // apply-then-bump: after visibility, before the ack
	if d.obs != nil {
		d.obs.OnInsert(id, ent.pts, ent.acts)
	}
	d.mu.Unlock()
	commit := func() error {
		if err := logged.Wait(); err != nil {
			return err
		}
		d.maybeCompact(gen)
		return nil
	}
	return id, commit, nil
}

// Delete removes trajectory id from search results. Deletes are tombstones:
// the trajectory stops matching immediately and its storage is reclaimed at
// the next compaction. Deleting an unknown ID is an error; deleting an
// already-deleted one is a no-op — including across compactions, so
// idempotent retries never inflate the tombstone count or re-trigger
// compaction of an unchanged corpus.
func (d *Dynamic) Delete(id trajectory.TrajID) error {
	d.mu.Lock()
	if int(id) >= d.nextID {
		d.mu.Unlock()
		return fmt.Errorf("delta: delete of unknown trajectory %d", id)
	}
	gen := d.gen.Load()
	// Already gone? Either tombstoned in a live layer (we hold d.mu, the
	// only tombstone writer, so reading both layers is safe) or compacted
	// away into a base husk.
	if gen.ov.Tombstoned(id) ||
		(int(id) < len(gen.ds.Trajs) && len(gen.ds.Trajs[id].Pts) == 0) {
		// No state change: idempotent re-deletes are not logged, so retries
		// never bloat the WAL or the replayed tombstone count.
		d.mu.Unlock()
		return nil
	}
	logged, err := d.log.Log(recDelete, func(b []byte) []byte { return encodeDeleteBody(b, id) })
	if err != nil {
		d.mu.Unlock()
		return err
	}
	gen.active.delete(id)
	d.mutEpoch.Add(1) // apply-then-bump: after visibility, before the ack
	if d.obs != nil {
		d.obs.OnDelete(id)
	}
	d.mu.Unlock()
	if err := logged.Wait(); err != nil {
		return err
	}
	d.maybeCompact(gen)
	return nil
}

// Validate reports why Insert would reject tr (nil if it would not). A
// wrapper that logs a mutation before applying it checks here first, so a
// trajectory the index refuses never reaches its log.
func (d *Dynamic) Validate(tr trajectory.Trajectory) error {
	gen := d.gen.Load()
	vsize := 0
	if gen.ds.Vocab != nil {
		vsize = gen.ds.Vocab.Size()
	}
	for j, p := range tr.Pts {
		// A non-finite coordinate would poison every future compaction:
		// the rebuilt dataset's bounds go NaN/Inf and grid construction
		// fails forever. Reject it at the door.
		if !finite(p.Loc.X) || !finite(p.Loc.Y) {
			return fmt.Errorf("delta: point %d has non-finite coordinates (%v, %v)", j, p.Loc.X, p.Loc.Y)
		}
		for k, a := range p.Acts {
			if k > 0 && p.Acts[k-1] >= a {
				return fmt.Errorf("delta: point %d: activity set not normalized", j)
			}
			if gen.ds.Vocab != nil && int(a) >= vsize {
				return fmt.Errorf("delta: point %d: activity %d outside vocabulary (size %d)", j, a, vsize)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maybeCompact launches a background compaction when the active layer has
// accumulated enough mutations (at most one in flight). After a background
// failure, auto-compaction latches off — the rollback restores the delta,
// so retrying on every mutation would rebuild the whole corpus in a hot
// loop — until an explicit CompactNow succeeds.
func (d *Dynamic) maybeCompact(gen *generation) {
	t := d.threshold()
	if t <= 0 || d.autoOff.Load() || gen.active.mutations() < t {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		if err := d.CompactNow(); err != nil {
			d.compactErr.Store(errBox{err})
			d.autoOff.Store(true)
			d.compacting.Store(false)
			return
		}
		d.compacting.Store(false)
		// Writes that accumulated while the rebuild ran may already exceed
		// the threshold again; re-check so a write burst cannot leave an
		// oversized delta idle until the next mutation.
		d.maybeCompact(d.gen.Load())
	}()
}

// CompactNow rebuilds base+delta into a fresh immutable generation and
// swaps it in. It blocks until the compaction completes (auto-compaction
// calls it from a background goroutine). Searches keep running throughout:
// while the rebuild is in flight they see base + frozen delta + a fresh
// active layer; after the swap they see the new base + the active layer.
// Writers are only blocked for the two brief swap sections.
func (d *Dynamic) CompactNow() error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()

	// Phase 1: freeze the active layer and open a fresh one.
	d.mu.Lock()
	cur := d.gen.Load()
	if cur.active.mutations() == 0 && cur.frozen == nil {
		d.mu.Unlock()
		return nil
	}
	frozen := cur.active
	fresh := NewLayer(cur.idx.Grid(), d.nextID)
	gen1 := newGeneration(cur.epoch+1, cur.ds, cur.ts, cur.idx, frozen, fresh)
	d.gen.Store(gen1)
	d.mutEpoch.Add(1) // generation swap: conservative cache invalidation
	cur.retire()
	// WAL appends happen under d.mu, so the log's last seq here is exactly
	// the last mutation captured by base+frozen: the snapshot built from
	// them covers every record up to and including lastSeq.
	lastSeq := d.log.LastSeq()
	d.mu.Unlock()

	// Phase 2: rebuild the base from the old dataset plus the frozen layer
	// (immutable now — no locks needed). Writers land in gen1.active and
	// survive the swap; searches stay exact over base+frozen+active.
	newDS := compactedDataset(cur.ds, frozen)
	newTS, newIdx, err := buildBase(newDS, d.cfg)
	if err == nil && d.testFailBuild.Load() {
		err = fmt.Errorf("delta: injected rebuild failure")
	}
	if err != nil {
		// Roll back: merge the frozen layer back into the active one so no
		// write is lost, and drop the frozen reference.
		d.mu.Lock()
		g := d.gen.Load()
		g.active.absorb(frozen)
		gen1r := newGeneration(g.epoch+1, g.ds, g.ts, g.idx, nil, g.active)
		d.gen.Store(gen1r)
		d.mutEpoch.Add(1)
		g.retire()
		d.mu.Unlock()
		return fmt.Errorf("delta: compaction rebuild: %w", err)
	}

	// Phase 3: swap the new base in. The active layer is rebound to the new
	// grid (cell codes change when the region is refit); in-flight searches
	// on gen1 keep the old layer object, so they stay consistent.
	d.mu.Lock()
	g := d.gen.Load()
	newActive := g.active.rebound(newIdx.Grid(), newTS.NumTrajs())
	gen2 := newGeneration(g.epoch+1, newDS, newTS, newIdx, nil, newActive)
	d.gen.Store(gen2)
	d.mutEpoch.Add(1)
	g.retire()
	d.mu.Unlock()
	d.compactions.Add(1)
	// A successful compaction re-arms auto-compaction and clears the stale
	// failure so health polls stop reporting a recovered index as failing.
	d.autoOff.Store(false)
	d.compactErr.Store(errBox{})

	// Drop the retired generations' caches once every in-flight search on
	// them has finished (cur and g share the old index and store).
	go func(a, b *generation, ts *evaluate.TrajStore, idx *gat.Index) {
		<-a.drained
		<-b.drained
		idx.ResetCache()
		ts.ResetPool()
	}(cur, g, cur.ts, cur.idx)

	// Persist the compaction: snapshot + manifest commit + WAL prune. A
	// failure here leaves the swapped-in generation serving (memory is
	// consistent) and the WAL unpruned, so recovery still replays onto the
	// previous snapshot correctly; the error propagates so auto-compaction
	// latches off and health checks surface it.
	if err := d.durableEpilogue(newDS, lastSeq); err != nil {
		return err
	}
	return nil
}

// compactedDataset merges the base dataset with a frozen delta layer:
// inserted trajectories are appended at their assigned IDs and tombstoned
// ones are reduced to empty husks, so IDs stay dense and stable forever.
func compactedDataset(base *trajectory.Dataset, frozen *Layer) *trajectory.Dataset {
	n := frozen.idSpace
	trajs := make([]trajectory.Trajectory, n)
	for i := range base.Trajs {
		if frozen.tombstoned(base.Trajs[i].ID) {
			trajs[i] = trajectory.Trajectory{ID: base.Trajs[i].ID}
			continue
		}
		trajs[i] = base.Trajs[i]
	}
	for id := range trajs[len(base.Trajs):] {
		tid := trajectory.TrajID(len(base.Trajs) + id)
		trajs[tid] = trajectory.Trajectory{ID: tid}
	}
	for id, e := range frozen.trajs {
		if frozen.tombstoned(id) {
			continue
		}
		trajs[id] = trajectory.Trajectory{ID: id, Pts: e.src.Pts}
	}
	return &trajectory.Dataset{Name: base.Name, Vocab: base.Vocab, Trajs: trajs}
}

// Stats reports the dynamic index's current shape.
type Stats struct {
	// Epoch counts generation swaps (freezes and compactions both bump it).
	Epoch uint64
	// BaseTrajectories is the base generation's trajectory count (including
	// husks of compacted-away deletes).
	BaseTrajectories int
	// DeltaTrajectories counts inserts living in the delta layers.
	DeltaTrajectories int
	// Tombstones counts pending (uncompacted) deletes.
	Tombstones int
	// Compacting reports whether a rebuild is in flight.
	Compacting bool
	// Compactions counts completed compactions.
	Compactions int64
	// IDSpace is one past the highest assigned trajectory ID.
	IDSpace int
	// MutEpoch is the mutation epoch (see Dynamic.Epoch): a monotone
	// counter bumped apply-then-ack on every insert/delete/compaction swap.
	MutEpoch uint64
}

// Stats returns a snapshot of the index's shape.
func (d *Dynamic) Stats() Stats {
	d.mu.Lock()
	gen := d.gen.Load()
	s := Stats{
		Epoch:            gen.epoch,
		BaseTrajectories: gen.ts.NumTrajs(),
		// d.compacting covers the window between the auto-compaction
		// trigger and the freeze, when gen.frozen is still nil.
		Compacting:  gen.frozen != nil || d.compacting.Load(),
		Compactions: d.compactions.Load(),
		IDSpace:     d.nextID,
		MutEpoch:    d.mutEpoch.Load(),
	}
	for _, l := range gen.ov.layers {
		l.mu.RLock()
		s.DeltaTrajectories += len(l.trajs)
		s.Tombstones += len(l.tombs)
		l.mu.RUnlock()
	}
	d.mu.Unlock()
	return s
}

// errBox wraps errors stored in compactErr (atomic.Value requires one
// consistent concrete type).
type errBox struct{ err error }

// LastCompactErr returns the most recent background-compaction failure,
// nil if none. Explicit CompactNow calls report their errors directly.
// After a background failure auto-compaction stays disabled (searches and
// writes keep working on the un-compacted layers) until a CompactNow
// succeeds.
func (d *Dynamic) LastCompactErr() error {
	if b, ok := d.compactErr.Load().(errBox); ok {
		return b.err
	}
	return nil
}

// Dataset returns the current base dataset (not including delta inserts).
// It is immutable; compactions replace it.
func (d *Dynamic) Dataset() *trajectory.Dataset { return d.gen.Load().ds }

// Epoch implements query.EpochSource: a monotone counter bumped after every
// insert, delete and compaction swap becomes visible to searches and before
// it is acknowledged (apply-then-bump — see the mutEpoch field and
// query.EpochSource for why the generation epoch alone would be unsound).
func (d *Dynamic) Epoch() uint64 { return d.mutEpoch.Load() }

// ResetCaches puts the current generation's decoded-structure caches and
// buffer pool in the cold state, so harness runs measure the index
// identically regardless of run order.
func (d *Dynamic) ResetCaches() {
	gen := d.acquire()
	defer gen.release()
	gen.idx.ResetCache()
	gen.ts.ResetPool()
}

// Engine serves searches over a Dynamic index. It is safe for concurrent
// use: every search runs on the current generation's GAT engine, built at
// the generation swap, which checks its scratch out per search — so
// engines share the base index, its caches, the delta layers and the
// scratch, and follow generation swaps without rebuilding anything.
type Engine struct{ d *Dynamic }

// NewEngine returns a serving engine over the dynamic index.
func (d *Dynamic) NewEngine() *Engine { return &Engine{d: d} }

// Name implements query.Engine.
func (e *Engine) Name() string { return "GAT+delta" }

// MemBytes implements query.Engine: the base index plus the delta layers.
func (e *Engine) MemBytes() int64 {
	gen := e.d.acquire()
	defer gen.release()
	n := gen.idx.MemBytes()
	for _, l := range gen.ov.layers {
		l.mu.RLock()
		n += l.memBytes()
		l.mu.RUnlock()
	}
	return n
}

// Search implements query.Engine over base ∪ delta: the request runs on
// the current generation's GAT engine, which honors ctx between candidate
// batches.
func (e *Engine) Search(ctx context.Context, req query.Request) (query.Response, error) {
	return e.SearchShared(ctx, req, nil)
}

// SearchShared is Search with a bound shared between cooperating searches
// over sibling shards (see gat.Engine.SearchShared). The active layer's
// read lock is held for the whole search, so it sees one consistent delta
// state (frozen layers receive no writes).
func (e *Engine) SearchShared(ctx context.Context, req query.Request, sink query.BoundSink) (query.Response, error) {
	gen := e.d.acquire()
	defer gen.release()
	gen.active.mu.RLock()
	defer gen.active.mu.RUnlock()
	return gen.eng.SearchShared(ctx, req, sink)
}

// ScoreOne scores a single trajectory against req's query with an exact
// pruning threshold (see gat.Engine.ScoreFor): the returned distance is the
// request's exact distance whenever ok is true, and ok is false when the
// trajectory is absent (tombstoned, compacted-away husk, out of range) or
// the matcher abandoned it for strictly exceeding threshold. The
// subscription hub uses it to score one freshly inserted trajectory against
// a standing query without running a full search. Fetch traffic is added to
// stats.
func (e *Engine) ScoreOne(req query.Request, id trajectory.TrajID, threshold float64, stats *query.SearchStats) (float64, bool, error) {
	gen := e.d.acquire()
	defer gen.release()
	gen.active.mu.RLock()
	defer gen.active.mu.RUnlock()
	if gen.ov.Tombstoned(id) ||
		(int(id) < len(gen.ds.Trajs) && len(gen.ds.Trajs[id].Pts) == 0) {
		return 0, false, nil
	}
	d, out, err := gen.eng.ScoreFor(req, id, threshold, stats)
	if err != nil {
		return 0, false, err
	}
	return d, out == evaluate.Scored, nil
}

// Matches re-derives the matched trajectory point indexes for one known
// result of req's query (see gat.Engine.MatchesFor); id is local to this
// index. Fetch traffic is added to stats.
func (e *Engine) Matches(req query.Request, id trajectory.TrajID, stats *query.SearchStats) ([][]int32, error) {
	gen := e.d.acquire()
	defer gen.release()
	gen.active.mu.RLock()
	defer gen.active.mu.RUnlock()
	return gen.eng.MatchesFor(req, id, stats)
}

// Epoch implements query.EpochSource by delegating to the index's mutation
// counter, so a result cache over this engine invalidates on every
// insert/delete/compaction.
func (e *Engine) Epoch() uint64 { return e.d.Epoch() }

// BatchKey implements query.BatchKeyer on the current generation's GAT
// engine: the leaf-cell Z code of the query centroid in the current
// base grid. Keys are only locality hints consumed within one SearchAll
// call, so a concurrent compaction swapping the grid mid-batch merely
// degrades grouping quality, never correctness.
func (e *Engine) BatchKey(q query.Query) uint64 {
	gen := e.d.acquire()
	defer gen.release()
	return gen.eng.BatchKey(q)
}

var _ query.Engine = (*Engine)(nil)
var _ query.EpochSource = (*Engine)(nil)
