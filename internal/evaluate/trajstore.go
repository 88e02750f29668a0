// Package evaluate provides the candidate-evaluation machinery shared by
// every engine: a disk-resident trajectory store (point coordinates and
// Activity Posting Lists, fetched through a counting buffer pool), the
// in-memory activity directory, and an Evaluator that validates
// candidates and computes their (order-sensitive) minimum match distance.
//
// The paper's experimental design holds everything but candidate retrieval
// constant across methods ("they will use the same algorithms to compute
// the minimum match distance"); centralizing evaluation here enforces that.
package evaluate

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"activitytraj/internal/cache"
	"activitytraj/internal/geo"
	"activitytraj/internal/invindex"
	"activitytraj/internal/query"
	"activitytraj/internal/storage"
	"activitytraj/internal/trajectory"
)

// TrajStore keeps every trajectory's coordinates and Activity Posting List
// (APL, GAT component iv) on simulated disk, with small in-memory
// directories.
// A sharded LRU of decoded APLs sits in front of the disk store so repeated
// candidates — within one query or across concurrent queries — skip both
// the page reads and the varint decode. All read paths are safe for
// concurrent use.
//
// APL segments use a blocked layout (see entryScratch.encodeAPL): a header
// carrying the activity set and a per-activity block skip table, followed by
// the posting blocks. The activity sets are also held in memory, exactly, in one CSR
// arena — the activity directory: id's ascending set is
// acts[actOff[id]:actOff[id+1]]. Containment is decided there, so only
// candidates carrying every query activity are ever fetched; a fetch reads
// the whole segment once, holds the header to the directory (a directory
// position is a header position), and decodes blocks lazily per queried
// activity. Coordinates are fixed-stride, so scoring fetches only the pages
// holding the point indexes the match actually needs.
//
// Beside every directory entry sits its activity box (boxes, parallel to
// acts): the bounding box of the trajectory's points carrying that activity,
// quantized outward onto a boxCells × boxCells lattice over the store's
// bounds. A query point can be matched no closer than the farthest of the
// boxes of its activities, so a candidate whose summed box distance already
// exceeds the search's threshold is decided without any fetch (boxBound).
type TrajStore struct {
	ds           *trajectory.Dataset
	store        *storage.Store
	coordRefs    []storage.SegRef
	aplRefs      []storage.SegRef
	numPts       []uint32 // point count per trajectory
	coordHdrLens []uint8  // uvarint length of each coord segment's count prefix
	actOff       []uint32
	acts         []trajectory.ActivityID
	boxes        []actBox // boxes[k] is the box of the directory entry acts[k]
	lat          *lattice
	aplCache     *cache.Sharded[trajectory.TrajID, *APL]        // nil when disabled
	coordCache   *cache.Sharded[trajectory.TrajID, *coordBlock] // nil when disabled
}

// coordBlock is a cached, sparsely-filled decode of one trajectory's
// coordinate segment: points are faulted in page-by-page as queries need
// them and never re-read. filled is a presence bitmap over point indexes.
// Entries are shared across goroutines; mu guards the fill path, and a
// filled point is never rewritten, so readers that observed presence under
// the lock may use the slice lock-free afterwards.
type coordBlock struct {
	mu     sync.Mutex
	pts    []geo.Point
	filled []uint64
}

func (cb *coordBlock) has(idx uint32) bool {
	return cb.filled[idx>>6]&(1<<(idx&63)) != 0
}

func (cb *coordBlock) mark(idx uint32) {
	cb.filled[idx>>6] |= 1 << (idx & 63)
}

// boxCells is the side of the lattice activity boxes are quantized on: 256
// cells per axis, so a box is four bytes.
const boxCells = 256

// actBox is one directory entry's box: the inclusive lattice cell ranges
// [x0, x1] × [y0, y1] holding every point of the trajectory that carries the
// entry's activity.
type actBox struct{ x0, x1, y0, y1 uint8 }

// lattice is the store's quantization grid: the boxCells+1 ascending cell
// edges per axis, the first and last being the store's bounds exactly. A
// point v lies in cell c of an axis when edges[c] <= v <= edges[c+1] in
// float64 — the cell is found by division and then corrected against the
// edges themselves, so a dequantized box contains its points whatever the
// division rounded to.
type lattice struct {
	xs, ys     [boxCells + 1]float64
	invX, invY float64 // boxCells / extent: +Inf for a zero extent, 0 for an overflowing one
}

func newLattice(r geo.Rect) *lattice {
	l := &lattice{}
	l.invX = fillEdges(&l.xs, r.MinX, r.MaxX)
	l.invY = fillEdges(&l.ys, r.MinY, r.MaxY)
	return l
}

// fillEdges spreads the cell edges of [lo, hi] evenly, clamped into the
// interval so they stay ascending even when the extent overflows, and
// returns the scale cell uses.
func fillEdges(e *[boxCells + 1]float64, lo, hi float64) float64 {
	w := (hi - lo) / boxCells
	for c := 1; c < boxCells; c++ {
		e[c] = min(max(lo+float64(c)*w, lo), hi)
	}
	e[0], e[boxCells] = lo, hi
	return boxCells / (hi - lo)
}

// cell returns the cell c of axis e with e[c] <= v <= e[c+1]; v must lie
// inside [e[0], e[boxCells]]. A zero or overflowing extent makes the first
// guess 0 (or NaN, which fails f > 0) and the edge walk settles it.
func cell(e *[boxCells + 1]float64, inv, v float64) uint8 {
	c := 0
	if f := (v - e[0]) * inv; f > 0 {
		c = int(min(f, boxCells-1))
	}
	for c > 0 && e[c] > v {
		c--
	}
	for c < boxCells-1 && e[c+1] < v {
		c++
	}
	return uint8(c)
}

// rect dequantizes b: the union of its cells, which contains every point
// that was put in it.
func (l *lattice) rect(b actBox) geo.Rect {
	return geo.Rect{MinX: l.xs[b.x0], MinY: l.ys[b.y0], MaxX: l.xs[int(b.x1)+1], MaxY: l.ys[int(b.y1)+1]}
}

// TrajStoreConfig controls construction.
type TrajStoreConfig struct {
	// PoolPages is the buffer pool capacity in 4 KiB pages.
	PoolPages int
	// FilePath, when non-empty, backs the store with a file instead of the
	// deterministic in-memory pager.
	FilePath string
	// APLCacheEntries caps the decoded-APL cache (0 = DefaultAPLCacheEntries,
	// negative = disable caching).
	APLCacheEntries int
	// CoordCacheEntries caps the decoded-coordinate cache (0 =
	// DefaultCoordCacheEntries, negative = disable caching). Entries are
	// sparse: only the points queries actually touched are resident.
	CoordCacheEntries int
}

// DefaultPoolPages is the default buffer pool capacity (4 MiB).
const DefaultPoolPages = 1024

// DefaultAPLCacheEntries is the default decoded-APL cache capacity.
const DefaultAPLCacheEntries = 8192

// DefaultCoordCacheEntries is the default decoded-coordinate cache capacity
// (trajectories, not points; entries hold only the points actually read).
const DefaultCoordCacheEntries = 8192

// BuildTrajStore lays the dataset out on disk and builds the in-memory
// directories.
func BuildTrajStore(ds *trajectory.Dataset, cfg TrajStoreConfig) (*TrajStore, error) {
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = DefaultPoolPages
	}
	var store *storage.Store
	if cfg.FilePath != "" {
		var err error
		store, err = storage.NewFileStore(cfg.FilePath, cfg.PoolPages)
		if err != nil {
			return nil, err
		}
	} else {
		store = storage.NewMemStore(cfg.PoolPages)
	}
	ts := &TrajStore{
		ds:           ds,
		store:        store,
		coordRefs:    make([]storage.SegRef, len(ds.Trajs)),
		aplRefs:      make([]storage.SegRef, len(ds.Trajs)),
		numPts:       make([]uint32, len(ds.Trajs)),
		coordHdrLens: make([]uint8, len(ds.Trajs)),
		actOff:       make([]uint32, len(ds.Trajs)+1),
		lat:          newLattice(ds.Bounds()),
	}
	if cfg.APLCacheEntries >= 0 {
		n := cfg.APLCacheEntries
		if n == 0 {
			n = DefaultAPLCacheEntries
		}
		ts.aplCache = cache.New[trajectory.TrajID, *APL](n, 0, func(id trajectory.TrajID) uint64 {
			return cache.Uint64Hash(uint64(id))
		})
	}
	if cfg.CoordCacheEntries >= 0 {
		n := cfg.CoordCacheEntries
		if n == 0 {
			n = DefaultCoordCacheEntries
		}
		ts.coordCache = cache.New[trajectory.TrajID, *coordBlock](n, 0, func(id trajectory.TrajID) uint64 {
			return cache.Uint64Hash(uint64(id) ^ 0x9E3779B97F4A7C15)
		})
	}
	var buf []byte
	var sc entryScratch
	for i := range ds.Trajs {
		tr := &ds.Trajs[i]
		buf = encodeCoords(buf[:0], tr)
		ref, err := store.Append(buf)
		if err != nil {
			return nil, fmt.Errorf("evaluate: write coords of %d: %w", tr.ID, err)
		}
		ts.coordRefs[i] = ref
		ts.numPts[i] = uint32(len(tr.Pts))
		ts.coordHdrLens[i] = uint8(uvarintLen(uint64(len(tr.Pts))))

		if err := ts.appendEntry(tr, &sc); err != nil {
			return nil, err
		}
		ts.actOff[i+1] = uint32(len(ts.acts))

		buf, _ = sc.encodeAPL(buf[:0])
		if ref, err = store.Append(buf); err != nil {
			return nil, fmt.Errorf("evaluate: write APL of %d: %w", tr.ID, err)
		}
		ts.aplRefs[i] = ref
	}
	if err := store.Seal(); err != nil {
		return nil, err
	}
	return ts, nil
}

// entryScratch is BuildTrajStore's reusable space for appendEntry and
// encodeAPL, so the directory, its boxes and the APL segment cost no
// allocation per trajectory. appendEntry sorts pairs; encodeAPL encodes the
// same sorted pairs, through acts, lens, list and body.
type entryScratch struct {
	pairs []uint64 // activity<<32 | point index, one per (point, activity), sorted
	cells []actBox // per point: the one-cell box of its location

	acts []uint32 // the APL's activities, ascending
	lens []uint32 // per activity: its posting block's byte length
	list []uint32 // one activity's point indexes, ascending
	body []byte   // the posting blocks
}

// appendEntry appends tr's directory entry — its ascending activity set —
// and the entry's activity boxes. One sort of the (activity, point) pairs
// gives both: each run of one activity is an entry, and the run's points
// are what its box must hold. The sorted pairs stay in sc for encodeAPL. A
// non-finite location has no cell and no distance, so it is refused here
// rather than met by a search.
func (ts *TrajStore) appendEntry(tr *trajectory.Trajectory, sc *entryScratch) error {
	l := ts.lat
	sc.pairs, sc.cells = sc.pairs[:0], sc.cells[:0]
	for pi, p := range tr.Pts {
		if !finite(p.Loc.X) || !finite(p.Loc.Y) {
			return fmt.Errorf("evaluate: trajectory %d point %d has a non-finite location %v", tr.ID, pi, p.Loc)
		}
		cx, cy := cell(&l.xs, l.invX, p.Loc.X), cell(&l.ys, l.invY, p.Loc.Y)
		sc.cells = append(sc.cells, actBox{x0: cx, x1: cx, y0: cy, y1: cy})
		for _, a := range p.Acts {
			sc.pairs = append(sc.pairs, uint64(a)<<32|uint64(pi))
		}
	}
	slices.Sort(sc.pairs)
	for i := 0; i < len(sc.pairs); {
		a := sc.pairs[i] >> 32
		b := sc.cells[uint32(sc.pairs[i])]
		for ; i < len(sc.pairs) && sc.pairs[i]>>32 == a; i++ {
			c := sc.cells[uint32(sc.pairs[i])]
			b.x0, b.x1 = min(b.x0, c.x0), max(b.x1, c.x1)
			b.y0, b.y1 = min(b.y0, c.y0), max(b.y1, c.y1)
		}
		ts.acts = append(ts.acts, trajectory.ActivityID(a))
		ts.boxes = append(ts.boxes, b)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// boxBound returns a lower bound on every match distance of base candidate
// id — Dmm, Dmom and each span's, with or without a Region: summed forward
// over the query points, the distance from the point to the farthest box of
// its activities. slots is the query plan (Evaluator.queryActs) and pos the
// directory positions of the query activities (locateActs).
//
// It is exact in float64, not only in the reals. A dequantized box contains
// its points, and rounded subtraction, squaring, addition and sqrt are all
// monotone, so each term is at most the distance from the query point to
// any trajectory point carrying one of its activities, hence at most every
// point match distance (a sum of such distances covering every activity).
// The matcher sums the per-point distances forward in the same order, so
// by the same monotonicity the bound never exceeds what it computes: a
// candidate whose bound is strictly above the threshold is one the matcher
// would abandon, and one exactly at it is never dropped.
func (ts *TrajStore) boxBound(id trajectory.TrajID, pts []query.Point, slots, pos []int) float64 {
	boxes := ts.boxes[ts.actOff[id]:ts.actOff[id+1]]
	var sum float64
	for _, p := range pts {
		var far float64
		for _, slot := range slots[:len(p.Acts)] {
			far = max(far, ts.lat.rect(boxes[pos[slot]]).MinDistSq(p.Loc))
		}
		slots = slots[len(p.Acts):]
		sum += math.Sqrt(far)
	}
	return sum
}

// Dataset returns the dataset the store was built from.
func (ts *TrajStore) Dataset() *trajectory.Dataset { return ts.ds }

// NumTrajs returns the number of stored trajectories.
func (ts *TrajStore) NumTrajs() int { return len(ts.coordRefs) }

// NumPoints returns the point count of trajectory id (from the in-memory
// directory; no disk access).
func (ts *TrajStore) NumPoints(id trajectory.TrajID) int { return int(ts.numPts[id]) }

// activities returns trajectory id's ascending activity set: its slice of
// the directory, capped so an append can never reach a neighbour's.
func (ts *TrajStore) activities(id trajectory.TrajID) []trajectory.ActivityID {
	return ts.acts[ts.actOff[id]:ts.actOff[id+1]:ts.actOff[id+1]]
}

// FetchCoords reads a trajectory's point locations from disk.
func (ts *TrajStore) FetchCoords(id trajectory.TrajID) ([]geo.Point, error) {
	blob, err := ts.store.Read(ts.coordRefs[id])
	if err != nil {
		return nil, err
	}
	return decodeCoords(blob)
}

// coordScratch is the caller-owned state of sparse coordinate sweeps, reused
// across candidates: the point slice used when the coordinate cache is
// disabled, and the sweep's copy of the page it is on, so consecutive indexes
// on one page cost a single pool access. The copy is what keeps a sweep from
// holding an alias of a pool frame.
type coordScratch struct {
	pts   []geo.Point
	page  uint32
	valid bool   // buf holds page
	buf   []byte // PageSize bytes once used
}

// readPointAt decodes the 16-byte point idx of the segment at ref (whose
// count prefix is hdr bytes), advancing sc's page copy and charging each
// newly touched page and decoded point to stats. Indexes must arrive in
// ascending order.
func (ts *TrajStore) readPointAt(ref storage.SegRef, hdr, idx uint32, sc *coordScratch, stats *query.SearchStats) (geo.Point, error) {
	absOff := ref.Off + hdr + 16*idx
	page := ref.Page + absOff/storage.PageSize
	off := int(absOff % storage.PageSize)
	if !sc.valid || page != sc.page {
		if err := sc.load(ts.store, page); err != nil {
			return geo.Point{}, err
		}
		stats.PageReads++
	}
	b := sc.buf[off:]
	var stitch [16]byte
	if off+16 > storage.PageSize {
		// The point straddles a page boundary: stitch it from the tail of
		// this page and the head of the next.
		head := copy(stitch[:], b)
		if err := sc.load(ts.store, page+1); err != nil {
			return geo.Point{}, err
		}
		stats.PageReads++
		copy(stitch[head:], sc.buf)
		b = stitch[:]
	}
	stats.BytesDecoded += 16
	return geo.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(b[0:8])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:16])),
	}, nil
}

// load copies page into sc's page buffer.
func (sc *coordScratch) load(store *storage.Store, page uint32) error {
	if sc.buf == nil {
		sc.buf = make([]byte, storage.PageSize)
	}
	if err := store.ReadPage(page, sc.buf); err != nil {
		return err
	}
	sc.page, sc.valid = page, true
	return nil
}

// fetchCoordsSparse returns a point slice of the trajectory's full length
// with (at least) the ascending, duplicate-free indexes idxs decoded. Only
// the pages holding requested points go through the buffer pool, and only
// requested points are decoded — page and byte traffic is charged to stats
// per page / point actually touched; fixed-stride coordinates make the
// index → byte-offset mapping direct.
//
// With the coordinate cache enabled the returned slice is the shared,
// sparsely-filled cache entry: points a previous query already faulted in
// cost nothing, repeat candidates cost zero pages. Without it, points land
// in sc.pts and are valid until the next fetch through sc.
func (ts *TrajStore) fetchCoordsSparse(id trajectory.TrajID, idxs []uint32, sc *coordScratch, stats *query.SearchStats) ([]geo.Point, error) {
	n := int(ts.numPts[id])
	ref := ts.coordRefs[id]
	hdr := uint32(ts.coordHdrLens[id])
	if len(idxs) > 0 && int(idxs[len(idxs)-1]) >= n {
		return nil, fmt.Errorf("evaluate: point index %d outside trajectory %d (%d points)", idxs[len(idxs)-1], id, n)
	}
	sc.valid = false // a sweep starts on no page
	if ts.coordCache == nil {
		if cap(sc.pts) < n {
			sc.pts = make([]geo.Point, n)
		}
		pts := sc.pts[:n]
		for _, idx := range idxs {
			p, err := ts.readPointAt(ref, hdr, idx, sc, stats)
			if err != nil {
				return nil, err
			}
			pts[idx] = p
		}
		return pts, nil
	}

	missed := false
	cb, err := ts.coordCache.GetOrFill(id, func() (*coordBlock, error) {
		missed = true
		return &coordBlock{
			pts:    make([]geo.Point, n),
			filled: make([]uint64, (n+63)/64),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if missed {
		stats.CacheMisses++
	} else {
		stats.CacheHits++
	}
	cb.mu.Lock()
	for _, idx := range idxs {
		if cb.has(idx) {
			continue
		}
		p, err := ts.readPointAt(ref, hdr, idx, sc, stats)
		if err != nil {
			cb.mu.Unlock()
			return nil, err
		}
		cb.pts[idx] = p
		cb.mark(idx)
	}
	cb.mu.Unlock()
	return cb.pts, nil
}

// APL is a lazily-decoded Activity Posting List: the header — the sorted
// activity set plus a block skip table — decoded, and a copy of the posting
// blocks' bytes, each block decoded on first use and memoized per activity.
// Cached APLs are shared across goroutines: the memoized lists are published
// through atomics, so concurrent readers are race-free and decode each block
// at most a handful of times.
type APL struct {
	acts   []trajectory.ActivityID
	blocks []blockPair // per-activity skip-table ends and memoized lists
	hdrLen uint32
	numPts uint32 // every posting must lie below it
	body   []byte
}

// blockPair holds the state of the posting blocks at header positions 2j and
// 2j+1: the cumulative byte end of each within the body, and its decoded
// list, nil until decoded. Pairing keeps ends and lists in one allocation at
// the 12 bytes a block they cost apart (a pointer beside one uint32 pads to
// 16).
type blockPair struct {
	list [2]atomic.Pointer[[]uint32]
	end  [2]uint32
}

func (a *APL) blockEnd(i int) uint32 { return a.blocks[i>>1].end[i&1] }

func (a *APL) blockList(i int) *atomic.Pointer[[]uint32] { return &a.blocks[i>>1].list[i&1] }

// Has reports whether the trajectory contains activity act anywhere; no
// posting block is read or decoded.
func (a *APL) Has(act trajectory.ActivityID) bool {
	_, ok := slices.BinarySearch(a.acts, act)
	return ok
}

// Activities returns the trajectory's sorted activity set (shared; callers
// must not modify it).
func (a *APL) Activities() []trajectory.ActivityID { return a.acts }

// Postings returns the point indexes for activity a, nil when absent,
// decoding the activity's block on first use.
// Decode errors surface as nil; use the TrajStore fetch path for attributed,
// error-checked access.
func (a *APL) Postings(act trajectory.ActivityID) []uint32 {
	i, ok := slices.BinarySearch(a.acts, act)
	if !ok {
		return nil
	}
	var discard query.SearchStats
	list, _ := a.postingsAt(i, &discard)
	return list
}

// locateActs resolves the ascending activity set want against the ascending
// header acts in one forward pass, writing the header position of want[i] to
// pos[i]. It returns false at the first activity the header lacks. The
// cursor gallops, so a few query activities against a long header cost the
// logarithm of the gap between them each.
func locateActs(acts, want []trajectory.ActivityID, pos []int) bool {
	lo := 0
	for i, w := range want {
		// Gallop to a window [lo, hi] holding the first element >= w, if
		// there is one, and bisect only that.
		hi, step := lo, 1
		for hi < len(acts) && acts[hi] < w {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		at, ok := slices.BinarySearch(acts[lo:min(hi+1, len(acts))], w)
		if !ok {
			return false
		}
		lo += at
		pos[i] = lo
		lo++
	}
	return true
}

// postingsAt decodes (or returns the memoized) block of the activity at
// header position i, charging the decoded bytes to stats. A freshly decoded
// list is checked against the trajectory's point count, so every list the
// evaluator sees indexes inside the trajectory.
func (a *APL) postingsAt(i int, stats *query.SearchStats) ([]uint32, error) {
	memo := a.blockList(i)
	if p := memo.Load(); p != nil {
		return *p, nil
	}
	start := uint32(0)
	if i > 0 {
		start = a.blockEnd(i - 1)
	}
	end := a.blockEnd(i)
	if int(end) > len(a.body) || start > end {
		return nil, fmt.Errorf("evaluate: APL block %d outside body (%d..%d of %d)", i, start, end, len(a.body))
	}
	list, used, err := invindex.DecodePostings(a.body[start:end])
	if err != nil {
		return nil, fmt.Errorf("evaluate: APL block for activity %d: %w", a.acts[i], err)
	}
	if used != int(end-start) {
		return nil, fmt.Errorf("evaluate: APL block for activity %d has %d trailing bytes", a.acts[i], int(end-start)-used)
	}
	for _, idx := range list {
		if idx >= a.numPts {
			return nil, fmt.Errorf("evaluate: APL block for activity %d: point index %d outside trajectory (%d points)", a.acts[i], idx, a.numPts)
		}
	}
	stats.BytesDecoded += int64(end - start)
	l := []uint32(list)
	memo.Store(&l)
	return l, nil
}

// FetchAPL returns a trajectory's APL (header decoded, blocks lazy),
// consulting the shared cache first. Cached APLs are shared across
// goroutines and must be treated as immutable.
func (ts *TrajStore) FetchAPL(id trajectory.TrajID) (*APL, error) {
	var discard query.SearchStats
	apl, _, err := ts.fetchAPL(id, &discard, nil)
	return apl, err
}

// fetchAPL is the one APL cache policy: consult the shared cache, fall back
// to one read of the whole segment, insert on miss — attributing cache hits
// and misses and the page span of actual reads to stats. The header is held
// to the directory (decodeAPLHeader) and the APL keeps a copy of the body
// bytes only. Two searches missing on one trajectory both read, but the APL
// inserted first serves both (cache.GetOrFill), so blocks already memoized on
// it are not thrown away; a failed decode is not inserted. blob is optional
// caller scratch for the segment bytes; the possibly-grown buffer is returned
// for reuse. Local attribution (rather than diffing the cache's global
// counters) keeps per-search accounting exact when many searches share the
// store.
func (ts *TrajStore) fetchAPL(id trajectory.TrajID, stats *query.SearchStats, blob []byte) (*APL, []byte, error) {
	missed := false
	read := func() (*APL, error) {
		missed = true
		ref := ts.aplRefs[id]
		var err error
		if blob, err = ts.store.ReadInto(ref, blob[:0]); err != nil {
			return nil, err
		}
		stats.PageReads += ref.PageSpan()
		apl, err := decodeAPLHeader(blob, ref.Len, ts.activities(id))
		if err != nil {
			return nil, fmt.Errorf("evaluate: APL of %d: %w", id, err)
		}
		apl.body = append([]byte(nil), blob[apl.hdrLen:]...)
		apl.numPts = ts.numPts[id]
		return apl, nil
	}
	if ts.aplCache == nil {
		apl, err := read()
		return apl, blob, err
	}
	apl, err := ts.aplCache.GetOrFill(id, read)
	if missed {
		stats.CacheMisses++
	} else {
		stats.CacheHits++
	}
	return apl, blob, err
}

// PoolStats exposes the buffer-pool counters for per-search accounting.
func (ts *TrajStore) PoolStats() storage.PoolStats { return ts.store.Stats() }

// CacheStats exposes the decoded-APL cache counters for per-search
// accounting (all zeros when the cache is disabled).
func (ts *TrajStore) CacheStats() cache.Stats {
	if ts.aplCache == nil {
		return cache.Stats{}
	}
	return ts.aplCache.Stats()
}

// ResetPool clears the buffer pool and the decoded-APL cache between engine
// runs so each engine is measured from a cold cache.
func (ts *TrajStore) ResetPool() {
	ts.store.ResetPool()
	if ts.aplCache != nil {
		ts.aplCache.Reset()
	}
	if ts.coordCache != nil {
		ts.coordCache.Reset()
	}
}

// DiskBytes returns the on-disk footprint.
func (ts *TrajStore) DiskBytes() int64 { return ts.store.DiskBytes() }

// ActivityDirBytes returns the footprint of the activity directory: 8 bytes
// per (trajectory, distinct activity) pair — the activity and its box — plus
// 4 per trajectory and the lattice's edges.
func (ts *TrajStore) ActivityDirBytes() int64 {
	return 4*int64(len(ts.acts)+len(ts.boxes)+len(ts.actOff)) + 2*(boxCells+1)*8 + 16
}

// MemBytes returns the in-memory footprint of the store's directories:
// segment refs, point counts, coordinate header lengths and the activity
// directory.
func (ts *TrajStore) MemBytes() int64 {
	return int64(len(ts.coordRefs))*(12+12+4+1) + ts.ActivityDirBytes()
}

// Close releases the underlying pager.
func (ts *TrajStore) Close() error { return ts.store.Close() }

// --- segment codecs ---

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func encodeCoords(dst []byte, tr *trajectory.Trajectory) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(tr.Pts)))
	for _, p := range tr.Pts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Loc.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Loc.Y))
	}
	return dst
}

func decodeCoords(blob []byte) ([]geo.Point, error) {
	return decodeCoordsInto(nil, blob)
}

func decodeCoordsInto(dst []geo.Point, blob []byte) ([]geo.Point, error) {
	n, used := binary.Uvarint(blob)
	if used <= 0 {
		return nil, fmt.Errorf("evaluate: corrupt coords header")
	}
	off := used
	if len(blob) < off+int(n)*16 {
		return nil, fmt.Errorf("evaluate: coords segment truncated")
	}
	for i := uint64(0); i < n; i++ {
		dst = append(dst, geo.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(blob[off:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(blob[off+8:])),
		})
		off += 16
	}
	return dst, nil
}

// encodeAPL writes the blocked APL segment of the trajectory whose sorted
// (activity, point) pairs appendEntry left in sc, and returns the extended
// buffer plus the header length. Layout:
//
//	header: uvarint activity count
//	        per activity: uvarint activity-ID delta
//	        per activity: uvarint block byte-length   (the skip table)
//	body:   concatenated posting blocks, each the delta+varint
//	        PostingList encoding (uvarint count, first element, gaps)
//
// Each run of one activity in the pairs is a block, its point indexes
// ascending. The skip table locates any activity's block without touching
// the others — the layout behind lazy per-activity decode; the activity set
// is checked against the store's in-memory directory on every decode.
func (sc *entryScratch) encodeAPL(dst []byte) ([]byte, int) {
	// Encode the blocks first so the skip table can carry their lengths.
	sc.acts, sc.lens, sc.body = sc.acts[:0], sc.lens[:0], sc.body[:0]
	for i := 0; i < len(sc.pairs); {
		a := uint32(sc.pairs[i] >> 32)
		sc.list = sc.list[:0]
		for ; i < len(sc.pairs) && uint32(sc.pairs[i]>>32) == a; i++ {
			sc.list = append(sc.list, uint32(sc.pairs[i]))
		}
		n := len(sc.body)
		sc.body = invindex.PostingList(sc.list).AppendEncoded(sc.body)
		sc.acts, sc.lens = append(sc.acts, a), append(sc.lens, uint32(len(sc.body)-n))
	}

	hdrStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(sc.acts)))
	prev := uint64(0)
	for _, a := range sc.acts {
		dst = binary.AppendUvarint(dst, uint64(a)-prev) // the first delta is the first ID itself
		prev = uint64(a)
	}
	for _, l := range sc.lens {
		dst = binary.AppendUvarint(dst, uint64(l))
	}
	hdrLen := len(dst) - hdrStart
	return append(dst, sc.body...), hdrLen
}

// decodeAPLHeader parses an APL header from blob (which must hold at least
// the full header) into an APL without its body. The header must list
// exactly acts, the trajectory's directory entry, which the APL aliases:
// containment was decided on the directory and lists are addressed by
// directory position, so a disagreement is corruption, never a different
// answer. segLen is the full segment length, used to validate the skip table.
func decodeAPLHeader(blob []byte, segLen uint32, acts []trajectory.ActivityID) (*APL, error) {
	n, used := binary.Uvarint(blob)
	if used <= 0 {
		return nil, fmt.Errorf("corrupt APL header")
	}
	if n != uint64(len(acts)) {
		return nil, fmt.Errorf("corrupt APL header: lists %d activities, the directory %d", n, len(acts))
	}
	off := used
	a := &APL{acts: acts, blocks: make([]blockPair, (n+1)/2)}
	prev := uint64(0)
	for i, want := range acts {
		d, used := binary.Uvarint(blob[off:])
		if used <= 0 {
			return nil, fmt.Errorf("corrupt APL activity %d", i)
		}
		off += used
		prev += d // the first delta is the first ID itself
		if prev != uint64(want) {
			return nil, fmt.Errorf("corrupt APL header: activity %d is %d, the directory says %d", i, prev, want)
		}
	}
	// Sum in 64 bits and bound every entry: a length of 2^32 or more must
	// not be able to satisfy the total below by wrapping.
	total := uint64(0)
	for i := range acts {
		l, used := binary.Uvarint(blob[off:])
		if used <= 0 {
			return nil, fmt.Errorf("corrupt APL skip table entry %d", i)
		}
		off += used
		if l > uint64(segLen) {
			return nil, fmt.Errorf("corrupt APL skip table entry %d: block of %dB in a segment of %dB", i, l, segLen)
		}
		total += l
		a.blocks[i>>1].end[i&1] = uint32(total)
	}
	a.hdrLen = uint32(off)
	if uint64(off)+total != uint64(segLen) {
		return nil, fmt.Errorf("corrupt APL: header %dB + blocks %dB != segment %dB", off, total, segLen)
	}
	return a, nil
}

// decodeAPL eagerly decodes a full APL segment held in memory, whose header
// must list acts: header plus every posting block (validating all of them).
// Tests use it; the serving path goes through fetchAPL, which decodes blocks
// lazily. An in-memory segment has no point count to hold its lists to.
func decodeAPL(blob []byte, acts []trajectory.ActivityID) (*APL, error) {
	a, err := decodeAPLHeader(blob, uint32(len(blob)), acts)
	if err != nil {
		return nil, err
	}
	a.body = append([]byte(nil), blob[a.hdrLen:]...)
	a.numPts = math.MaxUint32
	var discard query.SearchStats
	for i := range a.acts {
		if _, err := a.postingsAt(i, &discard); err != nil {
			return nil, err
		}
	}
	return a, nil
}
