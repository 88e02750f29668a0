package gat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/geo"
	"activitytraj/internal/grid"
	"activitytraj/internal/invindex"
	"activitytraj/internal/storage"
	"activitytraj/internal/trajectory"
)

// Index persistence: a built GAT index can be written to a stream and
// reloaded against the same trajectory store, so production deployments
// pay the build cost once. The format stores the configuration, grid
// geometry, in-memory HICL levels, ITL, the disk directory and the raw
// pages of the HICL disk store; HICL cell lists, in memory and on the pages,
// are length-prefixed invindex.Set encodings. The ITL section is leaf-major
// — per occupied leaf its activities, per activity its list — as the arena
// once was: the arena turned activity-major in memory only, so WriteTo
// orders its entries by leaf, Load sorts them back, and no byte moved.
//
// A stream is input from outside: Load checks every value against the grid
// and the store the index is bound to, sizes no allocation from a count
// before the bytes behind it arrive, and accepts only the encoding WriteTo
// would have chosen, so what loads re-serializes to the bytes it came from.
const (
	persistMagic   = "GATX"
	persistVersion = 2
)

// ErrBadIndexFormat is returned when loading a stream that is not a
// serialized GAT index.
var ErrBadIndexFormat = errors.New("gat: bad index format")

// WriteTo serializes the index. It returns the number of bytes written.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	// A bufio.Writer keeps its first write error and returns it from every
	// later call, Flush included, so only the final Flush is checked.
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	put := func(p []byte) {
		m, _ := bw.Write(p)
		n += int64(m)
	}
	var scratch [binary.MaxVarintLen64]byte
	putU := func(vs ...uint64) {
		for _, v := range vs {
			put(scratch[:binary.PutUvarint(scratch[:], v)])
		}
	}

	put([]byte(persistMagic))
	put([]byte{persistVersion})
	cfg := idx.cfg
	flags := uint64(0)
	if cfg.DisableTAS {
		flags |= 1
	}
	if cfg.LooseLowerBound {
		flags |= 2
	}
	putU(uint64(cfg.Depth), uint64(cfg.MemLevels), uint64(cfg.Lambda),
		uint64(cfg.NearCells), uint64(cfg.PoolPages), flags)
	region := idx.g.Region()
	for _, f := range []float64{region.MinX, region.MinY, idx.g.Side()} {
		put(binary.LittleEndian.AppendUint64(scratch[:0], math.Float64bits(f)))
	}

	// In-memory HICL levels: per activity a length-prefixed Set blob.
	putU(uint64(len(idx.hiclMem)))
	var buf []byte
	for _, level := range idx.hiclMem {
		putU(uint64(len(level)))
		for _, a := range sortedActs(level) {
			buf = level[a].AppendEncoded(buf[:0])
			putU(uint64(a), uint64(len(buf)))
			put(buf)
		}
	}

	// ITL: the entries ordered by (leaf, entry) — within a leaf, entry order
	// is activity order, and an entry's activity is the one whose span
	// starts last at or before it.
	itl := &idx.itl
	order := make([]uint64, 0, len(itl.entZ)) // leaf Z << 32 | entry
	for e, z := range itl.entZ {
		order = append(order, uint64(z)<<32|uint64(e))
	}
	slices.Sort(order)
	sameLeaf := func(a, b uint64) bool { return a>>32 == b>>32 }
	putU(uint64(len(slices.CompactFunc(slices.Clone(order), sameLeaf))))
	for i, k := range order {
		if i == 0 || !sameLeaf(k, order[i-1]) {
			n := 1
			for i+n < len(order) && sameLeaf(k, order[i+n]) {
				n++
			}
			putU(k>>32, uint64(n))
		}
		ai, _ := slices.BinarySearch(itl.actOff, uint32(k)+1)
		putU(uint64(itl.acts[ai-1]))
		buf = invindex.PostingList(itl.list(uint32(k))).AppendEncoded(buf[:0])
		put(buf)
	}

	// HICL disk directory + raw store pages.
	putU(uint64(len(idx.hiclDir)))
	for _, k := range sortedHiclKeys(idx.hiclDir) {
		ref := idx.hiclDir[k]
		putU(uint64(k.level), uint64(k.act), uint64(ref.Page), uint64(ref.Off), uint64(ref.Len))
	}
	pages := idx.hiclStore.Pages()
	putU(uint64(pages))
	for p := uint32(0); p < pages; p++ {
		blob, err := idx.hiclStore.Read(storage.SegRef{Page: p, Off: 0, Len: storage.PageSize})
		if err != nil {
			return n, fmt.Errorf("gat: dump page %d: %w", p, err)
		}
		put(blob)
	}
	return n, bw.Flush()
}

// Load reconstructs an index written by WriteTo, binding it to ts, which
// must hold the dataset the index was built from: a posting naming a
// trajectory ts lacks is a format error, not a search-time panic.
func Load(r io.Reader, ts *evaluate.TrajStore) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	// Reads and checks keep the first error: after it get and getU return
	// zeros, every count-driven loop below stops (each tests rerr), and the
	// error is returned at the end of the section that hit it.
	var rerr error
	bad := func(format string, args ...any) {
		if rerr == nil {
			rerr = fmt.Errorf("%w: "+format, append([]any{ErrBadIndexFormat}, args...)...)
		}
	}
	get := func(p []byte) {
		if rerr == nil {
			_, rerr = io.ReadFull(br, p)
		}
	}
	// getU reads a uvarint in its shortest form, the only one putU writes.
	getU := func() uint64 {
		p, _ := br.Peek(binary.MaxVarintLen64) // short at the end of the stream
		v, n := binary.Uvarint(p)
		if n <= 0 || n > 1 && p[n-1] == 0 {
			bad("truncated or padded uvarint")
		}
		if rerr != nil {
			return 0
		}
		br.Discard(n)
		return v
	}
	getU32 := func() uint32 {
		v := getU()
		if v > math.MaxUint32 {
			bad("value %d exceeds 32 bits", v)
		}
		return uint32(v)
	}

	head := make([]byte, len(persistMagic)+1)
	if get(head); rerr != nil || string(head[:len(persistMagic)]) != persistMagic {
		return nil, fmt.Errorf("%w: magic %q (%v)", ErrBadIndexFormat, head, rerr)
	}
	if ver := head[len(persistMagic)]; ver != persistVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadIndexFormat, ver)
	}
	var vals [6]uint64
	for i := range vals {
		vals[i] = getU()
	}
	written := Config{
		Depth:           int(vals[0]),
		MemLevels:       int(vals[1]),
		Lambda:          int(vals[2]),
		NearCells:       int(vals[3]),
		PoolPages:       int(vals[4]),
		DisableTAS:      vals[5]&1 != 0,
		LooseLowerBound: vals[5]&2 != 0,
	}
	var geom [3]float64 // origin X, origin Y, side
	for i := range geom {
		var b [8]byte
		get(b[:])
		geom[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	// HICLCacheEntries is a runtime knob, not part of the serialized
	// geometry; withDefaults re-derives it, and must change nothing else:
	// the persisted fields are post-default values.
	cfg := written.withDefaults()
	if written.HICLCacheEntries = cfg.HICLCacheEntries; written != cfg || vals[5] > 3 || cfg.validate() != nil {
		bad("configuration %v", vals)
	}
	if rerr != nil {
		return nil, rerr
	}
	g, err := grid.New(geo.Point{X: geom[0], Y: geom[1]}, geom[2], cfg.Depth)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		cfg:       cfg,
		ts:        ts,
		g:         g,
		hiclDir:   make(map[hiclKey]storage.SegRef),
		hiclStore: storage.NewMemStore(cfg.PoolPages),
		hicl:      newHICLCache(cfg.HICLCacheEntries),
	}

	var blob bytes.Buffer // grows as the bytes arrive, whatever the prefix says
	var enc []byte
	readSet := func() *invindex.Set {
		n := getU()
		if blob.Reset(); rerr == nil {
			_, rerr = io.CopyN(&blob, br, int64(min(n, math.MaxInt64)))
		}
		if rerr != nil {
			return nil
		}
		set, _, err := invindex.DecodeSet(blob.Bytes())
		if err != nil {
			bad("%v", err)
		} else if enc = set.AppendEncoded(enc[:0]); !bytes.Equal(enc, blob.Bytes()) {
			bad("set of %d bytes re-encodes to %d", blob.Len(), len(enc))
		}
		return set
	}
	nLevels := getU()
	if nLevels > uint64(cfg.Depth)+1 {
		return nil, fmt.Errorf("%w: %d in-memory HICL levels at depth %d", ErrBadIndexFormat, nLevels, cfg.Depth)
	}
	idx.hiclMem = make([]map[trajectory.ActivityID]*invindex.Set, nLevels)
	for l := range idx.hiclMem {
		nActs := getU()
		if nActs == 0 {
			continue // level 0 is the unused slot
		}
		m := make(map[trajectory.ActivityID]*invindex.Set)
		for i, prev := uint64(0), uint32(0); i < nActs && rerr == nil; i++ {
			a := getU32()
			if i > 0 && a <= prev {
				bad("HICL level %d: activity %d out of order", l, a)
			}
			m[trajectory.ActivityID(a)], prev = readSet(), a
		}
		idx.hiclMem[l] = m
	}

	// ITL: cells and each cell's activities ascend, and no other order
	// loads; each list is, as invindex.AppendEncoded wrote it, a count, the
	// first element, then gaps. It must be a non-empty strictly ascending
	// run of the store's trajectories — the searcher indexes arrays of that
	// size by it — in a leaf of this grid.
	nTrajs, zEnd := uint64(ts.NumTrajs()), uint64(1)<<(2*uint(cfg.Depth))
	var triples []itlTriple
	nCells := getU()
	for i, prevZ := uint64(0), uint64(0); i < nCells && rerr == nil; i++ {
		z, nActs := getU(), getU()
		if z >= zEnd || nActs == 0 || i > 0 && z <= prevZ {
			bad("ITL cell %d with %d lists: out of order or outside the depth-%d grid", z, nActs, cfg.Depth)
		}
		prevZ = z
		for j, prevA := uint64(0), uint32(0); j < nActs && rerr == nil; j++ {
			a, count, id := getU32(), getU(), uint64(0)
			if j > 0 && a <= prevA || count == 0 {
				bad("ITL list (cell %d, activity %d) of %d postings: out of order or empty", z, a, count)
			}
			prevA = a
			for k := uint64(0); k < count && rerr == nil; k++ {
				gap := getU()
				if id += gap; gap >= nTrajs || id >= nTrajs || k > 0 && gap == 0 {
					bad("ITL list (cell %d, activity %d): posting %d of a store of %d trajectories", z, a, id, nTrajs)
				}
				triples = append(triples, itlTriple{actCell: uint64(a)<<32 | z, traj: uint32(id)})
			}
		}
	}
	idx.itl = layoutITL(triples)

	nDir := getU()
	for i, prev := uint64(0), uint64(0); i < nDir && rerr == nil; i++ {
		level, act := getU(), getU32()
		key := level<<32 | uint64(act) // meaningful once level <= Depth is known
		if level > uint64(cfg.Depth) || i > 0 && key <= prev {
			bad("HICL directory: list (level %d, activity %d) out of order", level, act)
		}
		prev = key
		idx.hiclDir[hiclKey{level: uint8(level), act: trajectory.ActivityID(act)}] = storage.SegRef{Page: getU32(), Off: getU32(), Len: getU32()}
	}
	nPages := getU()
	for k, ref := range idx.hiclDir { // Store.Read allocates ref.Len bytes before it reads one
		if ref.Off >= storage.PageSize || nPages > math.MaxUint32 ||
			uint64(ref.Page)*storage.PageSize+uint64(ref.Off)+uint64(ref.Len) > nPages*storage.PageSize {
			bad("HICL list (level %d, activity %d) lies outside the store's %d pages", k.level, k.act, nPages)
		}
	}
	page := make([]byte, storage.PageSize)
	for p := uint64(0); p < nPages && rerr == nil; p++ {
		if get(page); rerr == nil {
			_, rerr = idx.hiclStore.Append(page)
		}
	}
	if rerr == nil {
		rerr = idx.hiclStore.Seal()
	}
	if rerr != nil {
		return nil, fmt.Errorf("gat: load index: %w", rerr)
	}
	return idx, nil
}

func sortedActs[V any](m map[trajectory.ActivityID]V) []trajectory.ActivityID {
	out := make([]trajectory.ActivityID, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

func sortedHiclKeys(m map[hiclKey]storage.SegRef) []hiclKey {
	keys := make([]hiclKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b hiclKey) int {
		if a.level != b.level {
			return int(a.level) - int(b.level)
		}
		return int(a.act) - int(b.act)
	})
	return keys
}
