package gat

import (
	"bufio"
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
// pages of the HICL disk store.
//
// Version history:
//
//	1: flat delta+varint posting lists everywhere (in-memory HICL levels
//	   and the disk store's pages).
//	2: HICL cell lists — in memory and on the disk pages — use the hybrid
//	   container Set encoding (invindex.Set), length-prefixed in the
//	   stream. The ITL section is unchanged.
//
// Load accepts both: a version-1 stream is migrated on the fly — its flat
// lists are decoded and re-encoded as Sets into a fresh disk store — so
// indexes persisted before the container change keep working.
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

	// ITL: the arena's cells, activities and lists stream out in order.
	itl := &idx.itl
	putU(uint64(len(itl.cells)))
	for i, z := range itl.cells {
		lo, hi := int(itl.cellOff[i]), int(itl.cellOff[i+1])
		putU(uint64(z), uint64(hi-lo))
		for j := lo; j < hi; j++ {
			putU(uint64(itl.acts[j]))
			buf = invindex.PostingList(itl.list(j)).AppendEncoded(buf[:0])
			put(buf)
		}
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

// Load reconstructs an index written by WriteTo, binding it to ts (which
// must hold the same dataset the index was built from). Version-1 streams
// are migrated to the current container format on the fly.
func Load(r io.Reader, ts *evaluate.TrajStore) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFormat, err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadIndexFormat, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != 1 && ver != persistVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadIndexFormat, ver)
	}
	// Reads keep the first error: after it get and getU return zeros, every
	// count-driven loop below stops (each tests rerr), and the error is
	// returned at the end of the section that hit it.
	var rerr error
	get := func(p []byte) {
		if rerr == nil {
			_, rerr = io.ReadFull(br, p)
		}
	}
	getU := func() (v uint64) {
		if rerr == nil {
			v, rerr = binary.ReadUvarint(br)
		}
		return v
	}

	var vals [6]uint64
	for i := range vals {
		vals[i] = getU()
	}
	cfg := Config{
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
	if rerr != nil {
		return nil, rerr
	}
	g, err := grid.New(geo.Point{X: geom[0], Y: geom[1]}, geom[2], cfg.Depth)
	if err != nil {
		return nil, err
	}
	// HICLCacheEntries is a runtime knob, not part of the serialized
	// geometry; withDefaults re-derives it (all persisted fields are
	// already post-default values, so they pass through unchanged).
	cfg = cfg.withDefaults()
	idx := &Index{
		cfg:       cfg,
		ts:        ts,
		g:         g,
		hiclDir:   make(map[hiclKey]storage.SegRef),
		hiclStore: storage.NewMemStore(cfg.PoolPages),
		hicl:      newHICLCache(cfg.HICLCacheEntries),
	}

	// readPostings mirrors invindex.AppendEncoded: uvarint count, first
	// element, then gaps — decoded straight off the reader onto dst.
	readPostings := func(dst []uint32) []uint32 {
		count := getU()
		prev := uint64(0)
		for i := uint64(0); i < count && rerr == nil; i++ {
			prev += getU() // the first "gap" is the first element itself
			dst = append(dst, uint32(prev))
		}
		return dst
	}
	var blob []byte
	readSet := func() *invindex.Set {
		if ver == 1 {
			// Migrate: the v1 stream holds a flat list.
			return invindex.SetFromSorted(readPostings(nil))
		}
		n := getU()
		if rerr == nil && n > 1<<30 {
			rerr = fmt.Errorf("%w: set blob of %d bytes", ErrBadIndexFormat, n)
		}
		if rerr != nil {
			return nil
		}
		blob = slices.Grow(blob[:0], int(n))[:n]
		if get(blob); rerr != nil {
			return nil
		}
		set, used, err := invindex.DecodeSet(blob)
		if err == nil && used != len(blob) {
			err = fmt.Errorf("%w: set blob has %d trailing bytes", ErrBadIndexFormat, len(blob)-used)
		}
		rerr = err
		return set
	}

	nLevels := getU()
	if nLevels > uint64(cfg.Depth)+1 {
		return nil, fmt.Errorf("%w: %d in-memory HICL levels at depth %d", ErrBadIndexFormat, nLevels, cfg.Depth)
	}
	idx.hiclMem = make([]map[trajectory.ActivityID]*invindex.Set, nLevels)
	for l := range idx.hiclMem {
		nActs := getU()
		if rerr != nil {
			return nil, rerr
		}
		if l == 0 && nActs == 0 {
			continue // level 0 is the unused slot
		}
		m := make(map[trajectory.ActivityID]*invindex.Set, nActs)
		for i := uint64(0); i < nActs && rerr == nil; i++ {
			a := trajectory.ActivityID(getU())
			m[a] = readSet()
		}
		idx.hiclMem[l] = m
	}

	// ITL: WriteTo emits cells and each cell's activities ascending — the
	// arena's own layout, so lists append straight into it; no other order loads.
	itl := &idx.itl
	nCells := getU()
	for i := uint64(0); i < nCells && rerr == nil; i++ {
		z, nActs := uint32(getU()), getU()
		if rerr == nil && i > 0 && z <= itl.cells[i-1] {
			return nil, fmt.Errorf("%w: ITL cell %d out of order", ErrBadIndexFormat, z)
		}
		itl.startCell(z)
		for j := uint64(0); j < nActs && rerr == nil; j++ {
			a := trajectory.ActivityID(getU())
			if rerr == nil && j > 0 && a <= itl.acts[len(itl.acts)-1] {
				return nil, fmt.Errorf("%w: ITL activity %d of cell %d out of order", ErrBadIndexFormat, a, z)
			}
			itl.startList(a)
			itl.posts = readPostings(itl.posts)
		}
	}
	itl.seal()

	nDir := getU()
	for i := uint64(0); i < nDir && rerr == nil; i++ {
		k := hiclKey{level: uint8(getU()), act: trajectory.ActivityID(getU())}
		idx.hiclDir[k] = storage.SegRef{Page: uint32(getU()), Off: uint32(getU()), Len: uint32(getU())}
	}
	nPages := getU()
	if rerr != nil {
		return nil, rerr
	}
	loaded := idx.hiclStore
	if ver == 1 {
		// The v1 pages hold flat-list segments; load them into a scratch
		// store and re-encode below.
		loaded = storage.NewMemStore(1)
	}
	page := make([]byte, storage.PageSize)
	for p := uint64(0); p < nPages; p++ {
		if get(page); rerr != nil {
			return nil, fmt.Errorf("gat: load page %d: %w", p, rerr)
		}
		if _, err := loaded.Append(page); err != nil {
			return nil, err
		}
	}
	if err := loaded.Seal(); err != nil {
		return nil, err
	}
	if ver == 1 {
		if err := idx.migrateDiskLists(loaded); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// migrateDiskLists rewrites a version-1 disk store (flat posting lists at
// the directory's segment refs) into the current hybrid-container encoding,
// replacing the index's directory refs in place.
func (idx *Index) migrateDiskLists(old *storage.Store) error {
	var buf []byte
	for _, k := range sortedHiclKeys(idx.hiclDir) {
		blob, err := old.Read(idx.hiclDir[k])
		if err != nil {
			return fmt.Errorf("gat: migrate HICL list (level %d, act %d): %w", k.level, k.act, err)
		}
		list, _, err := invindex.DecodePostings(blob)
		if err != nil {
			return fmt.Errorf("gat: migrate HICL list (level %d, act %d): %w", k.level, k.act, err)
		}
		buf = invindex.SetFromSorted(list).AppendEncoded(buf[:0])
		ref, err := idx.hiclStore.Append(buf)
		if err != nil {
			return err
		}
		idx.hiclDir[k] = ref
	}
	return idx.hiclStore.Seal()
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
