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
)

// Index persistence: a built GAT index can be written to a stream and
// reloaded against the same trajectory store, so production deployments
// pay the build cost once. Version 3 stores the configuration, the grid
// geometry and the ITL; the HICL is the ITL read by level, so there is
// nothing else to store. Version 2 also carried the HICL (its in-memory
// levels, a disk directory and the disk store's pages) and two fields it
// sized; Load rejects it by version, as it does every other. The ITL
// section is leaf-major — per occupied leaf its activities, per activity
// its list — as the arena once was: the arena turned activity-major in
// memory only, so WriteTo orders its entries by leaf and Load sorts them
// back.
//
// A stream is input from outside: Load checks every value against the grid
// and the store the index is bound to, sizes no allocation from a count
// before the bytes behind it arrive, and accepts only the encoding WriteTo
// would have chosen, so what loads re-serializes to the bytes it came from.
const (
	persistMagic   = "GATX"
	persistVersion = 3
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
	flags := uint64(0) // bit 0 was the retired sketch ablation; Load rejects it
	if cfg.LooseLowerBound {
		flags |= 2
	}
	putU(uint64(cfg.Depth), uint64(cfg.Lambda), uint64(cfg.NearCells), flags)
	region := idx.g.Region()
	for _, f := range []float64{region.MinX, region.MinY, idx.g.Side()} {
		put(binary.LittleEndian.AppendUint64(scratch[:0], math.Float64bits(f)))
	}

	var buf []byte
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
	var vals [4]uint64
	for i := range vals {
		vals[i] = getU()
	}
	flags := vals[3]
	written := Config{
		Depth:           int(vals[0]),
		Lambda:          int(vals[1]),
		NearCells:       int(vals[2]),
		LooseLowerBound: flags&2 != 0,
	}
	var geom [3]float64 // origin X, origin Y, side
	for i := range geom {
		var b [8]byte
		get(b[:])
		geom[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	// The persisted fields are post-default values: withDefaults must
	// change none of them.
	cfg := written.withDefaults()
	if flags&1 != 0 {
		bad("flags %d: bit 0, the retired TAS-ablation flag, is no longer accepted", flags)
	}
	if written != cfg || flags&^2 != 0 || cfg.validate() != nil {
		bad("configuration %v", vals)
	}
	if rerr != nil {
		return nil, rerr
	}
	g, err := grid.New(geo.Point{X: geom[0], Y: geom[1]}, geom[2], cfg.Depth)
	if err != nil {
		return nil, err
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
	if rerr != nil {
		return nil, fmt.Errorf("gat: load index: %w", rerr)
	}
	return &Index{cfg: cfg, ts: ts, g: g, itl: layoutITL(triples)}, nil
}
