package gat

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"os"
	"testing"

	"activitytraj/internal/invindex"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/storage"
)

// TestPersistRoundTrip: a saved and reloaded index must be structurally
// identical and answer queries identically.
func TestPersistRoundTrip(t *testing.T) {
	ds, ts, idx := buildSmall(t, Config{Depth: 7, MemLevels: 4, Lambda: 16, NearCells: 5})
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := Load(&buf, ts)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.cfg != idx.cfg {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.cfg, idx.cfg)
	}
	if loaded.g.Region() != idx.g.Region() || loaded.g.Depth() != idx.g.Depth() {
		t.Fatal("grid mismatch")
	}
	if len(loaded.itl.cells) != len(idx.itl.cells) || len(loaded.hiclDir) != len(idx.hiclDir) {
		t.Fatalf("structure counts differ: itl %d/%d dir %d/%d",
			len(loaded.itl.cells), len(idx.itl.cells), len(loaded.hiclDir), len(idx.hiclDir))
	}
	bd1, bd2 := idx.Breakdown(), loaded.Breakdown()
	if bd1.HICL != bd2.HICL || bd1.ITL != bd2.ITL {
		t.Fatalf("memory breakdown differs: %+v vs %+v", bd1, bd2)
	}

	// Behavioural equality on a workload, both query types.
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 8, NumPoints: 3, ActsPerPoint: 2, DiameterKm: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := NewEngine(idx), NewEngine(loaded)
	for qi, q := range qs {
		for _, ordered := range []bool{false, true} {
			var a, b []float64
			if ordered {
				ra := mustSearch(t, e1, query.Request{Query: q, K: 5, Ordered: true}).Results
				rb := mustSearch(t, e2, query.Request{Query: q, K: 5, Ordered: true}).Results
				for _, r := range ra {
					a = append(a, r.Dist)
				}
				for _, r := range rb {
					b = append(b, r.Dist)
				}
			} else {
				ra := mustSearch(t, e1, query.Request{Query: q, K: 5}).Results
				rb := mustSearch(t, e2, query.Request{Query: q, K: 5}).Results
				for _, r := range ra {
					a = append(a, r.Dist)
				}
				for _, r := range rb {
					b = append(b, r.Dist)
				}
			}
			if len(a) != len(b) {
				t.Fatalf("q%d ordered=%v: %d vs %d results", qi, ordered, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("q%d ordered=%v: dist %v vs %v", qi, ordered, a[i], b[i])
				}
			}
		}
	}
}

// TestPersistGoldenV2 pins the version-2 stream across the change of the
// in-memory ITL from per-cell maps to the arena. testdata/parent_v2.gatx was
// written by the last commit with the map ITL (bf4f0db) for buildSmall's
// dataset; it must load, re-serialize to the same bytes, and answer a fixed
// query set exactly as a fresh build does — and exactly as that commit did:
// goldenResults is the FNV-1a over every result's (ID, distance bits),
// recorded at edc5e10 (the last commit whose descent always reached the
// leaf level) and never re-recorded; goldenCounters adds each search's
// PQPops, Candidates and Batches and was re-recorded when the descent
// became bucketed, which lowers pops and batches on purpose.
func TestPersistGoldenV2(t *testing.T) {
	const (
		goldenResults  = 0x553e7e1d8a4baa0f
		goldenCounters = 0xff3bf699b94c7581
	)
	golden, err := os.ReadFile("testdata/parent_v2.gatx")
	if err != nil {
		t.Fatal(err)
	}
	ds, ts, fresh := buildSmall(t, Config{Depth: 7, MemLevels: 4, Lambda: 16, NearCells: 5})
	loaded, err := Load(bytes.NewReader(golden), ts)
	if err != nil {
		t.Fatalf("load golden: %v", err)
	}
	var out bytes.Buffer
	if _, err := loaded.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatalf("re-serialized golden differs: %d bytes vs %d", out.Len(), len(golden))
	}

	qs, err := queries.Generate(ds, queries.Config{NumQueries: 8, NumPoints: 3, ActsPerPoint: 2, DiameterKm: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hr, hc := fnv.New64a(), fnv.New64a()
	both := io.MultiWriter(hr, hc)
	put := func(w io.Writer, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		w.Write(b[:])
	}
	eLoaded, eFresh := NewEngine(loaded), NewEngine(fresh)
	for qi, q := range qs {
		for _, ordered := range []bool{false, true} {
			req := query.Request{Query: q, K: 5, Ordered: ordered}
			got, err := eLoaded.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eFresh.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("q%d ordered=%v: %d results vs %d", qi, ordered, len(got.Results), len(want.Results))
			}
			for i, r := range got.Results {
				if r != want.Results[i] {
					t.Fatalf("q%d ordered=%v result %d: golden %+v, fresh build %+v", qi, ordered, i, r, want.Results[i])
				}
				put(both, uint64(r.ID))
				put(both, math.Float64bits(r.Dist))
			}
			gs, ws := got.Stats, want.Stats
			if gs.PQPops != ws.PQPops || gs.Candidates != ws.Candidates || gs.Batches != ws.Batches {
				t.Fatalf("q%d ordered=%v: golden expanded %+v, fresh build %+v", qi, ordered, gs, ws)
			}
			put(hc, uint64(gs.PQPops))
			put(hc, uint64(gs.Candidates))
			put(hc, uint64(gs.Batches))
		}
	}
	if got := hr.Sum64(); got != goldenResults {
		t.Errorf("results checksum %#x, recorded %#x", got, uint64(goldenResults))
	}
	if got := hc.Sum64(); got != goldenCounters {
		t.Errorf("results+expansion checksum %#x, recorded %#x", got, uint64(goldenCounters))
	}
}

// writeV1 serializes idx in the legacy version-1 format (flat delta+varint
// posting lists, in memory and on the disk pages), so the migration path in
// Load can be exercised against a stream produced exactly the way PR 2's
// WriteTo produced it.
func writeV1(t *testing.T, idx *Index) []byte {
	t.Helper()
	var out bytes.Buffer
	put := func(p []byte) { out.Write(p) }
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) { out.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	putF := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		put(b[:])
	}

	put([]byte(persistMagic))
	put([]byte{1})
	cfg := idx.cfg
	flags := uint64(0)
	if cfg.DisableTAS {
		flags |= 1
	}
	if cfg.LooseLowerBound {
		flags |= 2
	}
	for _, v := range []uint64{
		uint64(cfg.Depth), uint64(cfg.MemLevels), uint64(cfg.Lambda),
		uint64(cfg.NearCells), uint64(cfg.PoolPages), flags,
	} {
		putU(v)
	}
	region := idx.g.Region()
	for _, f := range []float64{region.MinX, region.MinY, idx.g.Side()} {
		putF(f)
	}

	var buf []byte
	putU(uint64(len(idx.hiclMem)))
	for _, level := range idx.hiclMem {
		putU(uint64(len(level)))
		for _, a := range sortedActs(level) {
			putU(uint64(a))
			buf = level[a].Elements().AppendEncoded(buf[:0])
			put(buf)
		}
	}

	putU(uint64(len(idx.itl.cells)))
	for i, z := range idx.itl.cells {
		lo, hi := int(idx.itl.cellOff[i]), int(idx.itl.cellOff[i+1])
		putU(uint64(z))
		putU(uint64(hi - lo))
		for j := lo; j < hi; j++ {
			putU(uint64(idx.itl.acts[j]))
			buf = invindex.PostingList(idx.itl.list(j)).AppendEncoded(buf[:0])
			put(buf)
		}
	}

	// Re-encode the disk lists the v1 way (flat lists) into a scratch store
	// so the dumped pages and directory refs are genuinely v1.
	v1store := storage.NewMemStore(1)
	v1dir := make(map[hiclKey]storage.SegRef, len(idx.hiclDir))
	for _, k := range sortedHiclKeys(idx.hiclDir) {
		blob, err := idx.hiclStore.Read(idx.hiclDir[k])
		if err != nil {
			t.Fatal(err)
		}
		set, _, err := invindex.DecodeSet(blob)
		if err != nil {
			t.Fatal(err)
		}
		buf = set.Elements().AppendEncoded(buf[:0])
		ref, err := v1store.Append(buf)
		if err != nil {
			t.Fatal(err)
		}
		v1dir[k] = ref
	}
	if err := v1store.Seal(); err != nil {
		t.Fatal(err)
	}
	putU(uint64(len(v1dir)))
	for _, k := range sortedHiclKeys(v1dir) {
		ref := v1dir[k]
		for _, v := range []uint64{uint64(k.level), uint64(k.act), uint64(ref.Page), uint64(ref.Off), uint64(ref.Len)} {
			putU(v)
		}
	}
	pages := v1store.Pages()
	putU(uint64(pages))
	for p := uint32(0); p < pages; p++ {
		blob, err := v1store.Read(storage.SegRef{Page: p, Off: 0, Len: storage.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		put(blob)
	}
	return out.Bytes()
}

// TestPersistV1Migration: a version-1 stream must load through the
// migration path and answer queries identically to the index it came from.
func TestPersistV1Migration(t *testing.T) {
	ds, ts, idx := buildSmall(t, Config{Depth: 7, MemLevels: 4, Lambda: 16, NearCells: 5})
	v1 := writeV1(t, idx)
	loaded, err := Load(bytes.NewReader(v1), ts)
	if err != nil {
		t.Fatalf("load v1: %v", err)
	}
	if loaded.cfg != idx.cfg {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.cfg, idx.cfg)
	}
	if len(loaded.itl.cells) != len(idx.itl.cells) || len(loaded.hiclDir) != len(idx.hiclDir) {
		t.Fatalf("structure counts differ: itl %d/%d dir %d/%d",
			len(loaded.itl.cells), len(idx.itl.cells), len(loaded.hiclDir), len(idx.hiclDir))
	}
	// Every migrated disk list must decode as a Set with the same elements.
	for _, k := range sortedHiclKeys(idx.hiclDir) {
		want, err := idx.hiclStore.Read(idx.hiclDir[k])
		if err != nil {
			t.Fatal(err)
		}
		wantSet, _, err := invindex.DecodeSet(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.hiclStore.Read(loaded.hiclDir[k])
		if err != nil {
			t.Fatal(err)
		}
		gotSet, _, err := invindex.DecodeSet(got)
		if err != nil {
			t.Fatalf("migrated list (level %d, act %d) does not decode as a set: %v", k.level, k.act, err)
		}
		w, g := wantSet.Elements(), gotSet.Elements()
		if len(w) != len(g) {
			t.Fatalf("migrated list (level %d, act %d): %d vs %d elements", k.level, k.act, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("migrated list (level %d, act %d) differs at %d", k.level, k.act, i)
			}
		}
	}

	qs, err := queries.Generate(ds, queries.Config{NumQueries: 8, NumPoints: 3, ActsPerPoint: 2, DiameterKm: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := NewEngine(idx), NewEngine(loaded)
	for qi, q := range qs {
		ra := mustSearch(t, e1, query.Request{Query: q, K: 5}).Results
		rb := mustSearch(t, e2, query.Request{Query: q, K: 5}).Results
		if len(ra) != len(rb) {
			t.Fatalf("q%d: %d vs %d results", qi, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("q%d result %d: %+v vs %+v", qi, i, ra[i], rb[i])
			}
		}
	}
}

var errDiskFull = errors.New("disk full")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

func TestLoadRejectsGarbage(t *testing.T) {
	_, ts, idx := buildSmall(t, Config{Depth: 6, MemLevels: 3})
	if _, err := Load(bytes.NewReader([]byte("bogus")), ts); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := Load(bytes.NewReader(nil), ts); err == nil {
		t.Fatal("empty stream must be rejected")
	}
	// No proper prefix of a stream loads, and none panics: the reader keeps
	// its first error and every count-driven loop must stop on it.
	var whole bytes.Buffer
	if _, err := idx.WriteTo(&whole); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < whole.Len(); cut += 1 + cut/16 {
		if _, err := Load(bytes.NewReader(whole.Bytes()[:cut]), ts); err == nil {
			t.Fatalf("stream truncated at %d of %d bytes loaded", cut, whole.Len())
		}
	}
	// WriteTo checks the writer once, at the final flush: the error of a
	// write that failed early must still come out.
	if _, err := idx.WriteTo(failingWriter{}); !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteTo on a failing writer: err = %v", err)
	}
	// The arena is searched by bisection, so a stream whose ITL cells do not
	// ascend must not load.
	idx.itl.cells[0], idx.itl.cells[1] = idx.itl.cells[1], idx.itl.cells[0]
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, ts); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("out-of-order ITL cells: err = %v, want ErrBadIndexFormat", err)
	}
}

func TestMemLevelsForBudget(t *testing.T) {
	// Σ 4^i·C·4bytes: C=1000 → level1: 16KB, +level2: 80KB, +level3: 336KB.
	cases := []struct {
		budget int64
		vocab  int
		depth  int
		want   int
	}{
		{16_000, 1000, 8, 1},
		{90_000, 1000, 8, 2},
		{400_000, 1000, 8, 3},
		{1 << 40, 1000, 6, 6}, // huge budget clamps to depth
		{0, 1000, 8, 1},       // always at least one level
	}
	for _, c := range cases {
		if got := MemLevelsForBudget(c.budget, c.vocab, c.depth); got != c.want {
			t.Errorf("MemLevelsForBudget(%d, %d, %d) = %d, want %d",
				c.budget, c.vocab, c.depth, got, c.want)
		}
	}
}
