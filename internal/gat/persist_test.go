package gat

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"activitytraj/internal/queries"
	"activitytraj/internal/query"
)

// TestPersistRoundTrip: a saved and reloaded index must be structurally
// identical and answer queries identically.
func TestPersistRoundTrip(t *testing.T) {
	ds, ts, idx := buildSmall(t, Config{Depth: 7, Lambda: 16, NearCells: 5})
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
	if !reflect.DeepEqual(loaded.itl, idx.itl) {
		t.Fatalf("structure differs: itl %d/%d lists", len(loaded.itl.entZ), len(idx.itl.entZ))
	}
	bd1, bd2 := idx.Breakdown(), loaded.Breakdown()
	if bd1 != bd2 {
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

// TestPersistGoldenV2: testdata/parent_v2.gatx is a version-2 stream, which
// also carried the HICL, written by the last commit with the map ITL
// (bf4f0db) for buildSmall's dataset. Version 3 dropped the HICL sections,
// and no data directory persists an index, so there is nothing to migrate:
// the file is rejected by version, and its bytes stay as they were.
func TestPersistGoldenV2(t *testing.T) {
	golden, err := os.ReadFile("testdata/parent_v2.gatx")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := buildSmall(t, Config{Depth: 7, Lambda: 16, NearCells: 5})
	if _, err := Load(bytes.NewReader(golden), ts); !errors.Is(err, ErrBadIndexFormat) || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version-2 golden: err = %v", err)
	}
}

// TestPersistGoldenV3 pins the version-3 stream. testdata/v3.gatx was
// written by the change that made the HICL a view of the ITL, for
// buildSmall's dataset; it must load, re-serialize to the same bytes, and
// answer a fixed query set exactly as a fresh build does — and exactly as
// the version-2 golden did: goldenResults is the FNV-1a over every result's
// (ID, distance bits), recorded at edc5e10 (the last commit whose descent
// always reached the leaf level) and never re-recorded; goldenCounters adds
// each search's PQPops, Candidates and Batches and was re-recorded when the
// descent became bucketed, which lowers pops and batches on purpose, and by
// PR 23, which changed the bucket's unit (ITL lists of the popped mask, not
// occupied leaves) and so lowers them again. Reading the HICL off the arena
// moved neither.
func TestPersistGoldenV3(t *testing.T) {
	const (
		goldenResults  = 0x553e7e1d8a4baa0f
		goldenCounters = 0x5435225558fd86c1
	)
	golden, err := os.ReadFile("testdata/v3.gatx")
	if err != nil {
		t.Fatal(err)
	}
	ds, ts, fresh := buildSmall(t, Config{Depth: 7, Lambda: 16, NearCells: 5})
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

var errDiskFull = errors.New("disk full")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

func TestLoadRejectsGarbage(t *testing.T) {
	_, ts, idx := buildSmall(t, Config{Depth: 6})
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
	// Only the current version loads: version 1 never had a file, and
	// version 2 (see TestPersistGoldenV2) carried the HICL.
	for _, v := range []byte{1, 2} {
		hdr := persistMagic + string([]byte{v})
		if _, err := Load(strings.NewReader(hdr), ts); !errors.Is(err, ErrBadIndexFormat) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("version-%d header: err = %v", v, err)
		}
	}
	// Flags bit 0 was the retired TAS ablation: WriteTo never sets it, and
	// Load refuses a stream that does, naming the flag.
	retired := bytes.Clone(whole.Bytes())
	off := len(persistMagic) + 1
	for range 3 { // depth, λ, near cells
		_, n := binary.Uvarint(retired[off:])
		off += n
	}
	retired[off] |= 1
	if _, err := Load(bytes.NewReader(retired), ts); !errors.Is(err, ErrBadIndexFormat) || !strings.Contains(err.Error(), "retired TAS-ablation flag") {
		t.Fatalf("flags bit 0: err = %v", err)
	}
}

// itlCell is one leaf of a hand-written ITL section: its Z and, per list, the
// activity and the raw varints after the count (first element, then gaps).
type itlCell struct {
	z     uint64
	lists []itlList
}

type itlList struct {
	act  uint64
	gaps []uint64
}

func encodeITL(cells ...itlCell) []byte {
	out := binary.AppendUvarint(nil, uint64(len(cells)))
	for _, c := range cells {
		out = binary.AppendUvarint(binary.AppendUvarint(out, c.z), uint64(len(c.lists)))
		for _, l := range c.lists {
			out = binary.AppendUvarint(binary.AppendUvarint(out, l.act), uint64(len(l.gaps)))
			for _, g := range l.gaps {
				out = binary.AppendUvarint(out, g)
			}
		}
	}
	return out
}

// splitStream cuts idx's serialized form around its ITL section: the stream
// of the same index with an empty arena is the same bytes before and after
// it, with a zero count in between.
func splitStream(t testing.TB, idx *Index) (prefix, itl, suffix []byte) {
	t.Helper()
	var whole, hollow bytes.Buffer
	if _, err := idx.WriteTo(&whole); err != nil {
		t.Fatal(err)
	}
	saved := idx.itl
	idx.itl = itlArena{}
	_, err := idx.WriteTo(&hollow)
	idx.itl = saved
	if err != nil {
		t.Fatal(err)
	}
	w, h := whole.Bytes(), hollow.Bytes()
	p := 0
	for w[p] == h[p] {
		p++
	}
	if h[p] != 0 {
		t.Fatalf("streams part at byte %d, which is not the ITL count", p)
	}
	suffix = h[p+1:]
	return w[:p], w[p : len(w)-len(suffix)], suffix
}

// badITLSections are ITL sections Load must refuse for a depth-6 index over
// a store of 200 trajectories, each a way an index file can disagree with
// the store or grid it is loaded against — or with itself. Before the loader
// checked them the first three loaded and the first search indexed the
// searcher's seen-array (sized from the store) out of range.
var badITLSections = map[string][]byte{
	"trajectory the store lacks":  encodeITL(itlCell{5, []itlList{{1, []uint64{200}}}}),
	"running sum past the store":  encodeITL(itlCell{5, []itlList{{1, []uint64{150, 50}}}}),
	"running sum leaves uint32":   encodeITL(itlCell{5, []itlList{{1, []uint64{3, 1 << 32}}}}),
	"list not strictly ascending": encodeITL(itlCell{5, []itlList{{1, []uint64{3, 0}}}}),
	"empty list":                  encodeITL(itlCell{5, []itlList{{1, nil}}}),
	"empty cell":                  encodeITL(itlCell{5, nil}),
	"leaf outside the grid":       encodeITL(itlCell{1 << 12, []itlList{{1, []uint64{3}}}}),
	"cells out of order":          encodeITL(itlCell{9, []itlList{{1, []uint64{3}}}}, itlCell{5, []itlList{{1, []uint64{4}}}}),
	"activities out of order":     encodeITL(itlCell{5, []itlList{{4, []uint64{3}}, {4, []uint64{5}}}}),
	"activity wider than 32 bits": encodeITL(itlCell{5, []itlList{{1 << 32, []uint64{3}}}}),
	"count in a longer varint":    {0x81, 0x00, 5, 1, 1, 1, 3},
}

// TestLoadChecksITL: see badITLSections; and the hand-written section they
// are all one edit away from does load, search and re-serialize.
func TestLoadChecksITL(t *testing.T) {
	ds, ts, idx := buildSmall(t, Config{Depth: 6})
	if ts.NumTrajs() != 200 {
		t.Fatalf("store of %d trajectories", ts.NumTrajs())
	}
	prefix, _, suffix := splitStream(t, idx)
	stream := func(itl []byte) []byte { return slices.Concat(prefix, itl, suffix) }

	good := stream(encodeITL(itlCell{5, []itlList{{1, []uint64{3, 196}}, {4, []uint64{0}}}}, itlCell{1<<12 - 1, []itlList{{1, []uint64{7}}}}))
	loaded, err := Load(bytes.NewReader(good), ts)
	if err != nil {
		t.Fatalf("hand-written stream: %v", err)
	}
	if got := loaded.itl.postings(5, 1); !slices.Equal(got, []uint32{3, 199}) {
		t.Fatalf("postings(5, 1) = %v", got)
	}
	var out bytes.Buffer
	if _, err := loaded.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), good) {
		t.Fatalf("hand-written stream re-serialized differently (err %v)", err)
	}
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 3, NumPoints: 2, ActsPerPoint: 2, DiameterKm: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		mustSearch(t, NewEngine(loaded), query.Request{Query: q, K: 3})
	}

	for name, itl := range badITLSections {
		if _, err := Load(bytes.NewReader(stream(itl)), ts); !errors.Is(err, ErrBadIndexFormat) {
			t.Errorf("%s: err = %v, want ErrBadIndexFormat", name, err)
		}
	}
}

// FuzzLoadIndex mutates serialized indexes — two real ones and the
// hand-written ITL sections above — and loads them against buildSmall's
// store: Load never panics, and whatever it accepts searches without
// panicking and re-serializes to the bytes it was loaded from.
func FuzzLoadIndex(f *testing.F) {
	ds, ts, idx := buildSmall(f, Config{Depth: 6})
	other, err := Build(ts, Config{Depth: 4, Lambda: 8, NearCells: 2, LooseLowerBound: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []*Index{idx, other} {
		var buf bytes.Buffer
		if _, err := seed.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	prefix, _, suffix := splitStream(f, idx)
	for _, itl := range badITLSections {
		f.Add(slices.Concat(prefix, itl, suffix))
	}
	qs, err := queries.Generate(ds, queries.Config{NumQueries: 3, NumPoints: 2, ActsPerPoint: 2, DiameterKm: 6, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data), ts)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := loaded.WriteTo(&out); err != nil || !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted stream of %d bytes re-serialized to %d different ones (err %v)", len(data), out.Len(), err)
		}
		e := NewEngine(loaded)
		for i, q := range qs {
			mustSearch(t, e, query.Request{Query: q, K: 3, Ordered: i == 1, Subtrajectory: i == 2})
		}
	})
}
