package evaluate

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activitytraj/internal/matcher"
	"activitytraj/internal/query"
	"activitytraj/internal/storage"
	"activitytraj/internal/trajectory"
)

// Decoder robustness: corrupt or truncated on-disk segments must surface
// as errors, never panics or silently wrong data.

func TestDecodeCoordsCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"bad header":      {0x80}, // unterminated varint
		"truncated body":  {0x05, 1, 2, 3},
		"huge count":      {0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"half coordinate": append([]byte{0x01}, make([]byte, 7)...),
	}
	for name, blob := range cases {
		if _, err := decodeCoords(blob); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeAPLCorrupt(t *testing.T) {
	cases := map[string]struct {
		blob []byte
		acts trajectory.ActivitySet // the directory entry the header is held to
	}{
		"empty":           {},
		"bad header":      {blob: []byte{0x80}},
		"missing act":     {blob: []byte{0x02}, acts: trajectory.ActivitySet{1, 2}},
		"missing counts":  {blob: []byte{0x01, 0x05}, acts: trajectory.ActivitySet{5}},
		"wrong act count": {blob: []byte{0x01, 0x05, 0x00}, acts: trajectory.ActivitySet{5, 6}},
		"wrong act":       {blob: []byte{0x01, 0x05, 0x00}, acts: trajectory.ActivitySet{6}},
	}
	for name, c := range cases {
		if _, err := decodeAPL(c.blob, c.acts); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestRoundTripAfterCorruptionChecks: valid segments still decode after
// the negative cases above (no shared state poisoning).
func TestRoundTripAfterCorruptionChecks(t *testing.T) {
	ds := smallDataset(t)
	tr := &ds.Trajs[0]
	coords, err := decodeCoords(encodeCoords(nil, tr))
	if err != nil || len(coords) != len(tr.Pts) {
		t.Fatalf("coords round trip: %v (%d)", err, len(coords))
	}
	blob, hdrLen := encodeAPL(nil, tr)
	apl, err := decodeAPL(blob, tr.ActivityUnion())
	if err != nil {
		t.Fatalf("apl round trip: %v", err)
	}
	if int(apl.hdrLen) != hdrLen {
		t.Fatalf("header length: encode says %d, decode says %d", hdrLen, apl.hdrLen)
	}
	for _, p := range tr.Pts {
		for _, a := range p.Acts {
			if !apl.Has(a) {
				t.Fatalf("apl lost activity %d", a)
			}
		}
	}
	if !strings.Contains(ds.Name, "eval") {
		t.Fatal("unexpected fixture")
	}
}

// TestOutOfRangePostingIsAnError: a posting list naming a point the
// trajectory does not have (the point directory and the APL segment
// disagree) must fail the candidate with an error when its block is decoded
// — the row builder indexes per-point scratch by posting, so such a list
// must never reach it — and must keep failing, not be memoized.
func TestOutOfRangePostingIsAnError(t *testing.T) {
	ds := smallDataset(t)
	for _, cacheEntries := range []int{0, -1} { // default caches, disabled
		ts, err := BuildTrajStore(ds, TrajStoreConfig{APLCacheEntries: cacheEntries, CoordCacheEntries: cacheEntries})
		if err != nil {
			t.Fatal(err)
		}
		tr := &ds.Trajs[0]
		last := len(tr.Pts) - 1
		if last < 1 || len(tr.Pts[last].Acts) == 0 {
			t.Fatal("unexpected fixture")
		}
		ts.numPts[tr.ID] = uint32(last) // the directory ends one point short of the postings
		ev := NewEvaluator(ts)
		q := query.New(query.Point{Loc: tr.Pts[0].Loc, Acts: tr.Pts[last].Acts[:1]})
		for try := 0; try < 2; try++ {
			var stats query.SearchStats
			_, _, err := ev.ScoreATSQ(q, tr.ID, matcher.Inf, &stats)
			if err == nil || !strings.Contains(err.Error(), "outside trajectory") {
				t.Fatalf("cache=%d try %d: out-of-range posting scored, err = %v", cacheEntries, try, err)
			}
		}
		ts.Close()
	}
}

// TestHeaderDirectoryMismatchIsAnError: containment is decided on the
// in-memory directory and lists are addressed by directory position, so a
// stored header that lists a different activity set (one delta flipped on
// disk here) must fail the fetch — for FetchAPL and for a search that
// scores the trajectory alike — and must keep failing: the bad APL is never
// inserted into the cache, and no answer is computed from it.
func TestHeaderDirectoryMismatchIsAnError(t *testing.T) {
	ds := smallDataset(t)
	tr := &ds.Trajs[0]
	q := query.New(query.Point{Loc: tr.Pts[0].Loc, Acts: tr.Pts[0].Acts[:1]})
	for _, cacheEntries := range []int{0, -1} { // default caches, disabled
		path := filepath.Join(t.TempDir(), "trajs.db")
		ts, err := BuildTrajStore(ds, TrajStoreConfig{FilePath: path, APLCacheEntries: cacheEntries, CoordCacheEntries: cacheEntries})
		if err != nil {
			t.Fatal(err)
		}
		// The first activity delta follows the one-byte activity count; its
		// low bit flips the ID by one and keeps the varint's length.
		ref := ts.aplRefs[tr.ID]
		if n := len(ts.activities(tr.ID)); n == 0 || n >= 0x80 || ref.Off+2 > storage.PageSize {
			t.Fatal("unexpected fixture")
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		at := int64(ref.Page)*storage.PageSize + int64(ref.Off) + 1
		var b [1]byte
		if _, err := f.ReadAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1
		if _, err := f.WriteAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		ts.ResetPool()

		ev := NewEvaluator(ts)
		for try := 0; try < 2; try++ {
			if _, err := ts.FetchAPL(tr.ID); err == nil || !strings.Contains(err.Error(), "the directory says") {
				t.Fatalf("cache=%d try %d: FetchAPL accepted a header the directory contradicts, err = %v", cacheEntries, try, err)
			}
			src := scriptedSource{batches: [][]trajectory.TrajID{{tr.ID}}, bounds: []float64{0, 0}, exhaustAfter: 1}
			resp, err := ev.Search(context.Background(), query.Request{Query: q, K: 1}, &src, nil)
			if err == nil || !strings.Contains(err.Error(), "the directory says") || len(resp.Results) != 0 {
				t.Fatalf("cache=%d try %d: search answered %v from a corrupt header, err = %v", cacheEntries, try, resp.Results, err)
			}
			if ts.APLCached(tr.ID) {
				t.Fatalf("cache=%d try %d: the failed decode was cached", cacheEntries, try)
			}
		}
		ts.Close()
	}
}

// TestSkipTableSumDoesNotWrap: the skip table must be summed in 64 bits and
// each entry bounded by the segment, or block lengths of 2^32 and more are
// accepted modulo 2^32 and satisfy "header + blocks == segment" by
// wrap-around.
func TestSkipTableSumDoesNotWrap(t *testing.T) {
	header := func(acts trajectory.ActivitySet, lens ...uint64) []byte {
		blob := binary.AppendUvarint(nil, uint64(len(acts)))
		prev := trajectory.ActivityID(0)
		for _, a := range acts {
			blob = binary.AppendUvarint(blob, uint64(a-prev))
			prev = a
		}
		for _, l := range lens {
			blob = binary.AppendUvarint(blob, l)
		}
		return blob
	}
	one := trajectory.ActivitySet{5}
	three := trajectory.ActivitySet{5, 6, 7}
	for name, c := range map[string]struct {
		blob   []byte
		segLen uint32
		acts   trajectory.ActivitySet
	}{
		// 7-byte header + (2^32+3 mod 2^32) == 10.
		"one entry past 2^32": {header(one, 1<<32+3), 10, one},
		// Every entry fits the segment; only the 32-bit sum wraps:
		// 19-byte header + (0x17FFFFFFA mod 2^32) == 0x8000000D.
		"sum past 2^32": {header(three, 1<<31, 1<<31, 1<<31-6), 1<<31 + 13, three},
	} {
		if apl, err := decodeAPLHeader(c.blob, c.segLen, c.acts); err == nil {
			t.Errorf("%s: accepted, last block ends at %d of a %d-byte segment", name, apl.blockEnd(len(c.acts)-1), c.segLen)
		}
	}
	// The honest neighbour of the first case still decodes.
	if _, err := decodeAPLHeader(header(one, 3), 6, one); err != nil {
		t.Errorf("valid header rejected: %v", err)
	}
}

// FuzzDecodeAPLHeader mutates real APL segments (and the segment length the
// directory would claim for them) under their real directory entries. The
// decoder must never panic, and a header it accepts must describe blocks that
// tile the segment exactly; decoding each block over the (equally fuzzed)
// body must fail or yield strictly ascending point indexes inside the
// trajectory — what the row builder indexes its scratch with.
func FuzzDecodeAPLHeader(f *testing.F) {
	ds := smallDataset(f)
	ts, err := BuildTrajStore(ds, TrajStoreConfig{})
	if err != nil {
		f.Fatal(err)
	}
	defer ts.Close()
	for i := 0; i < len(ds.Trajs); i += 17 {
		blob, _ := encodeAPL(nil, &ds.Trajs[i])
		f.Add(uint8(i), uint32(len(blob)), blob)
	}
	f.Add(uint8(0), uint32(10), []byte{0x01, 0x05, 0x83, 0x80, 0x80, 0x80, 0x10})
	f.Fuzz(func(t *testing.T, which uint8, segLen uint32, blob []byte) {
		id := trajectory.TrajID(int(which) % len(ds.Trajs))
		acts := ts.activities(id)
		a, err := decodeAPLHeader(blob, segLen, acts)
		if err != nil {
			return
		}
		n := len(acts)
		prev := uint32(0)
		for i := 0; i < n; i++ {
			if a.blockEnd(i) < prev {
				t.Fatalf("block %d ends at %d, before its predecessor's %d", i, a.blockEnd(i), prev)
			}
			prev = a.blockEnd(i)
		}
		if uint64(a.hdrLen)+uint64(prev) != uint64(segLen) {
			t.Fatalf("header %dB + blocks %dB accepted for a segment of %dB", a.hdrLen, prev, segLen)
		}
		if int(a.hdrLen) > len(blob) {
			t.Fatalf("header of %dB decoded from %dB", a.hdrLen, len(blob))
		}
		// Set the APL up as fetchAPL does, with whatever follows the header
		// as its body (possibly short of what the skip table promises).
		a.ts, a.numPts = ts, ts.numPts[id]
		a.body = blob[a.hdrLen:]
		a.hasBody.Store(true)
		var stats query.SearchStats
		for i := 0; i < n; i++ {
			list, err := a.postingsAt(i, &stats)
			if err != nil {
				continue
			}
			for j, idx := range list {
				if idx >= a.numPts || (j > 0 && idx <= list[j-1]) {
					t.Fatalf("block %d decoded to %v for a trajectory of %d points", i, list, a.numPts)
				}
			}
		}
	})
}
