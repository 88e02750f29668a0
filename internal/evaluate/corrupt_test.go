package evaluate

import (
	"strings"
	"testing"

	"activitytraj/internal/matcher"
	"activitytraj/internal/query"
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
	cases := map[string][]byte{
		"empty":          {},
		"bad header":     {0x80},
		"missing act":    {0x02},
		"missing counts": {0x01, 0x05},
	}
	for name, blob := range cases {
		if _, err := decodeAPL(blob); err == nil {
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
	apl, err := decodeAPL(blob)
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
