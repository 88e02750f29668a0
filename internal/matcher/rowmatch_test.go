package matcher

import (
	"math"
	"math/rand"
	"testing"
)

// requireRowMatch holds rowPointMatch to the path it replaced — copy the
// whole range, sort it, run Algorithm 3 — bit for bit, and to brute force
// where the range is small enough to enumerate. It runs on the caller's
// Matcher, so a per-mask table left dirty by one case fails the next.
func requireRowMatch(t *testing.T, m *Matcher, nq int, dist []float64, mask []uint32) {
	t.Helper()
	pts := make([]WeightedPoint, len(dist))
	for i := range pts {
		pts[i] = WeightedPoint{Dist: dist[i], Mask: mask[i]}
	}
	got := m.rowPointMatch(nq, dist, mask)
	if len(pts) <= 12 {
		if brute := BruteMinPointMatch(nq, pts); !eqInf(got, brute) {
			t.Fatalf("nq=%d dist=%v mask=%v: per-mask %v, brute %v", nq, dist, mask, got, brute)
		}
	}
	var ref Matcher
	if want := ref.MinPointMatch(nq, pts); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("nq=%d dist=%v mask=%v: per-mask %v (%#x), full sort %v (%#x)",
			nq, dist, mask, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestRowPointMatchTable(t *testing.T) {
	third := 1.0 / 3
	wide := maxArrayActs + 1
	wideFull := uint32(1)<<uint(wide) - 1
	cases := []struct {
		name string
		nq   int
		dist []float64
		mask []uint32
	}{
		{"no activities", 0, []float64{1}, []uint32{1}},
		{"empty range", 2, nil, nil},
		{"single full cover", 2, []float64{4}, []uint32{3}},
		{"no cover", 2, []float64{1, 2}, []uint32{1, 1}},
		{"duplicate pairs", 2, []float64{third, third, 2, 2, third}, []uint32{1, 1, 2, 2, 1}},
		{"nearest of a mask comes last", 2, []float64{5, 1, 4, third}, []uint32{1, 2, 2, 1}},
		{"equal distances on different masks", 3, []float64{third, third, third, 0.7, 0.7}, []uint32{1, 2, 4, 6, 3}},
		{"full cover ties a pair", 2, []float64{0.1, 0.2, 0.1 + 0.2}, []uint32{1, 2, 3}},
		{"zero and out-of-query mask bits", 2, []float64{0.5, 1, 2, 0.25}, []uint32{0, 1 | 8, 2, 4}},
		{"zero distances", 3, []float64{0, 0, 0}, []uint32{1, 2, 4}},
		{"six activities", 6, []float64{third, 0.6, 0.9, 1.1, 1.3, 1.7, 9}, []uint32{1, 2, 4, 8, 16, 32, 63}},
		{"wider than the dense table", wide, []float64{100, 1, 2, 1}, []uint32{wideFull, 0x2AAAA & wideFull, 0x15555 & wideFull, 0x2AAAA & wideFull}},
	}
	var m Matcher
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { requireRowMatch(t, &m, c.nq, c.dist, c.mask) })
	}
}

// TestRowPointMatchRandom: rows far longer than their distinct masks, with
// distances drawn from a few inexact values so ties and duplicate
// (distance, mask) pairs are the rule, for every nq the dense table serves
// in practice.
func TestRowPointMatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var m Matcher
	for trial := 0; trial < 4000; trial++ {
		nq := 1 + rng.Intn(6)
		n := rng.Intn(40)
		levels := 1 + rng.Intn(12)
		dist := make([]float64, n)
		mask := make([]uint32, n)
		for i := range dist {
			dist[i] = float64(rng.Intn(levels)) / 7
			mask[i] = uint32(rng.Intn(1 << uint(nq)))
		}
		requireRowMatch(t, &m, nq, dist, mask)
	}
}

// TestMinMatchCoverBitsEqualMinMatch: on distances whose sums are exact
// (quarters), the cover DP — which adds a cover's points in row order, not
// distance order — returns the very float64 MinMatch does.
func TestMinMatchCoverBitsEqualMinMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var m Matcher
	for trial := 0; trial < 500; trial++ {
		nq := 1 + rng.Intn(4)
		rows := randomCoverRows(rng, nq, 1+rng.Intn(3), 2+rng.Intn(30))
		want := m.MinMatch(rows, Inf)
		if got, _ := m.MinMatchCover(rows); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: cover distance %v, MinMatch %v", trial, got, want)
		}
	}
}

// FuzzRowMatchVsFullSort feeds rowPointMatch arbitrary rows — two bytes a
// point: a distance in thirds (so sums round and ties abound) and a mask —
// and requires the bits of the full-sort path. nq cycles through 1..6 and
// one width past the dense table.
func FuzzRowMatchVsFullSort(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{3, 1, 3, 2, 3, 1, 9, 3})
	f.Add(uint8(2), []byte{1, 1, 1, 2, 1, 4, 2, 6, 2, 3, 0, 0})
	f.Add(uint8(5), []byte{7, 1, 7, 2, 7, 4, 7, 8, 7, 16, 7, 32, 40, 63, 7, 1})
	f.Add(uint8(6), []byte{200, 255, 1, 0x55, 2, 0xAA, 1, 0x55})
	f.Fuzz(func(t *testing.T, nqb uint8, data []byte) {
		nq := 1 + int(nqb)%7
		if nq == 7 {
			nq = maxArrayActs + 1
		}
		n := min(len(data)/2, 64)
		dist := make([]float64, n)
		mask := make([]uint32, n)
		for i := range dist {
			dist[i] = float64(data[2*i]) / 3
			mask[i] = uint32(data[2*i+1])
			if nq > maxArrayActs {
				mask[i] *= 0x201 // spread the byte over all 17 bits
			}
		}
		var m Matcher
		requireRowMatch(t, &m, nq, dist, mask)
		requireRowMatch(t, &m, nq, dist, mask) // the scratch was left clean
	})
}
