package matcher

import (
	"math"
	"math/rand"
	"testing"
)

// fillOrderRowPerPosition is the per-position form of fillOrderRow: for
// every trajectory position j it finds the relevant points at or before j
// and re-descends through them with a fresh cover table. It is the
// reference the once-per-relevant-point form is held to, bit for bit.
func (m *Matcher) fillOrderRowPerPosition(n int, row *QueryRow, prev, cur []float64) {
	if row.NumActs == 0 {
		copy(cur, prev)
		return
	}
	rel := row.Idx
	for j := 0; j < n; j++ {
		hi := upperBound(rel, int32(j))
		if hi == 0 {
			continue
		}
		t := m.newSubsetTable(row.NumActs)
		best := Inf
		for r := hi - 1; r >= 0; r-- {
			k := rel[r]
			if prev[k] == Inf {
				break
			}
			t.AddPoint(row.Mask[r], row.Dist[r])
			if d := t.Best(); d < Inf {
				if v := prev[k] + d; v < best {
					best = v
				}
			}
		}
		cur[j] = best
	}
}

// TestFillOrderRowMatchesPerPosition: on random rows and random previous
// DP rows (with the +Inf prefixes Lemma 4 produces, and vacuous rows), the
// row filled once per relevant point equals the per-position row in every
// float64 bit, and MinOrderMatch built on it equals the literal Algorithm 4.
func TestFillOrderRowMatchesPerPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var m Matcher
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(40)
		row := randomRows(rng, 1, n)[0]
		if rng.Intn(20) == 0 {
			row = QueryRow{}
		}
		prev := make([]float64, n)
		infUpTo := rng.Intn(n + 1)
		if rng.Intn(2) == 0 {
			infUpTo = 0
		}
		for j := range prev {
			prev[j] = Inf
			if j >= infUpTo {
				prev[j] = float64(rng.Intn(30)) + rng.Float64()
			}
		}
		got, want := make([]float64, n), make([]float64, n)
		for j := range got {
			got[j], want[j] = Inf, Inf
		}
		m.fillOrderRow(n, &row, prev, got)
		m.fillOrderRowPerPosition(n, &row, prev, want)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: G(·,%d) = %v, per position %v (row %+v, prev %v)", trial, j, got[j], want[j], row, prev)
			}
		}
	}
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(12)
		rows := randomRows(rng, 1+rng.Intn(3), n)
		got := m.MinOrderMatch(n, cloneRows(rows), Inf)
		want := m.MinOrderMatchNaive(n, cloneRows(rows), Inf)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Dmom %v, literal Algorithm 4 %v", trial, got, want)
		}
	}
}
