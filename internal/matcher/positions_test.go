package matcher

import (
	"fmt"
	"math/rand"
	"testing"

	"activitytraj/internal/geo"
	"activitytraj/internal/query"
	"activitytraj/internal/trajectory"
)

// positionCase decodes data into a candidate of n points, the posting
// lists of the query activities, a query and span limits:
//
//	data[0]  n = 1 + data[0]%10
//	data[1]  minSpan = data[1]%(n+3) (0 = unset; may exceed n)
//	data[2]  maxSpan = data[2]%(n+3) (0 = unset; may reach or pass n)
//	data[3]  1 + data[3]%4 query points
//	then one byte per query point, bit a of which asks for activity a
//	(0..3; none makes a point without activities), then per activity two
//	bytes whose low n bits are its postings.
//
// Only the activities some point asks for get a list, as in prepare.
func positionCase(data []byte) (n, minSpan, maxSpan int, pts []query.Point, slots []int, lists [][]uint32) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n = 1 + at(0)%10
	minSpan, maxSpan = at(1)%(n+3), at(2)%(n+3)
	pts = make([]query.Point, 1+at(3)%4)
	asked := 0
	for i := range pts {
		mask := at(4+i) & 15
		asked |= mask
		var acts []trajectory.ActivityID
		for a := 0; a < 4; a++ {
			if mask&(1<<a) != 0 {
				acts = append(acts, trajectory.ActivityID(a))
			}
		}
		pts[i].Acts = trajectory.NewActivitySet(acts...)
	}
	// slot[a] is activity a's position among the asked ones.
	var slot [4]int
	for a := 0; a < 4; a++ {
		if asked&(1<<a) == 0 {
			continue
		}
		slot[a] = len(lists)
		bitsAt := 4 + len(pts) + 2*a
		word := at(bitsAt) | at(bitsAt+1)<<8
		var l []uint32
		for p := 0; p < n; p++ {
			if word&(1<<p) != 0 {
				l = append(l, uint32(p))
			}
		}
		lists = append(lists, l)
	}
	for _, p := range pts {
		for _, a := range p.Acts {
			slots = append(slots, slot[a])
		}
	}
	return n, minSpan, maxSpan, pts, slots, lists
}

// checkPositions holds the position tests to the matcher on the rows built
// from the same lists, at an infinite threshold: OrderFeasible decides
// exactly whether Algorithm 4 (and, where it is small enough to enumerate,
// the brute-force order-sensitive match) is finite; SpanFeasible decides
// exactly whether MinMatchSpan is; and neither rejects a candidate whose
// order-sensitive span distance is finite.
func checkPositions(t *testing.T, rb *RowBuilder, m *Matcher, data []byte) {
	t.Helper()
	n, minSpan, maxSpan, pts, slots, lists := positionCase(data)
	coords := make([]geo.Point, n)
	for p := range coords {
		coords[p] = geo.Point{X: float64(p), Y: 1}
	}
	order := OrderFeasible(pts, slots, lists)
	span := rb.SpanFeasible(n, minSpan, maxSpan, lists)
	rows := rb.Build(pts, slots, lists, coords)
	entries := 0
	for _, r := range rows {
		entries += len(r.Idx)
	}
	what := func() string {
		return fmt.Sprintf("lists %v, query %v, n %d, span [%d, %d]", lists, pts, n, minSpan, maxSpan)
	}
	if want := m.MinOrderMatch(n, rows, Inf) < Inf; order != want {
		t.Fatalf("%s: OrderFeasible %v, MinOrderMatch finite %v", what(), order, want)
	}
	if entries <= 14 {
		if want := BruteMinOrderMatch(n, rows) < Inf; order != want {
			t.Fatalf("%s: OrderFeasible %v, BruteMinOrderMatch finite %v", what(), order, want)
		}
	}
	if want := m.MinMatchSpan(n, rows, minSpan, maxSpan, Inf) < Inf; span != want {
		t.Fatalf("%s: SpanFeasible %v, MinMatchSpan finite %v", what(), span, want)
	}
	if m.MinOrderMatchSpan(n, rows, minSpan, maxSpan, Inf) < Inf && !(order && span) {
		t.Fatalf("%s: OrderFeasible %v, SpanFeasible %v, but MinOrderMatchSpan is finite", what(), order, span)
	}
}

// FuzzPositionFeasibility throws random posting lists, query shapes (points
// without activities, activities shared between points, a boundary point
// shared by consecutive matches) and span limits (minSpan beyond n, maxSpan
// at or beyond n, one-point trajectories) at the position tests.
func FuzzPositionFeasibility(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 1, 0, 1, 0})                   // one point carries both activities: a shared boundary
	f.Add([]byte{4, 0, 0, 1, 2, 1, 2, 0, 8, 0})                   // activity 1 (at point 3) asked before activity 0 (at point 1)
	f.Add([]byte{5, 0, 3, 2, 3, 4, 1, 0x21, 0, 0x06, 0, 0x18, 0}) // spans of three over six points
	f.Add([]byte{3, 6, 0, 0, 1, 0x0F, 0})                         // minSpan beyond n
	f.Add([]byte{9, 0, 12, 2, 1, 0, 2, 0xFF, 0x03, 0x00, 0x02})   // a point without activities, maxSpan beyond n
	f.Add([]byte{7, 2, 2, 2, 1, 2, 1, 0x81, 0, 0x42, 0})          // A B A in two-point spans: both tests pass, no ordered span match
	f.Add([]byte{9, 0, 4, 1, 3, 3, 0x01, 0, 0x00, 0x02})          // two points asking for one pair, far apart
	f.Fuzz(func(t *testing.T, data []byte) {
		var rb RowBuilder
		var m Matcher
		checkPositions(t, &rb, &m, data)
		checkPositions(t, &rb, &m, data) // the scratch was left clean
	})
}

// TestPositionFeasibilityRandom runs the fuzz target's property over many
// random inputs on one builder and matcher, so scratch left dirty by one
// case fails a later one.
func TestPositionFeasibilityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var rb RowBuilder
	var m Matcher
	data := make([]byte, 16)
	for trial := 0; trial < 20000; trial++ {
		rng.Read(data)
		checkPositions(t, &rb, &m, data)
	}
}
