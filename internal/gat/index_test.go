package gat

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"activitytraj/internal/trajectory"
)

// layoutITLOracle is the comparator-sort layout: sort by (actCell, traj),
// drop repeats, lay the runs out by appending. It needs no input order.
func layoutITLOracle(triples []itlTriple) itlArena {
	triples = slices.Clone(triples)
	slices.SortFunc(triples, func(a, b itlTriple) int {
		if c := cmp.Compare(a.actCell, b.actCell); c != 0 {
			return c
		}
		return cmp.Compare(a.traj, b.traj)
	})
	var t itlArena
	for i, tp := range triples {
		if i > 0 && tp == triples[i-1] {
			continue
		}
		a, z := trajectory.ActivityID(tp.actCell>>32), uint32(tp.actCell)
		newAct := len(t.acts) == 0 || t.acts[len(t.acts)-1] != a
		if newAct {
			t.acts, t.actOff = append(t.acts, a), append(t.actOff, uint32(len(t.entZ)))
		}
		if newAct || t.entZ[len(t.entZ)-1] != z {
			t.entZ, t.postOff = append(t.entZ, z), append(t.postOff, uint32(len(t.posts)))
		}
		t.posts = append(t.posts, tp.traj)
	}
	t.actOff, t.postOff = append(t.actOff, uint32(len(t.entZ))), append(t.postOff, uint32(len(t.posts)))
	return t
}

// inEmitterOrder puts triples in the order one of layoutITL's two emitters
// hands them over: buildITL's dataset order (trajectory-major; within a
// trajectory any order, repeats kept) or Load's leaf-major order (Z, then
// activity, then trajectory, every list strictly ascending, so no repeats).
func inEmitterOrder(triples []itlTriple, leafMajor bool) []itlTriple {
	if !leafMajor {
		slices.SortStableFunc(triples, func(a, b itlTriple) int { return cmp.Compare(a.traj, b.traj) })
		return triples
	}
	slices.SortFunc(triples, func(a, b itlTriple) int {
		return cmp.Or(cmp.Compare(uint32(a.actCell), uint32(b.actCell)),
			cmp.Compare(a.actCell>>32, b.actCell>>32), cmp.Compare(a.traj, b.traj))
	})
	return slices.Compact(triples)
}

// checkLayout holds layoutITL to the oracle, column for column, and each
// column to an exact size.
func checkLayout(t *testing.T, triples []itlTriple) {
	t.Helper()
	want := layoutITLOracle(triples)
	got := layoutITL(slices.Clone(triples))
	cols := []struct {
		name      string
		got, want []uint32
	}{
		{"actOff", got.actOff, want.actOff},
		{"entZ", got.entZ, want.entZ},
		{"postOff", got.postOff, want.postOff},
		{"posts", got.posts, want.posts},
	}
	if !slices.Equal(got.acts, want.acts) || len(got.acts) != cap(got.acts) {
		t.Fatalf("acts: got %v (cap %d), want %v; input %v", got.acts, cap(got.acts), want.acts, triples)
	}
	for _, c := range cols {
		if !slices.Equal(c.got, c.want) || len(c.got) != cap(c.got) {
			t.Fatalf("%s: got %v (cap %d), want %v; input %v", c.name, c.got, cap(c.got), c.want, triples)
		}
	}
}

// randomTriples draws n incidences with activities below 2^actBits, leaf Z
// codes below 2^zBits and few trajectories, so repeated (activity, leaf)
// keys and repeated whole triples are common. Half the time the keys come
// from a small pool, so long runs share a key.
func randomTriples(rng *rand.Rand, n, actBits, zBits int) []itlTriple {
	key := func() uint64 {
		a := rng.Uint64() & (1<<actBits - 1)
		z := rng.Uint64() & (1<<zBits - 1)
		return a<<32 | z
	}
	var pool []uint64
	if rng.Intn(2) == 0 {
		pool = make([]uint64, 1+rng.Intn(16))
		for i := range pool {
			pool[i] = key()
		}
	}
	nTrajs := 1 + rng.Intn(40)
	out := make([]itlTriple, n)
	for i := range out {
		k := key()
		if pool != nil {
			k = pool[rng.Intn(len(pool))]
		}
		out[i] = itlTriple{actCell: k, traj: uint32(rng.Intn(nTrajs))}
	}
	return out
}

// TestLayoutITLVsComparator holds the radix layout to the comparator sort on
// random inputs in both emitters' orders: duplicates, 0–32 Z bits and
// activities up to 2^20. A pass that is not stable, or one that skips a byte
// on which the keys differ, fails it.
func TestLayoutITLVsComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	checkLayout(t, nil)
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(600)
		triples := randomTriples(rng, n, rng.Intn(21), rng.Intn(33))
		checkLayout(t, inEmitterOrder(triples, trial%2 == 1))
	}
	// Keys that differ in one bit only: every byte the sort must not skip
	// is, in turn, one where a single bit varies. (Leaf-major input is
	// already in key order when one bit varies, so dataset order is the
	// one that catches a skipped byte here.)
	for bit := 0; bit < 52; bit++ {
		base := randomTriples(rng, 1, 20, 32)[0].actCell
		triples := randomTriples(rng, 50, 0, 0)
		for i := range triples {
			triples[i].actCell = base ^ uint64(rng.Intn(2))<<bit
		}
		checkLayout(t, inEmitterOrder(slices.Clone(triples), true))
		checkLayout(t, inEmitterOrder(triples, false))
	}
	// The extremes: every Z and activity bit set, and every key equal.
	full := []itlTriple{{1<<52 - 1, 3}, {1<<52 - 1, 3}, {1<<52 - 1, 7}, {0, 1}, {1 << 32, 0}, {1<<32 - 1, 2}}
	checkLayout(t, inEmitterOrder(full, false))
	same := make([]itlTriple, 300)
	for i := range same {
		same[i] = itlTriple{actCell: 5<<32 | 9, traj: uint32(i / 3)}
	}
	checkLayout(t, same)
}

// FuzzLayoutITL reads 9-byte incidences — a 20-bit activity, a Z code
// masked to zBits bits, an 8-bit trajectory — puts them in an emitter's
// order and holds the radix layout to the comparator sort.
func FuzzLayoutITL(f *testing.F) {
	f.Add([]byte{}, uint8(16), false)
	f.Add(make([]byte, 9*4), uint8(0), true)
	seed := make([]byte, 0, 9*64)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 64; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, rng.Uint64()&0x0f0f_0000_00ff_ff0f)
		seed = append(seed, byte(rng.Intn(5)))
	}
	f.Add(seed, uint8(32), false)
	f.Add(seed, uint8(12), true)
	f.Fuzz(func(t *testing.T, data []byte, zBits uint8, leafMajor bool) {
		zMask := uint64(1)<<min(zBits, 32) - 1
		var triples []itlTriple
		for ; len(data) >= 9; data = data[9:] {
			a := uint64(binary.LittleEndian.Uint32(data)) & (1<<20 - 1)
			z := uint64(binary.LittleEndian.Uint32(data[4:])) & zMask
			triples = append(triples, itlTriple{actCell: a<<32 | z, traj: uint32(data[8])})
		}
		checkLayout(t, inEmitterOrder(triples, leafMajor))
	})
}
