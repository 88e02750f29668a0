package invindex

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The Set container is correct exactly when it is indistinguishable from
// the naive PostingList under every operation. These tests pit the two
// against each other over random and adversarial dense/sparse inputs.

func randomIDs(rng *rand.Rand, n int, span uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32() % span
	}
	return out
}

// denseRun returns an adversarial dense input: a contiguous run with a few
// holes, which forces bitmap containers.
func denseRun(start uint32, n int, holeEvery int) []uint32 {
	out := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		if holeEvery > 0 && i%holeEvery == 0 {
			continue
		}
		out = append(out, start+uint32(i))
	}
	return out
}

func checkEquivalent(t *testing.T, name string, ids []uint32) {
	t.Helper()
	ref := FromUnsorted(ids)
	set := SetFromUnsorted(ids)
	if set.Len() != len(ref) {
		t.Fatalf("%s: Len %d != %d", name, set.Len(), len(ref))
	}
	if got := set.Elements(); !equalU32(got, ref) {
		t.Fatalf("%s: Elements mismatch (%d vs %d entries)", name, len(got), len(ref))
	}
	// Contains over members and near-misses.
	for _, id := range ref {
		if !set.Contains(id) {
			t.Fatalf("%s: Contains(%d) = false for member", name, id)
		}
	}
	probes := []uint32{0, 1, 1 << 16, 1<<16 - 1, ^uint32(0)}
	if len(ref) > 0 {
		probes = append(probes, ref[0]-1, ref[len(ref)-1]+1)
	}
	for _, id := range probes {
		if set.Contains(id) != ref.Contains(id) {
			t.Fatalf("%s: Contains(%d) disagrees", name, id)
		}
	}
	// Mask4 over aligned bases spanning the set.
	for _, id := range probes {
		base := id &^ 3
		var want uint32
		for b := uint32(0); b < 4; b++ {
			if ref.Contains(base + b) {
				want |= 1 << b
			}
		}
		if got := set.Mask4(base); got != want {
			t.Fatalf("%s: Mask4(%d) = %04b, want %04b", name, base, got, want)
		}
	}
	for _, id := range ref {
		base := id &^ 3
		var want uint32
		for b := uint32(0); b < 4; b++ {
			if ref.Contains(base + b) {
				want |= 1 << b
			}
		}
		if got := set.Mask4(base); got != want {
			t.Fatalf("%s: Mask4(%d) = %04b, want %04b", name, base, got, want)
		}
	}
	// A Next walk from 0 visits every element; from the probes, the tail.
	checkNextWalk(t, set, ref, 0, len(ref)+1)
	for _, id := range probes {
		checkNextWalk(t, set, ref, id, 3)
	}
	// Codec round trip.
	enc := set.AppendEncoded(nil)
	dec, used, err := DecodeSet(enc)
	if err != nil {
		t.Fatalf("%s: DecodeSet: %v", name, err)
	}
	if used != len(enc) {
		t.Fatalf("%s: DecodeSet consumed %d of %d bytes", name, used, len(enc))
	}
	if !equalU32(dec.Elements(), ref) {
		t.Fatalf("%s: codec round trip lost elements", name)
	}
}

// checkNextWalk walks set by Next from `from` for up to steps elements and
// requires each step to land on the reference list's successor.
func checkNextWalk(t *testing.T, set *Set, ref PostingList, from uint32, steps int) {
	t.Helper()
	k, _ := slices.BinarySearch(ref, from)
	for ; steps > 0; steps, k = steps-1, k+1 {
		got, ok := set.Next(from)
		if ok != (k < len(ref)) || ok && got != ref[k] {
			t.Fatalf("Next(%d) = %d, %v; reference successor index %d of %d", from, got, ok, k, len(ref))
		}
		if !ok || got == math.MaxUint32 {
			return
		}
		from = got + 1
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSetEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := map[string][]uint32{
		"empty":            {},
		"single":           {7},
		"sparse":           randomIDs(rng, 200, 1<<30),
		"one-container":    randomIDs(rng, 500, 1<<14),
		"dense-bitmap":     denseRun(100, 20000, 7),
		"dense-aligned":    denseRun(0, 70000, 0),
		"cross-key":        denseRun(1<<16-100, 200, 3),
		"threshold-minus":  denseRun(0, setArrayMax-1, 0),
		"threshold-exact":  denseRun(0, setArrayMax, 0),
		"threshold-plus":   denseRun(0, setArrayMax+1, 0),
		"high-keys":        randomIDs(rng, 300, ^uint32(0)),
		"max-value":        {^uint32(0), ^uint32(0) - 1, 0},
		"duplicates-heavy": append(randomIDs(rng, 100, 50), randomIDs(rng, 100, 50)...),
	}
	for name, ids := range cases {
		checkEquivalent(t, name, ids)
	}
}

func TestSetInsertEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ref PostingList
	set := NewSet()
	// Mixed ascending / random inserts, crossing the bitmap threshold.
	for i := 0; i < 10000; i++ {
		var id uint32
		if i%3 == 0 {
			id = rng.Uint32() % (1 << 18)
		} else {
			id = uint32(i * 2)
		}
		wantNew := !ref.Contains(id)
		ref = ref.Insert(id)
		if got := set.Insert(id); got != wantNew {
			t.Fatalf("Insert(%d) reported new=%v, want %v", id, got, wantNew)
		}
	}
	if !equalU32(set.Elements(), ref) {
		t.Fatalf("after inserts: %d elements vs %d", set.Len(), len(ref))
	}
}

func TestSetAndOrEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := [][]uint32{
		{},
		randomIDs(rng, 300, 1<<12),
		randomIDs(rng, 300, 1<<28),
		denseRun(50, 9000, 5),
		denseRun(1<<20, 70000, 0),
	}
	for i, aIDs := range shapes {
		for j, bIDs := range shapes {
			aRef, bRef := FromUnsorted(aIDs), FromUnsorted(bIDs)
			aSet, bSet := SetFromUnsorted(aIDs), SetFromUnsorted(bIDs)
			if got, want := aSet.And(bSet).Elements(), aRef.Intersect(bRef); !equalU32(got, want) {
				t.Fatalf("And(%d,%d): %d elements, want %d", i, j, len(got), len(want))
			}
			if got, want := aSet.Or(bSet).Elements(), aRef.Union(bRef); !equalU32(got, want) {
				t.Fatalf("Or(%d,%d): %d elements, want %d", i, j, len(got), len(want))
			}
		}
	}
}

func TestIntersectSetsMatchesIntersectMany(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(4)
		lists := make([]PostingList, k)
		sets := make([]*Set, k)
		for i := range lists {
			var ids []uint32
			if rng.Intn(2) == 0 {
				ids = denseRun(uint32(rng.Intn(1000)), 5000+rng.Intn(5000), rng.Intn(4))
			} else {
				ids = randomIDs(rng, 500, 1<<13)
			}
			lists[i] = FromUnsorted(ids)
			sets[i] = SetFromSorted(lists[i])
		}
		want := IntersectMany(lists)
		got := IntersectSets(sets)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !equalU32(got, want) {
			t.Fatalf("trial %d: IntersectSets %d elements, want %d", trial, len(got), len(want))
		}
	}
}

func TestIntersectGallopMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := FromUnsorted(randomIDs(rng, 20, 1<<20))
	big := FromUnsorted(append(randomIDs(rng, 5000, 1<<20), small[:10]...))
	want := map[uint32]bool{}
	for _, v := range small {
		if big.Contains(v) {
			want[v] = true
		}
	}
	got := small.Intersect(big)
	if len(got) != len(want) {
		t.Fatalf("gallop intersect: %d elements, want %d", len(got), len(want))
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("gallop intersect: unexpected %d", v)
		}
	}
	// Symmetry: argument order must not matter.
	if !equalU32(got, big.Intersect(small)) {
		t.Fatal("gallop intersect not symmetric")
	}
}

func TestDecodeSetCorrupt(t *testing.T) {
	valid := SetFromSorted(PostingList{1, 2, 3, 70000}).AppendEncoded(nil)
	cases := map[string][]byte{
		"empty-truncated":  {0x80},
		"missing tag":      {0x01, 0x00},
		"bad tag":          {0x01, 0x00, 0x07, 0x01, 0x01},
		"truncated bitmap": {0x01, 0x00, 0x01, 0x05},
		"truncated array":  {0x01, 0x00, 0x00, 0x05, 0x01},
		"value overflow":   {0x01, 0x00, 0x00, 0x02, 0xFF, 0xFF, 0x07, 0xFF, 0xFF, 0x07},
		"unordered keys":   {0x02, 0x05, 0x00, 0x01, 0x01, 0x03, 0x00, 0x01, 0x01},
		"oversized key":    {0x01, 0xFF, 0xFF, 0x07, 0x00, 0x01, 0x01},
		"cut valid":        valid[:len(valid)-1],
	}
	for name, blob := range cases {
		if _, _, err := DecodeSet(blob); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if s, _, err := DecodeSet(valid); err != nil || s.Len() != 4 {
		t.Fatalf("valid stream failed: %v (%d)", err, s.Len())
	}
}

// FuzzSetVsPostingList decodes two ID lists from raw bytes and checks that
// Set and PostingList agree on every operation.
func FuzzSetVsPostingList(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, []byte{})
	f.Add(bytes.Repeat([]byte{3}, 64), bytes.Repeat([]byte{0xFF}, 32))
	// Values either side of the 2^16 container boundary, probed at it.
	f.Add([]byte{0xFE, 0xFF, 0, 0xFF, 0xFF, 0, 0, 0, 1, 2, 0, 3}, []byte{0xFF, 0xFF, 0, 0, 0, 1, 0xFF, 0xFF, 1})
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte) {
		decode := func(raw []byte) []uint32 {
			var out []uint32
			for len(raw) >= 3 {
				// 24-bit values keep inputs inside a few containers so dense
				// and cross-key shapes actually occur.
				out = append(out, uint32(raw[0])|uint32(raw[1])<<8|uint32(raw[2])<<16)
				raw = raw[3:]
			}
			return out
		}
		aIDs, bIDs := decode(aRaw), decode(bRaw)
		aRef, bRef := FromUnsorted(aIDs), FromUnsorted(bIDs)
		aSet, bSet := SetFromUnsorted(aIDs), SetFromUnsorted(bIDs)
		if !equalU32(aSet.Elements(), aRef) {
			t.Fatal("Elements mismatch")
		}
		for _, id := range bIDs {
			if aSet.Contains(id) != aRef.Contains(id) {
				t.Fatalf("Contains(%d) disagrees", id)
			}
			base := id &^ 3
			var want uint32
			for b := uint32(0); b < 4; b++ {
				if aRef.Contains(base + b) {
					want |= 1 << b
				}
			}
			if aSet.Mask4(base) != want {
				t.Fatalf("Mask4(%d) disagrees", base)
			}
		}
		// Range walks by Next, from each probe and from the edges of its
		// 64Ki container, where a walk has to hop to the next key.
		for _, id := range bIDs {
			for _, from := range []uint32{id, id + 1, id &^ 0xFFFF, id | 0xFFFF} {
				checkNextWalk(t, aSet, aRef, from, 3)
			}
		}
		if !equalU32(aSet.And(bSet).Elements(), aRef.Intersect(bRef)) {
			t.Fatal("And disagrees with Intersect")
		}
		if !equalU32(aSet.Or(bSet).Elements(), aRef.Union(bRef)) {
			t.Fatal("Or disagrees with Union")
		}
		ins := aSet.clone()
		insRef := slices_Clone(aRef)
		for _, id := range bIDs {
			ins.Insert(id)
			insRef = insRef.Insert(id)
		}
		if !equalU32(ins.Elements(), insRef) {
			t.Fatal("Insert disagrees")
		}
		enc := aSet.AppendEncoded(nil)
		dec, used, err := DecodeSet(enc)
		if err != nil || used != len(enc) || !equalU32(dec.Elements(), aRef) {
			t.Fatalf("codec round trip: %v", err)
		}
	})
}

func slices_Clone(p PostingList) PostingList {
	out := make(PostingList, len(p))
	copy(out, p)
	return out
}

// FuzzDecodeSet feeds arbitrary bytes to the Set decoder: it must reject or
// decode, never panic, and an accepted stream must re-encode to a set with
// consistent cardinality.
func FuzzDecodeSet(f *testing.F) {
	f.Add(SetFromSorted(PostingList{1, 5, 65536, 200000}).AppendEncoded(nil))
	f.Add([]byte{0x01, 0x00, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, _, err := DecodeSet(raw)
		if err != nil {
			return
		}
		if got := len(s.Elements()); got != s.Len() {
			t.Fatalf("decoded set reports Len %d but has %d elements", s.Len(), got)
		}
	})
}

var sinkList PostingList
var sinkSet *Set
var sinkBool bool

// Dense inputs: two long overlapping runs — the shape where bitmap
// containers win by an order of magnitude.
func denseBenchInputs() (PostingList, PostingList) {
	a := FromUnsorted(denseRun(0, 200000, 3))
	b := FromUnsorted(denseRun(50000, 200000, 2))
	return a, b
}

func BenchmarkIntersectDenseList(b *testing.B) {
	p, q := denseBenchInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkList = p.Intersect(q)
	}
}

func BenchmarkIntersectDenseSet(b *testing.B) {
	p, q := denseBenchInputs()
	ps, qs := SetFromSorted(p), SetFromSorted(q)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSet = ps.And(qs)
	}
}

func BenchmarkIntersectSparseList(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := FromUnsorted(randomIDs(rng, 100, 1<<24))
	q := FromUnsorted(randomIDs(rng, 100000, 1<<24))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkList = p.Intersect(q)
	}
}

func BenchmarkIntersectSparseSet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ps := SetFromUnsorted(randomIDs(rng, 100, 1<<24))
	qs := SetFromUnsorted(randomIDs(rng, 100000, 1<<24))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSet = ps.And(qs)
	}
}

func BenchmarkContainsDenseList(b *testing.B) {
	p := FromUnsorted(denseRun(0, 200000, 3))
	for i := 0; i < b.N; i++ {
		sinkBool = p.Contains(uint32(i) % 200000)
	}
}

func BenchmarkContainsDenseSet(b *testing.B) {
	s := SetFromUnsorted(denseRun(0, 200000, 3))
	for i := 0; i < b.N; i++ {
		sinkBool = s.Contains(uint32(i) % 200000)
	}
}

func TestDecodeSetRejectsDuplicateValues(t *testing.T) {
	// 1 container, key 0, array tag, count 2, value 5 then delta 0 — a
	// duplicate element that would break the strictly-ascending invariant.
	if _, _, err := DecodeSet([]byte{0x01, 0x00, 0x00, 0x02, 0x05, 0x00}); err == nil {
		t.Fatal("duplicate array value accepted")
	}
}
