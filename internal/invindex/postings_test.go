package invindex

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"activitytraj/internal/trajectory"
)

func TestFromUnsorted(t *testing.T) {
	p := FromUnsorted([]uint32{5, 1, 5, 3, 1})
	want := PostingList{1, 3, 5}
	if len(p) != len(want) {
		t.Fatalf("FromUnsorted = %v, want %v", p, want)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("FromUnsorted = %v, want %v", p, want)
		}
	}
}

func TestAppend(t *testing.T) {
	var p PostingList
	p = p.Append(1).Append(1).Append(4).Append(4).Append(9)
	if len(p) != 3 || p[0] != 1 || p[1] != 4 || p[2] != 9 {
		t.Fatalf("Append chain = %v", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Append must panic")
		}
	}()
	p.Append(2)
}

func plFromBytes(bs []byte) PostingList {
	ids := make([]uint32, len(bs))
	for i, b := range bs {
		ids[i] = uint32(b % 48)
	}
	return FromUnsorted(ids)
}

// TestSetOpsProperty checks Intersect/Union against map references.
func TestSetOpsProperty(t *testing.T) {
	f := func(ab, bb []byte) bool {
		a, b := plFromBytes(ab), plFromBytes(bb)
		in := a.Intersect(b)
		un := a.Union(b)
		ref := map[uint32]int{}
		for _, x := range a {
			ref[x] |= 1
		}
		for _, x := range b {
			ref[x] |= 2
		}
		wantIn, wantUn := 0, len(ref)
		for _, m := range ref {
			if m == 3 {
				wantIn++
			}
		}
		if len(in) != wantIn || len(un) != wantUn {
			return false
		}
		for _, x := range in {
			if ref[x] != 3 {
				return false
			}
		}
		for i := 1; i < len(un); i++ {
			if un[i-1] >= un[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectMany(t *testing.T) {
	lists := []PostingList{
		{1, 2, 3, 4, 5, 6},
		{2, 4, 6, 8},
		{4, 6, 10},
	}
	got := IntersectMany(lists)
	if len(got) != 2 || got[0] != 4 || got[1] != 6 {
		t.Fatalf("IntersectMany = %v", got)
	}
	if IntersectMany(nil) != nil {
		t.Fatal("empty input → nil")
	}
	if got := IntersectMany([]PostingList{{1, 2}, nil}); len(got) != 0 {
		t.Fatalf("intersect with empty = %v", got)
	}
}

// TestCodecRoundTripProperty: AppendEncoded/DecodePostings round-trips.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(bs []byte) bool {
		p := plFromBytes(bs)
		buf := p.AppendEncoded(nil)
		// Append a sentinel to verify consumed-byte accounting.
		buf = append(buf, 0xAB, 0xCD)
		got, used, err := DecodePostings(buf)
		if err != nil || used != len(buf)-2 {
			return false
		}
		if len(got) != len(p) {
			return false
		}
		for i := range p {
			if got[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := PostingList{10, 20, 30}
	buf := p.AppendEncoded(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodePostings(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
}

// TestDecodeRejectsNonLists: bytes that are no strictly increasing 32-bit
// list must fail — before the count is trusted for an allocation, and
// without wrapping into a list that looks valid.
func TestDecodeRejectsNonLists(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for name, buf := range map[string][]byte{
		"count beyond the buffer": uv(1<<40, 1, 1),
		"count one too many":      uv(3, 1, 1),
		"zero gap":                uv(3, 5, 0, 1),
		"first past 32 bits":      uv(1, 1<<32),
		"gap wraps 32 bits":       uv(2, 40, 1<<32-37), // would read back as {40, 3}
		"gap wraps 64 bits":       uv(2, 40, 1<<64-37),
	} {
		if got, _, err := DecodePostings(buf); err == nil {
			t.Errorf("%s: decoded %v", name, got)
		}
	}
	if got, used, err := DecodePostings(uv(2, 0, 1<<32-1)); err != nil || used != 7 || got[1] != 1<<32-1 {
		t.Errorf("the largest element must still decode: %v, %d, %v", got, used, err)
	}
}

func TestIndex(t *testing.T) {
	ix := NewIndex()
	ix.Add(3, 7)
	ix.Add(3, 2)
	ix.Add(3, 7)
	ix.Add(9, 1)
	ix.Freeze()
	if got := ix.Get(3).Elements(); len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("Get(3) = %v", got)
	}
	// Incremental re-freeze: additions after a Freeze land in the same sets.
	ix.Add(3, 5)
	ix.Freeze()
	if got := ix.Get(3).Elements(); len(got) != 3 || got[1] != 5 {
		t.Fatalf("Get(3) after re-freeze = %v", got)
	}
	if !ix.Has(9) || ix.Has(4) {
		t.Fatal("Has misclassified")
	}
	acts := ix.Activities()
	if len(acts) != 2 || acts[0] != trajectory.ActivityID(3) || acts[1] != trajectory.ActivityID(9) {
		t.Fatalf("Activities = %v", acts)
	}
	if ix.Len() != 2 || ix.MemBytes() <= 0 {
		t.Fatal("Len/MemBytes broken")
	}
}
