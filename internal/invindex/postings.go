// Package invindex provides the posting containers shared by every index
// structure in the repository:
//
//   - PostingList, a flat sorted []uint32 with merge/gallop set operations
//     and a delta+varint wire codec — the iteration-friendly form used by
//     ITL trajectory lists and APL point lists;
//   - Set, a hybrid (roaring-style) container — per 64Ki-ID range either a
//     sorted uint16 array or a packed bitmap — used by the delta layer's
//     HICL and presence sets and the IL baseline, where dense
//     probes, sibling masks and container-skipping intersections dominate.
//
// The container threshold is 4096 entries per 64Ki range (the break-even
// point between 2-byte array entries and the fixed 8 KiB bitmap).
package invindex

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// PostingList is a strictly increasing list of 32-bit IDs (cell codes,
// trajectory IDs or point indexes depending on context).
type PostingList []uint32

// FromUnsorted builds a normalized posting list from arbitrary input.
func FromUnsorted(ids []uint32) PostingList {
	out := make(PostingList, len(ids))
	copy(out, ids)
	slices.Sort(out)
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// Contains reports whether id is present.
func (p PostingList) Contains(id uint32) bool {
	i := sort.Search(len(p), func(i int) bool { return p[i] >= id })
	return i < len(p) && p[i] == id
}

// Append adds id, which must be >= every existing element; duplicates are
// ignored. It returns the updated list (append semantics).
func (p PostingList) Append(id uint32) PostingList {
	if n := len(p); n > 0 {
		if p[n-1] == id {
			return p
		}
		if p[n-1] > id {
			panic(fmt.Sprintf("invindex: out-of-order append %d after %d", id, p[n-1]))
		}
	}
	return append(p, id)
}

// Insert adds id at its sorted position, ignoring duplicates, and returns
// the updated list (append semantics). Unlike Append it accepts IDs in any
// order — the mutable delta-index lists use it, since re-registration after
// a generation swap visits trajectories in arbitrary map order. The common
// in-order case stays O(1).
func (p PostingList) Insert(id uint32) PostingList {
	n := len(p)
	if n == 0 || p[n-1] < id {
		return append(p, id)
	}
	i := sort.Search(n, func(i int) bool { return p[i] >= id })
	if i < n && p[i] == id {
		return p
	}
	p = append(p, 0)
	copy(p[i+1:], p[i:])
	p[i] = id
	return p
}

// gallopRatio is the size disparity past which intersections gallop
// (exponential search in the larger list) instead of merging linearly.
const gallopRatio = 16

// Intersect returns the elements common to p and q. When one list is much
// shorter than the other it gallops through the larger list — O(m log(n/m))
// instead of O(n+m) — which is the common HICL shape: a query activity's
// list against a handful of sibling cells.
func (p PostingList) Intersect(q PostingList) PostingList {
	if len(p) > len(q) {
		p, q = q, p
	}
	if len(p) == 0 {
		return nil
	}
	var out PostingList
	if len(q) >= gallopRatio*len(p) {
		for _, v := range p {
			i := gallopSearch([]uint32(q), v)
			if i < len(q) && q[i] == v {
				out = append(out, v)
			}
			q = q[i:]
		}
		return out
	}
	i, j := 0, 0
	for i < len(p) && j < len(q) {
		switch {
		case p[i] < q[j]:
			i++
		case p[i] > q[j]:
			j++
		default:
			out = append(out, p[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// gallopSearch returns the first index i with q[i] >= v, probing at
// exponentially growing strides before binary-searching the final gallop
// window — O(log d) where d is the answer's offset, instead of O(log n).
// Shared by the flat-list and container (uint16) intersection paths.
func gallopSearch[T cmp.Ordered](q []T, v T) int {
	bound := 1
	for bound < len(q) && q[bound] < v {
		bound <<= 1
	}
	lo := bound >> 1
	hi := min(bound+1, len(q))
	i, _ := slices.BinarySearch(q[lo:hi], v)
	return lo + i
}

// Union returns the elements present in either list.
func (p PostingList) Union(q PostingList) PostingList {
	out := make(PostingList, 0, len(p)+len(q))
	i, j := 0, 0
	for i < len(p) && j < len(q) {
		switch {
		case p[i] < q[j]:
			out = append(out, p[i])
			i++
		case p[i] > q[j]:
			out = append(out, q[j])
			j++
		default:
			out = append(out, p[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, p[i:]...)
	out = append(out, q[j:]...)
	return out
}

// IntersectMany intersects all lists, shortest first for efficiency.
// It returns nil when lists is empty.
func IntersectMany(lists []PostingList) PostingList {
	if len(lists) == 0 {
		return nil
	}
	ordered := make([]PostingList, len(lists))
	copy(ordered, lists)
	slices.SortStableFunc(ordered, func(a, b PostingList) int { return len(a) - len(b) })
	out := ordered[0]
	for _, l := range ordered[1:] {
		if len(out) == 0 {
			return out
		}
		out = out.Intersect(l)
	}
	return out
}

// UnionMany unions all lists.
func UnionMany(lists []PostingList) PostingList {
	var out PostingList
	for _, l := range lists {
		out = out.Union(l)
	}
	return out
}

// MemBytes approximates the heap footprint of the list (4 bytes per entry;
// length rather than capacity, so the measure is deterministic across
// build paths).
func (p PostingList) MemBytes() int64 { return int64(len(p)) * 4 }

// AppendEncoded appends the delta+varint encoding of p to dst and returns
// the extended buffer. Layout: uvarint count, then uvarint first element and
// uvarint gaps.
func (p PostingList) AppendEncoded(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	prev := uint32(0)
	for i, v := range p {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(v))
		} else {
			dst = binary.AppendUvarint(dst, uint64(v-prev))
		}
		prev = v
	}
	return dst
}

// DecodePostings decodes one posting list from buf, returning the list and
// the number of bytes consumed. Input that is not the encoding of a strictly
// increasing 32-bit list is an error: a count the buffer cannot hold (which
// also bounds the allocation), a zero gap, an element past 2^32-1.
func DecodePostings(buf []byte) (PostingList, int, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("invindex: truncated posting count")
	}
	off := used
	if n > uint64(len(buf)-off) { // every posting takes at least a byte
		return nil, 0, fmt.Errorf("invindex: %d postings in %d bytes", n, len(buf)-off)
	}
	out := make(PostingList, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, used := binary.Uvarint(buf[off:])
		if used <= 0 {
			return nil, 0, fmt.Errorf("invindex: truncated posting %d/%d", i, n)
		}
		off += used
		if i > 0 && d == 0 {
			return nil, 0, fmt.Errorf("invindex: posting %d/%d repeats its predecessor", i, n)
		}
		if d > math.MaxUint32 || prev+d > math.MaxUint32 {
			return nil, 0, fmt.Errorf("invindex: posting %d/%d overflows 32 bits", i, n)
		}
		prev += d // the first delta is the first element itself
		out = append(out, uint32(prev))
	}
	return out, off, nil
}
