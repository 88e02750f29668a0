package invindex

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Set is a hybrid (roaring-style) posting container: 32-bit IDs are split
// into a high-16 "key" and a low-16 value, and each key's values live in
// either a sorted uint16 array (sparse) or a packed 8 KiB bitmap (dense).
// Compared to a flat PostingList it answers Contains/Mask4 probes in O(1)
// for dense ranges, intersects dense runs with word-wide ANDs, and skips
// whole 64Ki ranges that the other operand does not touch.
//
// Sets are the IL baseline's per-activity lists and the delta layer's
// presence sets, its HICL levels among them. A Set is mutable through Insert; every
// shared Set in this repository is frozen (no further writes) before it
// becomes visible to concurrent readers.
type Set struct {
	keys  []uint16
	conts []container
	n     int
}

// container holds the low-16 values of one key. Exactly one of vals/bits is
// non-nil: vals is a sorted uint16 array, bits a 1024-word bitmap.
type container struct {
	vals []uint16
	bits []uint64
	n    int
}

const (
	// setArrayMax is the cardinality past which an array container converts
	// to a bitmap (the break-even point: 4096 * 2 bytes == 8 KiB bitmap).
	setArrayMax = 4096
	// setBitmapWords is the fixed word count of a bitmap container.
	setBitmapWords = 1 << 16 / 64
)

func (c *container) contains(low uint16) bool {
	if c.bits != nil {
		return c.bits[low>>6]&(1<<(low&63)) != 0
	}
	_, ok := slices.BinarySearch(c.vals, low)
	return ok
}

// next returns the smallest value >= low, false when there is none.
func (c *container) next(low uint16) (uint16, bool) {
	if c.bits == nil {
		i, _ := slices.BinarySearch(c.vals, low)
		if i == len(c.vals) {
			return 0, false
		}
		return c.vals[i], true
	}
	w := int(low >> 6)
	if word := c.bits[w] >> (low & 63); word != 0 {
		return low + uint16(bits.TrailingZeros64(word)), true
	}
	for w++; w < setBitmapWords; w++ {
		if c.bits[w] != 0 {
			return uint16(w<<6 + bits.TrailingZeros64(c.bits[w])), true
		}
	}
	return 0, false
}

// insert adds low, reporting whether it was new, converting to bitmap form
// past the array threshold. The in-order append case stays O(1).
func (c *container) insert(low uint16) bool {
	if c.bits != nil {
		w, m := low>>6, uint64(1)<<(low&63)
		if c.bits[w]&m != 0 {
			return false
		}
		c.bits[w] |= m
		c.n++
		return true
	}
	if k := len(c.vals); k == 0 || c.vals[k-1] < low {
		c.vals = append(c.vals, low)
	} else {
		i, ok := slices.BinarySearch(c.vals, low)
		if ok {
			return false
		}
		c.vals = slices.Insert(c.vals, i, low)
	}
	c.n++
	if c.n > setArrayMax {
		c.toBitmap()
	}
	return true
}

func (c *container) toBitmap() {
	bm := make([]uint64, setBitmapWords)
	for _, v := range c.vals {
		bm[v>>6] |= 1 << (v & 63)
	}
	c.bits = bm
	c.vals = nil
}

// appendTo appends the container's values (offset by base) in ascending
// order.
func (c *container) appendTo(dst []uint32, base uint32) []uint32 {
	if c.bits != nil {
		for w, word := range c.bits {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				dst = append(dst, base|uint32(w<<6+b))
				word &= word - 1
			}
		}
		return dst
	}
	for _, v := range c.vals {
		dst = append(dst, base|uint32(v))
	}
	return dst
}

// NewSet returns an empty Set.
func NewSet() *Set { return &Set{} }

// SetFromSorted builds a Set from ascending, duplicate-free IDs (the
// invariant PostingList already maintains).
func SetFromSorted(ids []uint32) *Set {
	s := &Set{}
	for i := 0; i < len(ids); {
		key := uint16(ids[i] >> 16)
		j := i
		for j < len(ids) && uint16(ids[j]>>16) == key {
			j++
		}
		c := container{n: j - i}
		if c.n > setArrayMax {
			c.bits = make([]uint64, setBitmapWords)
			for _, id := range ids[i:j] {
				c.bits[uint16(id)>>6] |= 1 << (id & 63)
			}
		} else {
			c.vals = make([]uint16, c.n)
			for k, id := range ids[i:j] {
				c.vals[k] = uint16(id)
			}
		}
		s.keys = append(s.keys, key)
		s.conts = append(s.conts, c)
		s.n += c.n
		i = j
	}
	return s
}

// SetFromUnsorted builds a Set from arbitrary input.
func SetFromUnsorted(ids []uint32) *Set {
	return SetFromSorted(FromUnsorted(ids))
}

// Len returns the cardinality.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Empty reports whether the set has no elements (true for a nil Set).
func (s *Set) Empty() bool { return s.Len() == 0 }

func (s *Set) findKey(key uint16) int {
	i, ok := slices.BinarySearch(s.keys, key)
	if !ok {
		return -1
	}
	return i
}

// Contains reports whether id is present. Safe on a nil Set.
func (s *Set) Contains(id uint32) bool {
	if s == nil || len(s.keys) == 0 {
		return false
	}
	i := s.findKey(uint16(id >> 16))
	if i < 0 {
		return false
	}
	return s.conts[i].contains(uint16(id))
}

// Insert adds id, reporting whether it was new.
func (s *Set) Insert(id uint32) bool {
	key, low := uint16(id>>16), uint16(id)
	i, ok := slices.BinarySearch(s.keys, key)
	if !ok {
		s.keys = slices.Insert(s.keys, i, key)
		s.conts = slices.Insert(s.conts, i, container{})
	}
	if !s.conts[i].insert(low) {
		return false
	}
	s.n++
	return true
}

// Mask4 returns a 4-bit mask of which of base..base+3 are present, for base
// aligned to 4 (the quad-tree child probe: all four siblings share one key,
// and in bitmap form one word). Safe on a nil Set.
func (s *Set) Mask4(base uint32) uint32 {
	if s == nil || len(s.keys) == 0 {
		return 0
	}
	i := s.findKey(uint16(base >> 16))
	if i < 0 {
		return 0
	}
	c := &s.conts[i]
	low := uint16(base)
	if c.bits != nil {
		return uint32(c.bits[low>>6]>>(low&63)) & 0xF
	}
	var mask uint32
	j, _ := slices.BinarySearch(c.vals, low)
	for ; j < len(c.vals) && c.vals[j] <= low+3; j++ {
		mask |= 1 << (c.vals[j] - low)
	}
	return mask
}

// Next returns the smallest element >= from, false when there is none — the
// step of an ascending walk over a sub-range (the elements of [lo, last] are
// Next(lo), Next(that+1), ... while <= last). Safe on a nil Set.
func (s *Set) Next(from uint32) (uint32, bool) {
	if s == nil {
		return 0, false
	}
	key, low := uint16(from>>16), uint16(from)
	i, found := slices.BinarySearch(s.keys, key)
	if !found {
		low = 0 // past from's (absent) container: the next one's minimum
	}
	for ; i < len(s.keys); i, low = i+1, 0 {
		if v, ok := s.conts[i].next(low); ok {
			return uint32(s.keys[i])<<16 | uint32(v), true
		}
	}
	return 0, false
}

// AppendTo appends all elements in ascending order. Safe on a nil Set.
func (s *Set) AppendTo(dst []uint32) []uint32 {
	if s == nil {
		return dst
	}
	for i := range s.conts {
		dst = s.conts[i].appendTo(dst, uint32(s.keys[i])<<16)
	}
	return dst
}

// Elements returns all elements as a PostingList.
func (s *Set) Elements() PostingList {
	return PostingList(s.AppendTo(make([]uint32, 0, s.Len())))
}

// MemBytes approximates the heap footprint.
func (s *Set) MemBytes() int64 {
	if s == nil {
		return 0
	}
	n := int64(len(s.keys))*2 + int64(len(s.conts))*40
	for i := range s.conts {
		n += int64(len(s.conts[i].vals))*2 + int64(len(s.conts[i].bits))*8
	}
	return n
}

// And returns the intersection of s and t as a new Set. Whole containers
// whose key the other set lacks are skipped without inspection.
func (s *Set) And(t *Set) *Set {
	out := &Set{}
	if s.Empty() || t.Empty() {
		return out
	}
	i, j := 0, 0
	for i < len(s.keys) && j < len(t.keys) {
		switch {
		case s.keys[i] < t.keys[j]:
			i++
		case s.keys[i] > t.keys[j]:
			j++
		default:
			if c := andContainers(&s.conts[i], &t.conts[j]); c.n > 0 {
				out.keys = append(out.keys, s.keys[i])
				out.conts = append(out.conts, c)
				out.n += c.n
			}
			i, j = i+1, j+1
		}
	}
	return out
}

// Or returns the union of s and t as a new Set.
func (s *Set) Or(t *Set) *Set {
	if s.Empty() {
		return t.clone()
	}
	if t.Empty() {
		return s.clone()
	}
	out := &Set{}
	i, j := 0, 0
	push := func(key uint16, c container) {
		out.keys = append(out.keys, key)
		out.conts = append(out.conts, c)
		out.n += c.n
	}
	for i < len(s.keys) || j < len(t.keys) {
		switch {
		case j >= len(t.keys) || (i < len(s.keys) && s.keys[i] < t.keys[j]):
			push(s.keys[i], s.conts[i].clone())
			i++
		case i >= len(s.keys) || s.keys[i] > t.keys[j]:
			push(t.keys[j], t.conts[j].clone())
			j++
		default:
			push(s.keys[i], orContainers(&s.conts[i], &t.conts[j]))
			i, j = i+1, j+1
		}
	}
	return out
}

func (s *Set) clone() *Set {
	if s == nil {
		return &Set{}
	}
	out := &Set{
		keys:  slices.Clone(s.keys),
		conts: make([]container, len(s.conts)),
		n:     s.n,
	}
	for i := range s.conts {
		out.conts[i] = s.conts[i].clone()
	}
	return out
}

func (c *container) clone() container {
	return container{vals: slices.Clone(c.vals), bits: slices.Clone(c.bits), n: c.n}
}

func andContainers(a, b *container) container {
	switch {
	case a.bits != nil && b.bits != nil:
		bm := make([]uint64, setBitmapWords)
		n := 0
		for w := range bm {
			bm[w] = a.bits[w] & b.bits[w]
			n += bits.OnesCount64(bm[w])
		}
		c := container{bits: bm, n: n}
		if n <= setArrayMax {
			c.toArray()
		}
		return c
	case a.bits != nil: // b is the array: probe its values against the bitmap
		a, b = b, a
		fallthrough
	case b.bits != nil:
		vals := make([]uint16, 0, min(len(a.vals), 64))
		for _, v := range a.vals {
			if b.bits[v>>6]&(1<<(v&63)) != 0 {
				vals = append(vals, v)
			}
		}
		return container{vals: vals, n: len(vals)}
	default:
		vals := intersectU16(a.vals, b.vals)
		return container{vals: vals, n: len(vals)}
	}
}

func (c *container) toArray() {
	vals := make([]uint16, 0, c.n)
	for w, word := range c.bits {
		for word != 0 {
			vals = append(vals, uint16(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	c.vals = vals
	c.bits = nil
}

func orContainers(a, b *container) container {
	if a.bits != nil || b.bits != nil || a.n+b.n > setArrayMax {
		bm := make([]uint64, setBitmapWords)
		for _, src := range []*container{a, b} {
			if src.bits != nil {
				for w := range bm {
					bm[w] |= src.bits[w]
				}
			} else {
				for _, v := range src.vals {
					bm[v>>6] |= 1 << (v & 63)
				}
			}
		}
		n := 0
		for _, w := range bm {
			n += bits.OnesCount64(w)
		}
		c := container{bits: bm, n: n}
		if n <= setArrayMax {
			c.toArray()
		}
		return c
	}
	vals := make([]uint16, 0, a.n+b.n)
	i, j := 0, 0
	for i < len(a.vals) && j < len(b.vals) {
		switch {
		case a.vals[i] < b.vals[j]:
			vals = append(vals, a.vals[i])
			i++
		case a.vals[i] > b.vals[j]:
			vals = append(vals, b.vals[j])
			j++
		default:
			vals = append(vals, a.vals[i])
			i, j = i+1, j+1
		}
	}
	vals = append(vals, a.vals[i:]...)
	vals = append(vals, b.vals[j:]...)
	return container{vals: vals, n: len(vals)}
}

// intersectU16 intersects two sorted uint16 arrays, galloping when the
// smaller side is much smaller than the larger.
func intersectU16(p, q []uint16) []uint16 {
	if len(p) > len(q) {
		p, q = q, p
	}
	if len(p) == 0 {
		return nil
	}
	out := make([]uint16, 0, len(p))
	if len(q) >= gallopRatio*len(p) {
		for _, v := range p {
			i := gallopSearch(q, v)
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

// IntersectSets intersects all sets — shortest first, skipping whole
// containers absent from the running result — and returns the elements as a
// PostingList. It returns nil when sets is empty.
func IntersectSets(sets []*Set) PostingList {
	if len(sets) == 0 {
		return nil
	}
	ordered := make([]*Set, len(sets))
	copy(ordered, sets)
	slices.SortStableFunc(ordered, func(a, b *Set) int { return a.Len() - b.Len() })
	out := ordered[0]
	for _, t := range ordered[1:] {
		if out.Empty() {
			return PostingList{}
		}
		out = out.And(t)
	}
	return out.Elements()
}

// --- wire codec ---

// AppendEncoded appends the Set wire encoding to dst: uvarint container
// count, then per container a uvarint key, a mode tag, and either the
// delta+varint value array or the raw 8 KiB bitmap (with a uvarint
// cardinality prefix). Dense containers cost at most 8 KiB regardless of
// cardinality, which is what keeps dense sets compact.
func (s *Set) AppendEncoded(dst []byte) []byte {
	if s == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.conts)))
	for i := range s.conts {
		c := &s.conts[i]
		dst = binary.AppendUvarint(dst, uint64(s.keys[i]))
		if c.bits != nil {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(c.n))
			for _, w := range c.bits {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
			continue
		}
		dst = append(dst, 0)
		dst = binary.AppendUvarint(dst, uint64(len(c.vals)))
		prev := uint16(0)
		for k, v := range c.vals {
			if k == 0 {
				dst = binary.AppendUvarint(dst, uint64(v))
			} else {
				dst = binary.AppendUvarint(dst, uint64(v-prev))
			}
			prev = v
		}
	}
	return dst
}

// DecodeSet decodes one Set from buf, returning the set and the bytes
// consumed.
func DecodeSet(buf []byte) (*Set, int, error) {
	nc, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("invindex: truncated set header")
	}
	if nc > 1<<16 { // keys are distinct uint16s; the count sizes two slices
		return nil, 0, fmt.Errorf("invindex: set claims %d containers", nc)
	}
	off := used
	s := &Set{
		keys:  make([]uint16, 0, nc),
		conts: make([]container, 0, nc),
	}
	var prevKey int = -1
	for ci := uint64(0); ci < nc; ci++ {
		key, used := binary.Uvarint(buf[off:])
		if used <= 0 || key > 0xFFFF {
			return nil, 0, fmt.Errorf("invindex: bad set key in container %d", ci)
		}
		off += used
		if int(key) <= prevKey {
			return nil, 0, fmt.Errorf("invindex: unordered set key %d", key)
		}
		prevKey = int(key)
		if off >= len(buf) {
			return nil, 0, fmt.Errorf("invindex: truncated set container %d", ci)
		}
		tag := buf[off]
		off++
		count, used := binary.Uvarint(buf[off:])
		if used <= 0 {
			return nil, 0, fmt.Errorf("invindex: truncated set count in container %d", ci)
		}
		off += used
		var c container
		switch tag {
		case 1:
			if len(buf[off:]) < setBitmapWords*8 {
				return nil, 0, fmt.Errorf("invindex: truncated set bitmap in container %d", ci)
			}
			c.bits = make([]uint64, setBitmapWords)
			n := 0
			for w := range c.bits {
				c.bits[w] = binary.LittleEndian.Uint64(buf[off:])
				n += bits.OnesCount64(c.bits[w])
				off += 8
			}
			if uint64(n) != count {
				return nil, 0, fmt.Errorf("invindex: set bitmap cardinality mismatch (%d != %d)", n, count)
			}
			c.n = n
		case 0:
			if count > 1<<16 {
				return nil, 0, fmt.Errorf("invindex: oversized set array (%d)", count)
			}
			c.vals = make([]uint16, 0, count)
			prev := uint64(0)
			for k := uint64(0); k < count; k++ {
				d, used := binary.Uvarint(buf[off:])
				if used <= 0 {
					return nil, 0, fmt.Errorf("invindex: truncated set value %d/%d", k, count)
				}
				off += used
				if k == 0 {
					prev = d
				} else {
					if d == 0 {
						return nil, 0, fmt.Errorf("invindex: duplicate set value %d", prev)
					}
					prev += d
				}
				if prev > 0xFFFF {
					return nil, 0, fmt.Errorf("invindex: set value overflow (%d)", prev)
				}
				c.vals = append(c.vals, uint16(prev))
			}
			c.n = len(c.vals)
		default:
			return nil, 0, fmt.Errorf("invindex: unknown set container tag %d", tag)
		}
		s.keys = append(s.keys, uint16(key))
		s.conts = append(s.conts, c)
		s.n += c.n
	}
	return s, off, nil
}
