// Package trajectory defines the activity-trajectory data model of the
// paper: activities drawn from a pre-defined vocabulary, geo-points tagged
// with activity sets, trajectories as point sequences, and datasets with the
// statistics reported in Table IV. It also provides a compact binary codec
// so datasets can be stored and shipped between the CLI tools.
package trajectory

import "slices"

// ActivityID identifies an activity within a Vocabulary. IDs are assigned
// contiguously in descending order of occurrence frequency, as Section IV
// assigns them: ID 0 is the most frequent activity. Every generated
// dataset, and so every recorded answer, depends on this order.
type ActivityID uint32

// ActivitySet is a sorted, duplicate-free set of activity IDs. The methods
// never mutate their receiver unless documented otherwise.
type ActivitySet []ActivityID

// NewActivitySet returns a normalized (sorted, deduplicated) set from ids.
func NewActivitySet(ids ...ActivityID) ActivitySet {
	s := make(ActivitySet, len(ids))
	copy(s, ids)
	s.Normalize()
	return s
}

// Normalize sorts the set in place and removes duplicates.
func (s *ActivitySet) Normalize() {
	v := *s
	slices.Sort(v)
	out := v[:0]
	for i, id := range v {
		if i == 0 || id != v[i-1] {
			out = append(out, id)
		}
	}
	*s = out
}

// Contains reports whether id is a member of s.
func (s ActivitySet) Contains(id ActivityID) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

// ContainsAll reports whether every element of other is a member of s.
func (s ActivitySet) ContainsAll(other ActivitySet) bool {
	i := 0
	for _, id := range other {
		for i < len(s) && s[i] < id {
			i++
		}
		if i == len(s) || s[i] != id {
			return false
		}
	}
	return true
}

// Intersects reports whether s and other share at least one element.
func (s ActivitySet) Intersects(other ActivitySet) bool {
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			i++
		case s[i] > other[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Union returns a new set containing the elements of both s and other.
func (s ActivitySet) Union(other ActivitySet) ActivitySet {
	out := make(ActivitySet, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			out = append(out, s[i])
			i++
		case s[i] > other[j]:
			out = append(out, other[j])
			j++
		default:
			out = append(out, s[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Intersect returns a new set containing the elements common to s and other.
func (s ActivitySet) Intersect(other ActivitySet) ActivitySet {
	var out ActivitySet
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			i++
		case s[i] > other[j]:
			j++
		default:
			out = append(out, s[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// MaskAgainst returns a bitmask with bit b set iff query[b] is a member of s.
// It is the bridge between activity sets and the subset-DP of Algorithm 3,
// which operates on bitmasks over a query point's (small) activity list.
// query must be sorted; len(query) must be at most 32.
func (s ActivitySet) MaskAgainst(query ActivitySet) uint32 {
	var mask uint32
	i := 0
	for b, id := range query {
		for i < len(s) && s[i] < id {
			i++
		}
		if i < len(s) && s[i] == id {
			mask |= 1 << uint(b)
		}
	}
	return mask
}

// Clone returns an independent copy of s.
func (s ActivitySet) Clone() ActivitySet {
	out := make(ActivitySet, len(s))
	copy(out, s)
	return out
}

// Equal reports whether s and other contain exactly the same elements.
func (s ActivitySet) Equal(other ActivitySet) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}
