package trajectory

import (
	"cmp"
	"fmt"
	"slices"
)

// Vocabulary is the pre-defined activity vocabulary A of the paper. It maps
// between human-readable activity names and the dense frequency-ranked IDs
// used by every index structure. IDs are assigned by descending corpus
// frequency (ties broken by name), which keeps generated datasets stable.
type Vocabulary struct {
	names  []string // names[id] = activity name
	byName map[string]ActivityID
	freqs  []int64 // freqs[id] = corpus occurrence count
}

// VocabularyBuilder accumulates activity occurrences before frequency-ranked
// ID assignment.
type VocabularyBuilder struct {
	counts map[string]int64
}

// NewVocabularyBuilder returns an empty builder.
func NewVocabularyBuilder() *VocabularyBuilder {
	return &VocabularyBuilder{counts: make(map[string]int64)}
}

// Add records one occurrence of the named activity.
func (b *VocabularyBuilder) Add(name string) { b.counts[name]++ }

// AddN records n occurrences of the named activity.
func (b *VocabularyBuilder) AddN(name string, n int64) { b.counts[name] += n }

// Build freezes the builder into a Vocabulary with IDs assigned by
// descending frequency, ties broken lexicographically for determinism.
func (b *VocabularyBuilder) Build() *Vocabulary {
	type entry struct {
		name string
		n    int64
	}
	entries := make([]entry, 0, len(b.counts))
	for name, n := range b.counts {
		entries = append(entries, entry{name, n})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.name, b.name)
	})
	v := &Vocabulary{
		names:  make([]string, len(entries)),
		byName: make(map[string]ActivityID, len(entries)),
		freqs:  make([]int64, len(entries)),
	}
	for id, e := range entries {
		v.names[id] = e.name
		v.byName[e.name] = ActivityID(id)
		v.freqs[id] = e.n
	}
	return v
}

// Size returns the cardinality C of the vocabulary.
func (v *Vocabulary) Size() int { return len(v.names) }

// Name returns the name of activity id.
func (v *Vocabulary) Name(id ActivityID) string {
	if int(id) >= len(v.names) {
		return fmt.Sprintf("<unknown:%d>", id)
	}
	return v.names[id]
}

// ID returns the ID of the named activity.
func (v *Vocabulary) ID(name string) (ActivityID, bool) {
	id, ok := v.byName[name]
	return id, ok
}

// MustID is ID for names known to exist; it panics otherwise.
func (v *Vocabulary) MustID(name string) ActivityID {
	id, ok := v.byName[name]
	if !ok {
		panic(fmt.Sprintf("trajectory: activity %q not in vocabulary", name))
	}
	return id
}

// Freq returns the recorded corpus frequency of activity id.
func (v *Vocabulary) Freq(id ActivityID) int64 {
	if int(id) >= len(v.freqs) {
		return 0
	}
	return v.freqs[id]
}

// Names returns the full name table indexed by ActivityID. The returned
// slice is shared; callers must not modify it.
func (v *Vocabulary) Names() []string { return v.names }

// SetFromNames converts activity names to a normalized ActivitySet,
// silently skipping names not present in the vocabulary.
func (v *Vocabulary) SetFromNames(names ...string) ActivitySet {
	ids := make([]ActivityID, 0, len(names))
	for _, n := range names {
		if id, ok := v.byName[n]; ok {
			ids = append(ids, id)
		}
	}
	return NewActivitySet(ids...)
}
