package matcher

import "slices"

// SortByDist orders candidate points by ascending distance — the input
// order Algorithm 3 requires for its early-termination condition. It uses
// the generic sort, which (unlike sort.Slice) does not allocate, keeping
// the per-candidate path of a search allocation-free.
func SortByDist(pts []WeightedPoint) {
	slices.SortFunc(pts, func(a, b WeightedPoint) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		default:
			return 0
		}
	})
}

// MinPointMatch computes Dmpm(q, Tr) — the minimum point match distance of
// Definition 4 — given the candidate points of Tr that carry at least one of
// the nq query activities. It sorts pts in place and runs Algorithm 3.
// It returns Inf when no point match exists, and 0 when nq == 0 (an empty
// activity requirement is vacuously matched).
func (m *Matcher) MinPointMatch(nq int, pts []WeightedPoint) float64 {
	SortByDist(pts)
	return m.MinPointMatchSorted(nq, pts)
}

// rowPointMatch computes Dmpm over the row entries (dist[i], mask[i]) — a
// whole row or a window of one — with the same float64 bits MinPointMatch
// returns for them. Algorithm 3 can only ever use the nearest point of each
// coverage mask: a farther point with a mask already seen arrives at
// H[mask] <= its distance and changes nothing, and early termination only
// ever skips such no-ops. So the entries are collapsed to one point per
// distinct mask (at most 2^nq - 1 of them, whatever the row's length) and
// only those are sorted and handed to MinPointMatchSorted.
func (m *Matcher) rowPointMatch(nq int, dist []float64, mask []uint32) float64 {
	if nq <= 0 {
		return 0
	}
	m.wpts = m.wpts[:0]
	if nq > maxArrayActs {
		// No dense per-mask table for queries this wide (query.Validate
		// rejects them long before): sort the whole range.
		for i, d := range dist {
			m.wpts = append(m.wpts, WeightedPoint{Dist: d, Mask: mask[i]})
		}
		return m.MinPointMatch(nq, m.wpts)
	}
	full := uint32(1)<<uint(nq) - 1
	if len(m.maskSlot) <= int(full) {
		m.maskSlot = make([]int32, full+1)
	}
	// maskSlot[k] is 1 + the position in wpts of mask k's nearest point so
	// far, 0 when k has not been seen; the touched entries are cleared below.
	slot := m.maskSlot
	for i, d := range dist {
		k := mask[i] & full
		if k == 0 {
			continue
		}
		if s := slot[k]; s == 0 {
			m.wpts = append(m.wpts, WeightedPoint{Dist: d, Mask: k})
			slot[k] = int32(len(m.wpts))
		} else if d < m.wpts[s-1].Dist {
			m.wpts[s-1].Dist = d
		}
	}
	for _, p := range m.wpts {
		slot[p.Mask] = 0
	}
	SortByDist(m.wpts)
	return m.MinPointMatchSorted(nq, m.wpts)
}

// MinPointMatchSorted is MinPointMatch for pts already sorted by ascending
// distance. It is a faithful implementation of the paper's Algorithm 3:
// a hash table H keyed by query-activity subsets holds the best known match
// distance per subset; each candidate point first claims every subset of its
// own coverage it improves (the FIFO queue), then combines with every
// incomparable subset already in H; processing stops as soon as the next
// point's distance cannot beat the full-set entry.
func (m *Matcher) MinPointMatchSorted(nq int, pts []WeightedPoint) float64 {
	if nq <= 0 {
		return 0
	}
	if nq > maxArrayActs {
		return m.minPointMatchMap(nq, pts)
	}
	full := uint32(1)<<uint(nq) - 1
	h := m.resetTable(nq)
	for _, p := range pts {
		// Early termination (Algorithm 3, line 5): every unchecked point is
		// at least this far, so no cover built from them can improve H[q.Φ].
		if h[full] <= p.Dist {
			break
		}
		pm := p.Mask & full
		if pm == 0 {
			continue
		}
		m.queue = m.queue[:0]
		m.queue = append(m.queue, pm)
		for qi := 0; qi < len(m.queue); qi++ {
			ks := m.queue[qi]
			if h[ks] <= p.Dist {
				// A better match for ks exists; its subsets are at least as
				// good (H is monotone), so the whole sub-lattice is skipped.
				continue
			}
			h[ks] = p.Dist
			// Push every (|ks|-1)-size subset.
			for rest := ks; rest != 0; rest &= rest - 1 {
				if sub := ks &^ (rest & (^rest + 1)); sub != 0 {
					m.queue = append(m.queue, sub)
				}
			}
			// Combine with every incomparable subset currently in H.
			for s := uint32(1); s <= full; s++ {
				if h[s] == Inf || s&ks == s || s&ks == ks {
					continue // absent, or subset/superset of ks
				}
				key := s | ks
				if v := h[s] + h[ks]; v < h[key] {
					h[key] = v
				}
			}
		}
	}
	return h[full]
}

// minPointMatchMap is the map-backed fallback for very wide queries
// (nq > maxArrayActs). It uses the incremental cover relaxation, which
// computes the same value as Algorithm 3.
func (m *Matcher) minPointMatchMap(nq int, pts []WeightedPoint) float64 {
	full := uint32(1)<<uint(nq) - 1
	h := map[uint32]float64{0: 0}
	for _, p := range pts {
		if best, ok := h[full]; ok && best <= p.Dist {
			break
		}
		pm := p.Mask & full
		if pm == 0 {
			continue
		}
		keys := make([]uint32, 0, len(h))
		for s := range h {
			keys = append(keys, s)
		}
		for _, s := range keys {
			key := s | pm
			if v := h[s] + p.Dist; v < getInf(h, key) {
				h[key] = v
			}
		}
	}
	return getInf(h, full)
}

func getInf(h map[uint32]float64, k uint32) float64 {
	if v, ok := h[k]; ok {
		return v
	}
	return Inf
}

// MinPointMatchDP computes Dmpm by the plain incremental cover relaxation
// (no early termination, no subset queue). It is used as a polynomial-time
// cross-check for Algorithm 3 in tests and as the ablation baseline
// measuring what Algorithm 3's early termination buys.
func (m *Matcher) MinPointMatchDP(nq int, pts []WeightedPoint) float64 {
	if nq <= 0 {
		return 0
	}
	t := m.newSubsetTable(nq)
	for _, p := range pts {
		t.AddPoint(p.Mask, p.Dist)
	}
	return t.Best()
}

// BruteMinPointMatch enumerates every subset of pts — exponential, test-only.
func BruteMinPointMatch(nq int, pts []WeightedPoint) float64 {
	if nq <= 0 {
		return 0
	}
	full := uint32(1)<<uint(nq) - 1
	best := Inf
	n := len(pts)
	for sub := 0; sub < 1<<uint(n); sub++ {
		var mask uint32
		var cost float64
		for i := 0; i < n; i++ {
			if sub&(1<<uint(i)) != 0 {
				mask |= pts[i].Mask
				cost += pts[i].Dist
			}
		}
		if mask&full == full && cost < best {
			best = cost
		}
	}
	return best
}
