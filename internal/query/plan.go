package query

import "slices"

// BatchKeyer is implemented by engines that can map a query to a spatial
// locality key — by convention the Z-order code of the leaf cell holding
// the query's centroid, so keys that are numerically close index nearby
// cells. The cross-query batch planner sorts in-flight requests by this
// key and runs co-located ones consecutively on the same worker, so their
// searches expand the same cells and fault the same pages back to back —
// each page/block faults once into the shared buffer pool and caches
// instead of once per query. BatchKey must be cheap, must not disturb the
// engine's search scratch, and must be safe for concurrent use.
type BatchKeyer interface {
	BatchKey(q Query) uint64
}

// planGroupShift is the number of low Z-code bits ignored when cutting
// sorted requests into groups: requests within the same 4-level ancestor
// cell (2 bits per level) share a group and therefore a worker, because
// their best-first expansions overlap.
const planGroupShift = 8

// planMaxGroup caps a group's size so one hot cell cannot serialize a
// whole skewed batch onto a single worker: past the cap the planner cuts a
// new group, which a sibling worker picks up with the pages already warm.
const planMaxGroup = 16

// planAll produces the group schedule SearchAll hands to its workers. With
// planning enabled and a keyer-capable engine it keys the batch; otherwise
// every request is its own group (one shared backing array — no
// per-request allocations), which is exactly the pre-planner submission
// order.
func (p *ParallelEngine) planAll(reqs []Request) [][]int {
	if keyer, ok := p.e.(BatchKeyer); ok && !p.noPlan && len(reqs) > 1 {
		return planGroups(reqs, keyer)
	}
	groups := make([][]int, len(reqs))
	idx := make([]int, len(reqs))
	for i := range reqs {
		idx[i] = i
		groups[i] = idx[i : i+1]
	}
	return groups
}

// planGroups orders request indexes by their engine-assigned batch key and
// cuts them into groups of spatially co-located requests. The returned
// groups partition 0..len(reqs)-1; requests inside a group are sorted by
// (key, original index), so duplicate queries land adjacently and the
// second of a pair executes with every structure the first touched still
// resident. Results are unaffected: grouping only reorders which worker
// runs which request, never how a request is answered.
func planGroups(reqs []Request, keyer BatchKeyer) [][]int {
	type keyed struct {
		key uint64
		qi  int
	}
	ks := make([]keyed, len(reqs))
	for i, req := range reqs {
		ks[i] = keyed{key: keyer.BatchKey(req.Query), qi: i}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		default:
			return a.qi - b.qi
		}
	})
	var groups [][]int
	var cur []int
	var curKey uint64
	for _, k := range ks {
		if len(cur) > 0 && (k.key>>planGroupShift != curKey || len(cur) >= planMaxGroup) {
			groups = append(groups, cur)
			cur = nil
		}
		if len(cur) == 0 {
			curKey = k.key >> planGroupShift
		}
		cur = append(cur, k.qi)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}
