package query

import (
	"encoding/binary"
	"math"

	"activitytraj/internal/cache"
)

// EpochSource exposes a monotone mutation counter used to invalidate
// cached search results. Implementations must guarantee apply-then-bump
// ordering: the counter is incremented AFTER a mutation becomes visible to
// searches and BEFORE the mutation is acknowledged to its caller. Under
// that discipline a search that reads epoch S before executing observes at
// least every mutation counted in S, so a cached response tagged S can be
// served at any later probe that still reads S — no acknowledged mutation
// can be missing from it. Static indexes may use a constant source (epoch
// 0 forever); composite engines may sum per-component monotone counters
// (equal sums of non-decreasing counters imply equal components).
//
// The delta-layer generation epoch of the dynamic index is NOT a valid
// source on its own: it advances on compaction swaps, not on every
// insert/delete. delta.Dynamic.Epoch and shard.Router.Epoch implement the
// mutation-inclusive counter this interface requires.
type EpochSource interface {
	// Epoch returns the current mutation counter. It must be safe for
	// concurrent use and monotone non-decreasing.
	Epoch() uint64
}

// StaticEpoch is the EpochSource for immutable indexes: the epoch is
// constant, so cached entries never expire.
type StaticEpoch struct{}

// Epoch implements EpochSource.
func (StaticEpoch) Epoch() uint64 { return 0 }

// ResultCache is a sharded LRU cache of complete search responses, keyed
// on the canonical encoding of the Request (query points, K, Ordered,
// InitialBound, Region, WithMatches, Subtrajectory and its span limits)
// tagged with the index's mutation
// epoch. A mutation bumps the epoch, so every entry written before it
// becomes unreachable at once — stale results can never serve (see
// EpochSource for the ordering argument). All methods are safe for
// concurrent use; hot entries parked under a dead epoch age out of the LRU
// naturally.
//
// Cached responses are treated as immutable: Get returns a copy whose
// top-level Results/Matches slices are fresh, but the per-result match
// index lists are shared — callers must not mutate them (no caller in this
// repository does; the server serializes them straight to JSON).
type ResultCache struct {
	c   *cache.Sharded[resultKey, Response]
	src EpochSource
}

// resultKey tags a canonical request encoding with the epoch it was
// computed under.
type resultKey struct {
	epoch uint64
	req   string
}

func hashResultKey(k resultKey) uint64 {
	// FNV-1a over the canonical request bytes, folded with the mixed epoch.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.req); i++ {
		h ^= uint64(k.req[i])
		h *= prime64
	}
	return h ^ cache.Uint64Hash(k.epoch)
}

// DefaultResultCacheEntries is the entry capacity NewResultCache uses when
// given a non-positive size.
const DefaultResultCacheEntries = 1024

// NewResultCache returns a result cache of up to entries responses
// (entries <= 0 selects DefaultResultCacheEntries), invalidated by src's
// epoch. src must not be nil; use StaticEpoch{} for an immutable index.
func NewResultCache(entries int, src EpochSource) *ResultCache {
	if entries <= 0 {
		entries = DefaultResultCacheEntries
	}
	return &ResultCache{
		c:   cache.New[resultKey, Response](entries, 0, hashResultKey),
		src: src,
	}
}

// Get returns the cached response for req at the given epoch, which the
// caller must have read from Epoch() before probing (and must reuse for
// the Put should the probe miss — see Put). A hit's Stats carries only
// ResultCacheHits: 1 — the original search's work was not performed for
// this request, so replaying its accounting would double-count every cost
// downstream aggregation sums.
func (rc *ResultCache) Get(epoch uint64, req Request) (Response, bool) {
	key := resultKey{epoch: epoch, req: encodeRequestKey(req)}
	resp, ok := rc.c.Get(key)
	if !ok {
		return Response{}, false
	}
	out := Response{
		Results: append([]Result(nil), resp.Results...),
		Stats:   SearchStats{ResultCacheHits: 1},
	}
	if resp.Matches != nil {
		out.Matches = append([][][]int32(nil), resp.Matches...)
	}
	if resp.Spans != nil {
		out.Spans = append([][2]int32(nil), resp.Spans...)
	}
	return out, true
}

// Put stores a completed response under req at the epoch the caller read
// BEFORE running the search (see EpochSource; a tag read after the search
// could claim mutations the search never saw). Truncated responses are
// never cached — they are cancellation artifacts, not answers. Partial
// responses are not cached either: they reflect a transient outage, not the
// index's state at the epoch, and must not outlive the failed replicas'
// recovery.
func (rc *ResultCache) Put(epoch uint64, req Request, resp Response) {
	if resp.Truncated || resp.Partial {
		return
	}
	key := resultKey{epoch: epoch, req: encodeRequestKey(req)}
	stored := Response{Results: append([]Result(nil), resp.Results...)}
	if resp.Matches != nil {
		stored.Matches = append([][][]int32(nil), resp.Matches...)
	}
	if resp.Spans != nil {
		stored.Spans = append([][2]int32(nil), resp.Spans...)
	}
	rc.c.Put(key, stored)
}

// Epoch reads the source's current epoch — the tag a caller must capture
// before probing and before executing the search whose response it will
// Put.
func (rc *ResultCache) Epoch() uint64 { return rc.src.Epoch() }

// Stats returns the cache's traffic counters.
func (rc *ResultCache) Stats() cache.Stats { return rc.c.Stats() }

// Len returns the number of resident entries (stale epochs included until
// they age out).
func (rc *ResultCache) Len() int { return rc.c.Len() }

// Reset empties the cache and zeroes its counters.
func (rc *ResultCache) Reset() { rc.c.Reset() }

// encodeRequestKey builds the canonical byte encoding of a request: every
// field that affects the response, fixed-width so distinct requests can
// never collide (ints as 64 bits, since K arrives from the wire unchecked;
// float64s by their IEEE bits, so -0/+0 and NaN payloads encode distinctly
// rather than comparing loosely).
func encodeRequestKey(req Request) string {
	n := 1 + 8 + 8 + 4 // flags, K, InitialBound, point count
	if req.Subtrajectory {
		n += 16
	}
	if req.Region != nil {
		n += 32
	}
	for _, p := range req.Query.Pts {
		n += 16 + 4 + 4*len(p.Acts)
	}
	buf := make([]byte, 0, n)
	var flags byte
	if req.Ordered {
		flags |= 1
	}
	if req.WithMatches {
		flags |= 2
	}
	if req.Region != nil {
		flags |= 4
	}
	if req.RequireComplete {
		flags |= 8
	}
	if req.Subtrajectory {
		flags |= 16
	}
	buf = append(buf, flags)
	if req.Subtrajectory {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(req.MinSpanPoints))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(req.MaxSpanPoints))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.K))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(req.InitialBound))
	if r := req.Region; r != nil {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MinX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MinY))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MaxX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MaxY))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Query.Pts)))
	for _, p := range req.Query.Pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Loc.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Loc.Y))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Acts)))
		for _, a := range p.Acts {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
		}
	}
	return string(buf)
}
