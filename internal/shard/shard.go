// Package shard coordinates the partitioned corpus: it plans contiguous
// record-range shards, splits delta row sets per shard, k-way-merges the
// per-shard ranked candidate lists of a scatter-gather query, and keeps the
// routing metadata (record-ID ranges and scope-bit unions) that lets a
// scoped query skip shards which provably cannot match.
//
// The package is deliberately engine-agnostic: it knows nothing about
// measures or assessments. internal/quality binds it to the measure-matrix
// engine (quality/shard.go), which keeps matrix internals private while the
// partitioning, merging and routing logic stays independently testable.
// Correctness contract (pinned by the cross-shard equivalence suite at the
// repo root): for any plan, scatter-gather over the shards is bit-identical
// to evaluating the whole record range as one, because shards are
// contiguous subranges of the global record order and the merge preserves
// the global strict ranking order.
//
//informer:deterministic
package shard

import "sort"

// Plan is a partition of n contiguous records into near-equal contiguous
// shards. Shard boundaries depend only on (n, shards) — never on content —
// so the same plan derives identically on every tick of one corpus.
type Plan struct {
	n      int
	bounds []int // len shards+1; shard s covers [bounds[s], bounds[s+1])
}

// NewPlan partitions n records into the requested number of shards,
// clamping to [1, n] (an empty corpus keeps one empty shard so callers
// never divide by zero). The first n%shards shards are one record larger.
func NewPlan(n, shards int) Plan {
	if shards < 1 {
		shards = 1
	}
	if n > 0 && shards > n {
		shards = n
	}
	p := Plan{n: n, bounds: make([]int, shards+1)}
	base, rem := 0, 0
	if shards > 0 {
		base, rem = n/shards, n%shards
	}
	lo := 0
	for s := 0; s < shards; s++ {
		p.bounds[s] = lo
		lo += base
		if s < rem {
			lo++
		}
	}
	p.bounds[shards] = n
	return p
}

// Shards returns the number of shards in the plan.
func (p Plan) Shards() int { return len(p.bounds) - 1 }

// Len returns the number of records the plan covers.
func (p Plan) Len() int { return p.n }

// Bounds returns shard s's record range [lo, hi).
func (p Plan) Bounds(s int) (lo, hi int) { return p.bounds[s], p.bounds[s+1] }

// Of returns the shard owning global row index `row`.
func (p Plan) Of(row int) int {
	// bounds is ascending; find the last bound <= row.
	s := sort.SearchInts(p.bounds, row+1) - 1
	if s < 0 {
		s = 0
	}
	if s >= p.Shards() {
		s = p.Shards() - 1
	}
	return s
}

// SplitRows groups ascending global row indices per shard, localized to
// each shard's own range (global row -> row - lo). Out-of-range rows are
// dropped. The result has one (possibly nil) slice per shard.
func (p Plan) SplitRows(rows []int) [][]int {
	out := make([][]int, p.Shards())
	for _, row := range rows {
		if row < 0 || row >= p.n {
			continue
		}
		s := p.Of(row)
		out[s] = append(out[s], row-p.bounds[s])
	}
	return out
}

// MergeK merges the per-shard sorted lists into one list ordered by less
// (less(a, b) means a ranks strictly before b), keeping at most limit items
// (0 = all). Lists must each already be sorted by less; ties across lists
// cannot occur when less is a strict total order, which the quality
// engine's (key desc, ID asc) candidate order guarantees — so the merge is
// deterministic for any shard count. With a single non-empty list the
// result aliases its prefix, capped at its length so an append cannot
// write into the list; callers must treat the result as read-only.
func MergeK[T any](lists [][]T, less func(a, b T) bool, limit int) []T {
	total := 0
	live := 0
	for _, l := range lists {
		total += len(l)
		if len(l) > 0 {
			live++
		}
	}
	if limit <= 0 || limit > total {
		limit = total
	}
	if live == 1 {
		// Single contributing list: the merge is its bounded prefix.
		for _, l := range lists {
			if len(l) > 0 {
				return l[:limit:limit]
			}
		}
	}
	out := make([]T, 0, limit)
	heads := make([]int, len(lists))
	for len(out) < limit {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || less(l[heads[i]], lists[best][heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// Router is the per-shard routing metadata of a sharded corpus: the record
// ID range of each shard plus the union of its records' scope bits — a
// bitset over facts the engine interns, such as a content category or a
// source kind. CanMatch prunes shards that provably contain no record
// matching a query scope. A union is a conservative superset — updates
// only ever OR new bits in — so a stale bit can cost a wasted scan but
// never a wrong answer. A Router is immutable once published; Derive
// copies the shards a tick is about to touch so concurrent readers of the
// previous round are never disturbed.
type Router struct {
	minID, maxID []int
	scope        [][]uint64
}

// NewRouter returns an empty router for the given shard count.
func NewRouter(shards int) *Router {
	rt := &Router{
		minID: make([]int, shards),
		maxID: make([]int, shards),
		scope: make([][]uint64, shards),
	}
	for s := range rt.minID {
		rt.minID[s], rt.maxID[s] = -1, -1
	}
	return rt
}

// Shards returns the router's shard count.
func (rt *Router) Shards() int { return len(rt.minID) }

// Note records one record's identity in shard s's metadata: its ID and
// its scope bits, ORed into the shard's union.
func (rt *Router) Note(s, id int, bits []uint64) {
	if rt.minID[s] < 0 || id < rt.minID[s] {
		rt.minID[s] = id
	}
	if id > rt.maxID[s] {
		rt.maxID[s] = id
	}
	u := rt.scope[s]
	for len(u) < len(bits) {
		u = append(u, 0)
	}
	for i, b := range bits {
		u[i] |= b
	}
	rt.scope[s] = u
}

// Derive returns a router sharing every untouched shard's union with the
// receiver but owning fresh copies for the listed shards, so a tick can
// OR new bits into them while readers of the previous round keep using
// the receiver.
func (rt *Router) Derive(dirtyShards []int) *Router {
	n := rt.Shards()
	nr := &Router{
		minID: append([]int(nil), rt.minID...),
		maxID: append([]int(nil), rt.maxID...),
		scope: append([][]uint64(nil), rt.scope...),
	}
	for _, s := range dirtyShards {
		if s < 0 || s >= n {
			continue
		}
		nr.scope[s] = append([]uint64(nil), rt.scope[s]...)
	}
	return nr
}

// CanMatch reports whether shard s could hold a record matching the scope:
// at least one requested ID inside the shard's ID range, and for each
// mask at least one of its bits in the shard's union. An empty ID list
// and a nil mask mean "no restriction" and never prune; a mask with no
// bit set matches nothing.
func (rt *Router) CanMatch(s int, ids []int, masks ...[]uint64) bool {
	if len(ids) > 0 {
		if rt.minID[s] < 0 {
			return false // empty shard
		}
		hit := false
		for _, id := range ids {
			if id >= rt.minID[s] && id <= rt.maxID[s] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	for _, m := range masks {
		if !Overlaps(rt.scope[s], m) {
			return false
		}
	}
	return true
}

// Overlaps reports whether bitset row shares a bit with mask (words past
// the end of either count as zero); a nil mask is no restriction.
func Overlaps(row, mask []uint64) bool {
	if mask == nil {
		return true
	}
	for i, m := range mask {
		if i < len(row) && row[i]&m != 0 {
			return true
		}
	}
	return false
}
