package informer

// The per-snapshot query cache: every read the facade (and therefore the
// /api/v1 serving layer) answers is keyed by the query's canonical form
// and cached on the immutable assessment snapshot it was computed from, so
// repeated identical reads during one assessment round are map hits and a
// snapshot swap invalidates everything at zero cost — the cache dies with
// its snapshot (DESIGN.md section 8).
//
// Two layers share the work. The *spine* cache holds the fully ranked
// candidate list of a query's scope + predicates + sort — the
// filter-placement idea: one standing filter is evaluated once per
// assessment round, and every consumer window fans out of that single
// evaluation. The *window* cache holds materialized pages keyed by the
// full query including the pagination window and projection. Any window —
// a cursor page, a watch diff — is an O(window) slice of the shared
// spine: a binary search for the cursor, then one page.
//
// Cached results are shared between callers (including concurrent HTTP
// handlers): treat QueryResult.Items as read-only, like the indicator map
// of SentimentByCategory.

import (
	"sync"

	"github.com/informing-observers/informer/internal/quality"
)

// maxCachedSpines and maxCachedWindows cap the per-snapshot cache so a
// hostile query stream cannot grow a snapshot without bound; past the cap,
// queries execute uncached (same results, no retention).
const (
	maxCachedSpines  = 256
	maxCachedWindows = 2048
)

// spineEntry and windowEntry are once-per-round computations, scan.go
// style: the map registers intent under the lock, the sync.Once computes
// outside it, so identical concurrent reads collapse into one execution.
type spineEntry struct {
	once sync.Once
	sp   *quality.Spine
	err  error
}

type windowEntry struct {
	once sync.Once
	res  *QueryResult
	err  error
}

// querySources answers a source query from the snapshot's cache.
func (st *assessState) querySources(q Query) (*QueryResult, error) {
	return cachedQuery(st, 's', st.env.Sources, st.env.SourceRecords, q)
}

// queryContributors answers a contributor query from the snapshot's cache.
func (st *assessState) queryContributors(q Query) (*QueryResult, error) {
	return cachedQuery(st, 'c', st.env.Contributors, st.env.ContributorRecords, q)
}

// cachedQuery answers q for one record population: window-cache hit, else
// a slice of the (possibly cached) spine, else — past the caps — a plain
// uncached execution. Every path returns results bit-identical to
// a.Query(records, q); the equivalence is pinned by the randomized
// property tests in internal/quality/query_test.go.
//
//informer:mutates memoised per-round query cache guarded by queryMu and entry onces
func cachedQuery[R any](st *assessState, kind byte, a *quality.Assessor[R], records []*R, q Query) (*QueryResult, error) {
	wKey := string(kind) + "\x00" + q.CanonicalKey()
	st.queryMu.Lock()
	if st.windows == nil {
		st.windows = make(map[string]*windowEntry)
		st.spines = make(map[string]*spineEntry)
	}
	we, ok := st.windows[wKey]
	if !ok {
		if len(st.windows) >= maxCachedWindows {
			// Window cap reached: stop retaining pages, but keep slicing
			// the (usually cached) spine rather than re-scanning the
			// corpus per page.
			st.queryMu.Unlock()
			sp, err := cachedSpine(st, kind, a, records, q)
			if err != nil {
				return nil, err
			}
			return a.Window(records, sp, q)
		}
		we = &windowEntry{}
		st.windows[wKey] = we
	}
	st.queryMu.Unlock()
	we.once.Do(func() {
		sp, err := cachedSpine(st, kind, a, records, q)
		if err != nil {
			we.err = err
			return
		}
		we.res, we.err = a.Window(records, sp, q)
	})
	if we.res == nil && we.err == nil {
		// The entry's once panicked mid-computation (and the caller
		// recovered, e.g. net/http): the once is spent but holds nothing.
		// Serve this caller uncached rather than handing out (nil, nil).
		return a.Query(records, q)
	}
	return we.res, we.err
}

// cachedSpine returns the ranked spine shared by every window of q's
// scope + predicates + sort, building it on first demand this round.
//
//informer:mutates memoised per-round spine cache guarded by queryMu and entry onces
func cachedSpine[R any](st *assessState, kind byte, a *quality.Assessor[R], records []*R, q Query) (*quality.Spine, error) {
	sq := q.Windowless()
	sKey := string(kind) + "\x00" + sq.CanonicalKey()
	st.queryMu.Lock()
	se, ok := st.spines[sKey]
	if !ok {
		if len(st.spines) >= maxCachedSpines {
			st.queryMu.Unlock()
			return buildSpine(st, sKey, a, records, sq)
		}
		se = &spineEntry{}
		st.spines[sKey] = se
	}
	st.queryMu.Unlock()
	se.once.Do(func() {
		se.sp, se.err = buildSpine(st, sKey, a, records, sq)
		if se.err == nil && se.sp != nil {
			// Record the completed spine under the lock so the next
			// Advance can hand it to its snapshot as repair substrate;
			// doneSpines never observes a half-built entry this way.
			st.queryMu.Lock()
			if st.spinesDone == nil {
				st.spinesDone = make(map[string]*quality.Spine)
			}
			st.spinesDone[sKey] = se.sp
			st.queryMu.Unlock()
		}
	})
	if se.sp == nil && se.err == nil {
		// Spent-but-empty once (a recovered panic): compute uncached.
		return buildSpine(st, sKey, a, records, sq)
	}
	return se.sp, se.err
}

// buildSpine computes a ranked spine, preferring the carry/repair path:
// if the previous assessment round completed a spine for the same
// standing filter, the engine repairs only the rows its last update
// dirtied (per shard, under a sharded engine) instead of re-scanning the
// corpus. The repaired spine is pinned bit-identical to a fresh scan by
// TestRepairedSpineEquivalence; any ineligibility — epoch moved,
// benchmarks shifted, shard layout changed — falls through to a scan.
func buildSpine[R any](st *assessState, sKey string, a *quality.Assessor[R], records []*R, sq Query) (*quality.Spine, error) {
	if prev, ok := st.prevSpines[sKey]; ok {
		if sp, ok := a.RepairSpine(records, prev, sq); ok {
			return sp, nil
		}
	}
	return a.Spine(records, sq)
}

// doneSpines snapshots the spines completed during this round, for the
// next snapshot's prevSpines. It copies under queryMu: late readers of a
// superseded snapshot may still be finishing spine computations.
func (st *assessState) doneSpines() map[string]*quality.Spine {
	st.queryMu.Lock()
	defer st.queryMu.Unlock()
	if len(st.spinesDone) == 0 {
		return nil
	}
	out := make(map[string]*quality.Spine, len(st.spinesDone))
	for k, sp := range st.spinesDone {
		out[k] = sp
	}
	return out
}
