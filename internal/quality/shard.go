package quality

// The sharded scatter-gather engine is the one assessment engine behind
// Assessor, for both record kinds and at every shard count: the
// corpus is partitioned into contiguous record-range shards
// (internal/shard plans the ranges and carries the routing metadata), each
// a plain measure matrix (matrix.go) with its own ranked spine parts.
// Reads become scatter-gather plans — per-shard bounded scans merged k-way
// into the global ranking — and a tick's update cost concentrates on the
// shards its delta actually touched. The coordinator owns everything
// corpus-wide: the benchmark ledger, the update provenance that licenses
// spine carries, and the spine counters.
//
// The correctness contract is bit-identity across shard counts, and it
// rests on three facts:
//
//  1. Benchmarks are corpus-global. Shard matrices are filled without
//     benchmarks; a second phase gathers every measure's defined values
//     across the shards in global record order — the same sequence
//     whatever the partition — into one ledger of columns, and
//     every shard engine shares the ledger's benchmark slice. Normalized
//     values are therefore bitwise the same numbers.
//  2. The candidate order (key desc with NaN last, ID asc; rank.go) is a
//     strict total order, so the k-way merge of per-shard ranked lists is
//     deterministic and equal to ranking the union; a per-shard bound of
//     k keeps every candidate the global top k can need.
//  3. Every read finishes through the same pagination arithmetic — one
//     page location (pageOf) and one cursor derivation (windowResult) —
//     whatever the shard count and whichever the plan.
//
// The randomized cross-shard equivalence suite at the repo root pins all
// of this at shard counts {1, 2, 7, 16}.

import (
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/informing-observers/informer/internal/parallel"
	"github.com/informing-observers/informer/internal/shard"
	"github.com/informing-observers/informer/internal/stats"
)

// benchLedger is the corpus-global normalisation state of the engine: one
// column of defined values per measure and the benchmarks read from it.
// A gathered column — every column at construction, and on update an
// epoch-moved time-sensitive column — keeps its gather order
// (unsorted[m]) and has its benchmarks read by O(n) selection. Every
// other update repairs a column incrementally instead — batch
// remove+insert from the dirty rows' old and new values — sorting a copy
// first if it is still unsorted, so maintaining corpus-global benchmarks
// never costs a corpus-wide re-evaluation, a column sorted once stays
// sorted, and a column that is re-gathered every round is never sorted at
// all.
type benchLedger struct {
	cols       [][]float64
	unsorted   []bool
	benchmarks []Benchmark
}

// newBenchLedger allocates a ledger for nm measures.
func newBenchLedger(nm int) *benchLedger {
	return &benchLedger{cols: make([][]float64, nm), unsorted: make([]bool, nm), benchmarks: make([]Benchmark, nm)}
}

// SpineStats counts the standing-spine evaluation work an assessor has
// performed since it was derived — the observability hook behind the
// dirty-shard evaluation pins: a tick that dirties one shard of N must
// cost one Repair (or Scan) plus N-1 Carries, never N Scans.
type SpineStats struct {
	// Scans counts full shard scans (fresh spine evaluations, one per
	// shard actually scanned — routed-out shards never count).
	Scans int64
	// Repairs counts per-shard spine repairs: dirty rows re-evaluated and
	// re-inserted into the carried ranked order instead of re-scanning.
	Repairs int64
	// Carries counts per-shard spines reused untouched from the previous
	// round (clean shard, benchmarks unchanged).
	Carries int64
	// Columns counts axis columns built (one per shard and ranking axis
	// first read by a scan or Scores). Columns a shard shares with its
	// predecessor are never rebuilt, and repairs never build any.
	Columns int64
}

// spineCounters is the atomic backing store of SpineStats; the
// coordinator holds one per derivation behind a pointer (atomic types must
// not be copied).
type spineCounters struct {
	scans, repairs, carries, columns atomic.Int64
}

func (c *spineCounters) stats() SpineStats {
	return SpineStats{Scans: c.scans.Load(), Repairs: c.repairs.Load(), Carries: c.carries.Load(), Columns: c.columns.Load()}
}

// shardedEngine is the assessment engine over a sharded corpus (one shard
// when AssessorOptions.Shards is below 2). Records keep their global
// construction order; shard s owns the contiguous row range
// plan.Bounds(s). All candidate rows, cursors and totals are global, so
// results interoperate freely across shard counts.
//
//informer:snapshot
type shardedEngine[R any] struct {
	di    DomainOfInterest
	opts  AssessorOptions
	infos []measureInfo
	evals []func(*R, *DomainOfInterest) (float64, bool)
	kind  *recordKind[R]

	plan    shard.Plan
	engines []*matrixEngine[R] // one per shard; benchmarks slice shared from the ledger
	router  *shard.Router
	ledger  *benchLedger
	// dict interns the scope facts behind every shard's scope column
	// (scope.go); the shards share it.
	dict *scopeDict
	// col maps a record ID to its global row: the row whose shard
	// engine serves the record, from its matrix column when the record is
	// that engine's record there by pointer (colOf) and by direct
	// evaluation otherwise. Every shard normalizes against the same global
	// benchmarks, so the choice never changes a result. ID→row never
	// changes while the corpus keeps its shape, so it is built once per
	// shape and every update shares it.
	col map[int]int

	// Update provenance for spine carry/repair: a from-scratch engine is
	// fresh and can never carry a spine forward; lastEpochMoved and
	// benchChanged record whether the producing update moved the
	// observation instant or any benchmark bitwise; dirtyLocal[s] holds
	// its dirty rows local to shard s (nil slices for clean shards).
	fresh          bool
	lastEpochMoved bool
	benchChanged   bool
	dirtyLocal     [][]int

	counters *spineCounters
}

// newShardedEngine partitions the corpus and builds one fill-only matrix
// per shard, then runs the two-phase benchmark gather so normalisation
// stays corpus-global.
//
//informer:mutates constructor fills the coordinator before it is published
func newShardedEngine[R any](
	corpus []*R,
	di DomainOfInterest,
	opts AssessorOptions,
	infos []measureInfo,
	evals []func(*R, *DomainOfInterest) (float64, bool),
	kind *recordKind[R],
) *shardedEngine[R] {
	s := &shardedEngine[R]{
		di: di, opts: opts, infos: infos, evals: evals, kind: kind,
		plan:     shard.NewPlan(len(corpus), opts.Shards),
		fresh:    true,
		counters: &spineCounters{},
	}
	ns := s.plan.Shards()
	s.engines = make([]*matrixEngine[R], ns)
	// Phase 1: fill each shard's matrix. The fill already fans out across
	// the worker pool per shard, so the shard loop stays sequential.
	for sh := 0; sh < ns; sh++ {
		lo, hi := s.plan.Bounds(sh)
		s.engines[sh] = newMatrixEngine(corpus[lo:hi], di, opts, infos, evals, kind.ident)
	}
	// Phase 2: corpus-global gather — per measure, defined values across
	// shards in global record order, benchmarks selected from them. The
	// input sequence is the same for every partition ⇒ identical column ⇒
	// identical benchmarks.
	nm := len(infos)
	led := newBenchLedger(nm)
	parallel.ForEachChunk(nm, opts.Workers, func(mlo, mhi int) {
		for m := mlo; m < mhi; m++ {
			led.cols[m], led.benchmarks[m] = gatherColumn(s.engines, m, len(corpus), opts)
			led.unsorted[m] = true
		}
	})
	s.ledger = led
	for _, eng := range s.engines {
		eng.benchmarks = led.benchmarks
	}
	// Scope columns, routing metadata (each shard's IDs and scope-bit
	// union) and the global ID→row map.
	sb := newScopeBuilder(nil, kind.scope)
	rt := shard.NewRouter(ns)
	s.col = make(map[int]int, len(corpus))
	for sh := 0; sh < ns; sh++ {
		lo, hi := s.plan.Bounds(sh)
		sc := sb.column(corpus[lo:hi])
		s.engines[sh].scope = sc
		for row := lo; row < hi; row++ {
			id, _ := kind.ident(corpus[row])
			s.col[id] = row
			rt.Note(sh, id, sc.row(row-lo))
		}
	}
	s.router = rt
	s.dict = sb.dict
	return s
}

// gatherColumn collects measure m's defined values across the shard
// engines in global record order — the corpus-global column, independent
// of the partition — and selects its benchmarks. The column comes back
// unsorted.
func gatherColumn[R any](engines []*matrixEngine[R], m, n int, opts AssessorOptions) ([]float64, Benchmark) {
	values := make([]float64, 0, n)
	for _, eng := range engines {
		vrow, prow := eng.vals[m], eng.present[m]
		for c := range prow {
			if prow[c] {
				values = append(values, vrow[c])
			}
		}
	}
	return values, benchmarkOf(values, false, opts)
}

// benchmarkOf derives a Benchmark from a column of defined values — read
// off directly when the column is ascending-sorted, by selection (which
// reorders it) otherwise; both give the same numbers. PlainMinMax reads
// the 0 and 1 quantiles, the column's minimum and maximum.
func benchmarkOf(values []float64, sorted bool, opts AssessorOptions) Benchmark {
	if len(values) == 0 {
		return Benchmark{}
	}
	lo, hi := opts.BenchmarkLoQ, opts.BenchmarkHiQ
	if opts.PlainMinMax {
		lo, hi = 0, 1
	}
	var q []float64
	if sorted {
		q = stats.SortedQuantiles(values, lo, hi)
	} else {
		q = stats.SelectQuantiles(values, lo, hi)
	}
	return Benchmark{Lo: q[0], Hi: q[1]}
}

// benchmarksEqual reports bitwise equality of two benchmark slices — the
// gate for carrying ranked spines across ticks: any benchmark movement
// shifts every normalized value, so a carried ranking would be stale.
func benchmarksEqual(a, b []Benchmark) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].sameBits(b[i]) {
			return false
		}
	}
	return true
}

// assess routes a record to the engine owning its ID's row; off-corpus
// records fall back to shard 0, whose direct-evaluation path normalizes
// against the same shared global benchmarks as every other shard.
func (s *shardedEngine[R]) assess(r *R) *Assessment {
	id, _ := s.kind.ident(r)
	if row, ok := s.col[id]; ok {
		return s.assessRow(r, row, ProjectFull)
	}
	return s.engines[0].assessProject(r, -1, ProjectFull)
}

// assessRow materializes r on the shard engine owning global row row,
// from its matrix column when r is the engine's record there.
func (s *shardedEngine[R]) assessRow(r *R, row int, fields Projection) *Assessment {
	sh := s.plan.Of(row)
	lo, _ := s.plan.Bounds(sh)
	e := s.engines[sh]
	return e.assessProject(r, e.colOf(r, row-lo), fields)
}

func (s *shardedEngine[R]) assessAll(records []*R) []*Assessment {
	out := make([]*Assessment, len(records))
	parallel.ForEachChunk(len(records), s.opts.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = s.assess(records[i])
		}
	})
	return out
}

func (s *shardedEngine[R]) rank(records []*R) []*Assessment {
	out := s.assessAll(records)
	slices.SortFunc(out, func(a, b *Assessment) int {
		return candCmp(leanCand{key: a.Score, id: a.ID}, leanCand{key: b.Score, id: b.ID})
	})
	return out
}

// scores copies every shard's score column into one row-ordered slice.
func (s *shardedEngine[R]) scores() []float64 {
	out := make([]float64, s.plan.Len())
	for sh, eng := range s.engines {
		lo, _ := s.plan.Bounds(sh)
		copy(out[lo:], eng.axisColumn(scoreAxis, &s.counters.columns).v)
	}
	return out
}

// scoreAt runs the score kernel on one global row.
func (s *shardedEngine[R]) scoreAt(row int) float64 {
	sh := s.plan.Of(row)
	lo, _ := s.plan.Bounds(sh)
	return s.engines[sh].scoreAt(row - lo)
}

// benchmarkMap keys the ledger's benchmarks by measure ID.
func (s *shardedEngine[R]) benchmarkMap() map[string]Benchmark {
	out := make(map[string]Benchmark, len(s.infos))
	for m := range s.infos {
		out[s.infos[m].id] = s.ledger.benchmarks[m]
	}
	return out
}

func (s *shardedEngine[R]) measurePos(id string) int { return s.engines[0].measurePos(id) }

// compile checks q against the record kind and resolves it: the
// once-per-execution part of every plan.
func (s *shardedEngine[R]) compile(q Query) (*resolvedQuery, *scopeFilter[R], error) {
	if err := s.kind.foreign(q); err != nil {
		return nil, nil, err
	}
	rq, err := s.engines[0].resolveQuery(q, s.kind.spam)
	if err != nil {
		return nil, nil, err
	}
	return rq, s.compileScope(q), nil
}

// rankTopK is the scatter-gather query plan: every shard the router cannot
// prune runs the same bounded lean scan over its own record range (rows
// offset to global), the per-shard rankings are merged k-way under the
// global strict order, bounded by the page width, and the shared
// materialization finishes the window. A per-shard bound of `width` loses
// nothing: any candidate in the global best `width` is in its own shard's
// best `width`.
// A resume cursor (q.After) makes every scan skip everything at or before
// the cursor's ranked position, so a keyset-paginated page N+1 costs one
// lean pass plus one page of materializations, never the prefix.
func (s *shardedEngine[R]) rankTopK(records []*R, q Query) (*QueryResult, error) {
	if err := s.checkRecords(records); err != nil {
		return nil, err
	}
	rq, sc, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	p, err := pageOf(q)
	if err != nil {
		return nil, err
	}
	if rq.unmatchable {
		return &QueryResult{Items: []*Assessment{}}, nil
	}
	parts, totals := s.scatter(records, q, rq, sc, p, nil)
	merged := shard.MergeK(parts, candBetter, p.width) // an unbounded width of -1 keeps all
	return s.finishWindow(records, merged, p.start, sum(totals), q), nil
}

// checkRecords rejects a record slice that does not line up with the
// engine's rows: scans and materialisation index records by the row plan,
// so a longer slice would silently drop its tail and a shorter one would
// index past its end inside a worker goroutine.
func (s *shardedEngine[R]) checkRecords(records []*R) error {
	if len(records) != s.plan.Len() {
		return fmt.Errorf("quality: %d records passed to an assessor over %d rows", len(records), s.plan.Len())
	}
	return nil
}

// scatter runs the per-shard scans of one query evaluation in parallel.
// Shards the router proves scope-incompatible are skipped: they cannot
// contain a match, so they contribute zero candidates and zero total.
// scanned, when non-nil, gets a counter bump per shard actually scanned.
func (s *shardedEngine[R]) scatter(records []*R, q Query, rq *resolvedQuery, sc *scopeFilter[R], p pageWindow, onScan func(sh int)) (parts [][]leanCand, totals []int) {
	ns := s.plan.Shards()
	parts = make([][]leanCand, ns)
	totals = make([]int, ns)
	parallel.ForEachChunk(ns, s.opts.Workers, func(lo, hi int) {
		for sh := lo; sh < hi; sh++ {
			if sc != nil && !s.router.CanMatch(sh, q.IDs, sc.kinds, sc.cats) {
				continue
			}
			if onScan != nil {
				onScan(sh)
			}
			rlo, rhi := s.plan.Bounds(sh)
			cands, total := s.engines[sh].scanMatches(records[rlo:rhi], rlo, rq, sc, &s.counters.columns, p)
			// Rank the row-ordered matches (the heap-ordered ones of a
			// bounded scan) best-first for the merge.
			rankCands(cands)
			parts[sh], totals[sh] = cands, total
		}
	})
	return parts, totals
}

// spine evaluates the standing query per shard — unbounded, fully ranked —
// and keeps the per-shard decomposition on the Spine so the next round can
// carry clean shards and repair dirty ones.
func (s *shardedEngine[R]) spine(records []*R, q Query) (*Spine, error) {
	if err := s.checkRecords(records); err != nil {
		return nil, err
	}
	rq, sc, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	if rq.unmatchable {
		return &Spine{}, nil
	}
	parts, totals := s.scatter(records, q, rq, sc, pageWindow{width: -1}, func(int) { s.counters.scans.Add(1) })
	merged := shard.MergeK(parts, candBetter, 0)
	return &Spine{cands: merged, total: sum(totals), parts: parts, totals: totals}, nil
}

// window cuts a page out of a sharded spine at the location rankTopK
// scans for, and materializes each row on its owning shard.
func (s *shardedEngine[R]) window(records []*R, sp *Spine, q Query) (*QueryResult, error) {
	if err := s.checkRecords(records); err != nil {
		return nil, err
	}
	p, err := pageOf(q)
	if err != nil {
		return nil, err
	}
	return s.finishWindow(records, p.cut(sp.cands), p.start, sp.total, q), nil
}

// repairSpine is the dirty-shard evaluation path of a standing query: when
// the producing update moved no benchmark and no epoch, clean shards'
// ranked parts are carried forward untouched (a map lookup, not a scan)
// and only dirty shards repair — drop dirty rows, re-evaluate them,
// re-insert. A tick dirtying one shard of N costs one repair and N-1
// carries; the SpineStats counters record exactly that. It refuses (ok
// false) whenever a carried key could be stale: a from-scratch engine, a
// moved observation instant or bitwise-moved benchmarks. prev must be a
// spine for the same scope/predicates/sort built by this engine's
// predecessor; the result is bit-identical to a fresh spine.
func (s *shardedEngine[R]) repairSpine(records []*R, prev *Spine, q Query) (*Spine, bool) {
	ns := s.plan.Shards()
	if prev == nil || s.fresh || s.lastEpochMoved || s.benchChanged || s.checkRecords(records) != nil {
		return nil, false
	}
	if len(prev.parts) != ns || len(prev.totals) != ns {
		return nil, false // differently-sharded spine: no carry
	}
	rq, sc, err := s.compile(q)
	if err != nil || rq.unmatchable {
		return nil, false
	}
	parts := make([][]leanCand, ns)
	totals := make([]int, ns)
	for sh := 0; sh < ns; sh++ {
		if len(s.dirtyLocal[sh]) == 0 {
			parts[sh], totals[sh] = prev.parts[sh], prev.totals[sh]
			s.counters.carries.Add(1)
			continue
		}
		rlo, _ := s.plan.Bounds(sh)
		parts[sh] = s.engines[sh].repairCands(records, rlo, s.dirtyLocal[sh], prev.parts[sh], rq, sc)
		totals[sh] = len(parts[sh])
		s.counters.repairs.Add(1)
	}
	merged := shard.MergeK(parts, candBetter, 0)
	return &Spine{cands: merged, total: sum(totals), parts: parts, totals: totals}, true
}

// finishWindow materializes a page of global-row candidates, routing each
// record to its owning shard's matrix, and assembles the shared envelope.
func (s *shardedEngine[R]) finishWindow(records []*R, cands []leanCand, start, total int, q Query) *QueryResult {
	items := make([]*Assessment, len(cands))
	parallel.ForEachChunk(len(cands), s.opts.Workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := cands[j].row
			items[j] = s.assessRow(records[row], row, q.Fields)
		}
	})
	return windowResult(items, cands, start, total, q)
}

// update derives the engine for an advanced corpus. Only shards the delta
// touched (plus every shard when the epoch moved, since time-sensitive
// columns shift wholesale) rebuild their matrices; clean shards share
// their columns and only remap record pointers. The benchmark ledger is
// repaired from the dirty rows' old and new values in one batch merge per
// measure — O(column + dirty) instead of O(corpus × measures) — and the
// router unions the dirty shards' new routing facts copy-on-write, so
// concurrent readers of the previous snapshot never see a mutation.
//
//informer:mutates fills the derived successor coordinator before it is published
func (s *shardedEngine[R]) update(corpus []*R, dirty []int, epochMoved bool) *shardedEngine[R] {
	n := s.plan.Len()
	if len(corpus) != n {
		// Population changed shape: rebuild from scratch (same knobs).
		return newShardedEngine(corpus, s.di, s.opts, s.infos, s.evals, s.kind)
	}
	ns := s.plan.Shards()
	split := s.plan.SplitRows(dirty)
	ne := &shardedEngine[R]{
		di: s.di, opts: s.opts, infos: s.infos, evals: s.evals, kind: s.kind,
		plan:           s.plan,
		lastEpochMoved: epochMoved,
		dirtyLocal:     split,
		counters:       &spineCounters{},
	}
	var dirtyShards []int
	for sh := 0; sh < ns; sh++ {
		if len(split[sh]) > 0 {
			dirtyShards = append(dirtyShards, sh)
		}
	}
	// Phase 1: repair the touched shards' matrices (all of them when the
	// epoch moved — every time-sensitive column shifts) and their dirty
	// rows' scope bits.
	ne.engines = make([]*matrixEngine[R], ns)
	cur := make([]*matrixEngine[R], ns) // matrix to read post-update values from
	sb := newScopeBuilder(s.dict, s.kind.scope)
	for sh := 0; sh < ns; sh++ {
		cur[sh] = s.engines[sh]
		if len(split[sh]) > 0 || epochMoved {
			lo, hi := s.plan.Bounds(sh)
			ne.engines[sh] = s.engines[sh].updateMatrix(corpus[lo:hi], split[sh], epochMoved, sb)
			cur[sh] = ne.engines[sh]
		}
	}
	ne.dict = sb.dict
	// Phase 2: repair the global ledger. Per measure: epoch-moved
	// time-sensitive columns re-gather wholesale (their values shifted for
	// every record); every other column batch-repairs the retained column
	// from the dirty rows' old and new values, however many rows are
	// dirty, so a column sorted once stays sorted.
	nm := len(s.infos)
	old := s.ledger
	led := newBenchLedger(nm)
	parallel.ForEachChunk(nm, s.opts.Workers, func(mlo, mhi int) {
		for m := mlo; m < mhi; m++ {
			switch {
			case s.infos[m].timeSensitive && epochMoved:
				led.cols[m], led.benchmarks[m] = gatherColumn(cur, m, n, s.opts)
				led.unsorted[m] = true
			default:
				var removes, inserts []float64
				for _, sh := range dirtyShards {
					oldE, newE := s.engines[sh], ne.engines[sh]
					if len(split[sh]) > 0 && &newE.vals[m][0] == &oldE.vals[m][0] {
						continue // row still shared: no cell of this measure moved
					}
					for _, c := range split[sh] {
						oldV, oldOk := oldE.vals[m][c], oldE.present[m][c]
						v, ok := newE.vals[m][c], newE.present[m][c]
						if sameCell(v, ok, oldV, oldOk) {
							continue // value unchanged: column unaffected
						}
						if oldOk {
							removes = append(removes, oldV)
						}
						if ok {
							inserts = append(inserts, v)
						}
					}
				}
				if len(removes) == 0 && len(inserts) == 0 {
					led.cols[m], led.unsorted[m], led.benchmarks[m] = old.cols[m], old.unsorted[m], old.benchmarks[m]
					continue
				}
				col := old.cols[m]
				if old.unsorted[m] {
					// The published column stays as readers left it; the
					// repair sorts its own copy.
					col = slices.Clone(col)
					slices.Sort(col)
				}
				led.cols[m] = stats.SortedBatchRepair(col, removes, inserts)
				led.benchmarks[m] = benchmarkOf(led.cols[m], true, s.opts)
			}
		}
	})
	ne.ledger = led
	ne.benchChanged = !benchmarksEqual(old.benchmarks, led.benchmarks)
	if !ne.benchChanged {
		// Bitwise-unchanged benchmarks: keep the previous slice object so
		// untouched engines and the ledger stay coherent by identity.
		led.benchmarks = old.benchmarks
	}
	for sh := 0; sh < ns; sh++ {
		if ne.engines[sh] != nil {
			ne.engines[sh].benchmarks = led.benchmarks
			continue
		}
		// Clean shard: share its matrix, remap the refreshed record
		// pointers onto it.
		lo, hi := s.plan.Bounds(sh)
		ne.engines[sh] = s.engines[sh].remap(corpus[lo:hi], led.benchmarks)
	}
	// Routing metadata: OR only the dirty rows' current scope bits into
	// copy-on-write copies of their shards' unions; clean shards share the
	// old ones. A union grows monotonically — a fact a refreshed record
	// dropped lingers in its shard's union — which is sound (the router is
	// a may-match filter; stale bits only forfeit pruning opportunities,
	// never rows) and keeps routing maintenance O(dirty), not O(shard).
	rt := s.router.Derive(dirtyShards)
	for _, sh := range dirtyShards {
		lo, _ := s.plan.Bounds(sh)
		sc := ne.engines[sh].scope
		for _, c := range split[sh] {
			id, _ := s.kind.ident(corpus[lo+c])
			rt.Note(sh, id, sc.row(c))
		}
	}
	ne.router = rt
	// Same shape, same IDs, same rows: the routing map carries over.
	ne.col = s.col
	return ne
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
