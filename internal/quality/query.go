package quality

// Query is the declarative read request of the quality-driven filtering
// stack — the paper's headline consumption pattern ("observers consume
// filtered, ranked slices, not whole corpora") as a first-class value. One
// Query scopes the candidate records, filters them by quality predicates,
// ranks the survivors by a chosen axis and returns a paginated window —
// and the same value is understood by every layer: the assessors execute
// it below ranking (bounded top-k selection over the cached measure matrix
// instead of sorting all N assessments), the mashup data services compile
// their parameters to it, and internal/apiserve binds it from HTTP query
// strings (DESIGN.md sections 7 and 8).
//
// The zero Query matches every record, ranks by overall score and returns
// everything — exactly the historical Rank behaviour.
//
// Pagination is keyset only: Limit bounds a page and Query.After, a
// Cursor naming the last row already consumed, resumes the walk. Page N+1
// costs the same lean pass as page 1 because the scan skips — never ranks
// — everything at or before the cursor. Executed results report the
// resume cursor of the next page in QueryResult.Next.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/informing-observers/informer/internal/shard"
)

// Projection selects how much of each Assessment a query materializes.
type Projection int

const (
	// ProjectFull materializes the complete Assessment, including the
	// per-measure Raw and Normalized maps.
	ProjectFull Projection = iota
	// ProjectScores skips the per-measure maps and keeps only Score,
	// DimensionScores and AttributeScores — the serving-path projection
	// (roughly halves the allocation cost per returned item).
	ProjectScores
)

// SortBy names the ranking axis of a Query.
type SortBy int

const (
	// SortByScore ranks by the overall weighted score (the default).
	SortByScore SortBy = iota
	// SortByDimension ranks by one data-quality dimension's average.
	SortByDimension
	// SortByAttribute ranks by one Web 2.0 attribute's average.
	SortByAttribute
	// SortByInfluence ranks contributors by their influence under one
	// InfluencerStrategy (Section 3.2). Contributor queries only.
	SortByInfluence
)

// SortKey is the ranking axis: the overall score, one dimension, one
// attribute or, for contributors, one influence strategy. Ranking is
// always best-first with ties broken by ascending ID (the historical Rank
// order); records for which the axis is undefined sort last.
type SortKey struct {
	By        SortBy
	Dimension Dimension          // read when By == SortByDimension
	Attribute Attribute          // read when By == SortByAttribute
	Strategy  InfluencerStrategy // read when By == SortByInfluence
}

// Cursor is a keyset-pagination bound: the ranked position of the last row
// a walk has consumed. Key is that row's sort-axis value and ID its record
// ID — together they name one position in the strict (key desc, ID asc)
// ranking order, so "everything after the cursor" is well defined even if
// rows enter or leave the ranking between pages. Pos is the number of rows
// consumed before the resumed page; it budgets TopK across pages and is
// advisory (resume correctness comes from Key and ID alone).
//
// Cursors are produced by query execution (QueryResult.Next) and consumed
// via Query.After; the HTTP layer transports them as opaque strings
// (internal/apiserve, DESIGN.md section 8).
type Cursor struct {
	Key float64
	ID  int
	Pos int
}

// Query is a composable read request over an assessed corpus. Fields
// combine with AND semantics; zero values mean "no restriction". Build one
// literally or through the fluent builder in the root informer package.
type Query struct {
	// IDs restricts candidates to the given record IDs (a search result
	// set, a crawl frontier, an explicit watchlist).
	IDs []int
	// Categories restricts candidates to records active in at least one of
	// the given content categories: sources with a discussion in a
	// category, contributors with a comment in one.
	Categories []string
	// Kinds restricts source candidates by source kind ("blog", "forum",
	// "review-site", "social-network"). Source queries only.
	Kinds []string

	// MinScore keeps records whose overall weighted score clears the bar.
	MinScore float64
	// MinDimension keeps records whose per-dimension average clears the
	// bar; records lacking the dimension entirely never match.
	MinDimension map[Dimension]float64
	// MinAttribute likewise thresholds per-attribute averages.
	MinAttribute map[Attribute]float64
	// MinMeasure thresholds individual normalized measure values by
	// catalogue ID; unknown IDs are an error.
	MinMeasure map[string]float64
	// MinSpamResistance keeps contributors whose relative reaction signal
	// (the per-contribution reaction rates of Section 3.2, the quantity
	// that is near zero for spammers and bots regardless of their volume)
	// clears the bar. Contributor queries only.
	MinSpamResistance float64
	// MinInteractions keeps contributors with at least this many
	// interactions (their absolute activity volume). Contributor queries
	// only.
	MinInteractions int

	// Sort is the ranking axis (zero value: overall score, best first).
	Sort SortKey
	// TopK bounds the ranked selection to the k best matches before
	// pagination (0 = unbounded). Execution with a bound never sorts the
	// full corpus: matches stream through a bounded heap and only the
	// winners are materialized.
	TopK int
	// Limit bounds the width of one page of ranked matches (0 = no
	// bound).
	Limit int
	// After resumes a keyset-paginated walk strictly after the cursor's
	// ranked position (see Cursor); nil is the first page.
	After *Cursor
	// Fields selects the materialization (ProjectFull or ProjectScores).
	Fields Projection
}

// QueryResult is one executed Query.
type QueryResult struct {
	// Items is the requested window of the ranked matches, best first.
	Items []*Assessment
	// Total counts every record matching the scope and predicates, before
	// top-k selection and pagination — the pagination envelope's total.
	// The cursor never narrows it: every page of one walk reports the same
	// Total.
	Total int
	// Start is the rank index of the window's first item: the cursor's
	// Pos (clamped at 0) on a resumed page, 0 on the first.
	Start int
	// Next resumes the walk on the following page (set it as the next
	// Query's After). Nil when the walk is exhausted — the window reached
	// Total, the TopK bound, or came back empty.
	Next *Cursor
	// cands are the ranked candidates behind Items, aligned with them:
	// their rows pair each item with its record (InfluencersOf).
	cands []leanCand
}

// Query executes q over the records: scope and predicates filter below the
// ranking, the survivors are ranked by q.Sort, and only the requested
// window is materialized. With a selection bound (TopK and/or Limit) the
// matches stream through a bounded heap — O(N log k) with O(k)
// materializations — instead of assessing and sorting the whole corpus.
// Results are bit-identical to filtering and slicing Rank's output. A
// field the record kind lacks is an error: Kinds on contributors;
// MinSpamResistance, MinInteractions and SortByInfluence on sources. So is
// a record slice whose length is not the assessor's row count: records
// are read row for row (a record may be replaced, not added or removed).
// Spine and Window check the same; RepairSpine answers ok=false.
func (a *Assessor[R]) Query(records []*R, q Query) (*QueryResult, error) {
	return a.engine.rankTopK(records, q)
}

// Spine evaluates q's scope, predicates and sort over every record and
// returns the full ranked candidate list — the standing-filter evaluation
// of the filter-placement idea: rank once per assessment round, then fan
// any number of windows (cursor pages, watch diffs) out of it via Window
// at O(window) cost each. TopK, Limit, After and Fields are ignored here;
// they apply at Window time. It rejects what Query rejects.
func (a *Assessor[R]) Spine(records []*R, q Query) (*Spine, error) {
	return a.engine.spine(records, q)
}

// Window slices one page out of a previously built Spine and materializes
// it under q's TopK/Limit/After/Fields. The spine must have been
// built by this assessor over the same records with the same scope,
// predicates and sort; the result is then bit-identical to Query(records,
// q) at a fraction of the cost.
func (a *Assessor[R]) Window(records []*R, sp *Spine, q Query) (*QueryResult, error) {
	return a.engine.window(records, sp, q)
}

// RepairSpine derives the current round's spine for q from prev — built by
// this assessor's predecessor over the previous round's records — by
// re-evaluating only the rows the producing UpdateRows dirtied. ok is
// false whenever a carry could be stale (fresh assessor, epoch moved,
// benchmarks changed, invalid query — a field the record kind lacks
// included); fall back to Spine then. On success the result is
// bit-identical to a fresh Spine call.
func (a *Assessor[R]) RepairSpine(records []*R, prev *Spine, q Query) (*Spine, bool) {
	return a.engine.repairSpine(records, prev, q)
}

// RankTopK returns the k best records, best first — shorthand for a Query
// with only TopK set.
func (a *Assessor[R]) RankTopK(records []*R, k int) []*Assessment {
	res, err := a.Query(records, Query{TopK: k})
	if err != nil {
		panic(err) // unreachable: a bare top-k query cannot be invalid
	}
	return res.Items
}

// recordKind is what the one assessment engine needs to know of a record
// type beyond its measure catalogue.
type recordKind[R any] struct {
	// name is the kind's Report.Kind.
	name string
	// ident returns a record's ID and name.
	ident func(*R) (id int, name string)
	// note records a record's routing facts in its shard's router entry.
	note func(*shard.Router, int, *R)
	// keep compiles a query's scope fields into a record predicate, nil
	// when the query is unscoped.
	keep func(Query) func(*R) bool
	// scope lists a record's scope facts, the values the scope column
	// interns (scope.go).
	scope func(*R, func(v string, kind bool))
	// foreign rejects a query setting a field the kind lacks.
	foreign func(Query) error
	// spam lists the measures whose normalized average MinSpamResistance
	// thresholds.
	spam []string
}

var sourceKind = &recordKind[SourceRecord]{
	name:  "sources",
	ident: func(r *SourceRecord) (int, string) { return r.ID, r.Name },
	note:  noteSourceRoute,
	keep:  sourceKeep,
	scope: sourceScope,
	foreign: func(q Query) error {
		switch {
		case q.MinSpamResistance > 0:
			return fmt.Errorf("quality: MinSpamResistance applies to contributor queries only")
		case q.MinInteractions > 0:
			return fmt.Errorf("quality: MinInteractions applies to contributor queries only")
		case q.Sort.By == SortByInfluence:
			return fmt.Errorf("quality: SortByInfluence applies to contributor queries only")
		}
		return nil
	},
}

var contributorKind = &recordKind[ContributorRecord]{
	name:  "contributors",
	ident: func(r *ContributorRecord) (int, string) { return r.ID, r.Name },
	note:  noteContributorRoute,
	keep:  contributorKeep,
	scope: contributorScope,
	foreign: func(q Query) error {
		if len(q.Kinds) > 0 {
			return fmt.Errorf("quality: Kinds applies to source queries only")
		}
		return nil
	},
	spam: relativeReactionMeasures,
}

// sourceKeep compiles the source-scope fields into a record predicate, or
// nil when the query is unscoped.
func sourceKeep(q Query) func(*SourceRecord) bool {
	if len(q.IDs) == 0 && len(q.Categories) == 0 && len(q.Kinds) == 0 {
		return nil
	}
	idSet := intSet(q.IDs)
	kindSet := stringSet(q.Kinds)
	catSet := stringSet(q.Categories)
	return func(r *SourceRecord) bool {
		if idSet != nil && !idSet[r.ID] {
			return false
		}
		if kindSet != nil && !kindSet[r.Kind] {
			return false
		}
		if catSet != nil {
			found := false
			for i := range r.Discussions {
				if catSet[r.Discussions[i].Category] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
}

// contributorKeep compiles the contributor-scope fields into a predicate.
func contributorKeep(q Query) func(*ContributorRecord) bool {
	if len(q.IDs) == 0 && len(q.Categories) == 0 && q.MinInteractions <= 0 {
		return nil
	}
	idSet := intSet(q.IDs)
	catSet := stringSet(q.Categories)
	return func(r *ContributorRecord) bool {
		if r.Interactions < q.MinInteractions {
			return false
		}
		if idSet != nil && !idSet[r.ID] {
			return false
		}
		if catSet != nil {
			found := false
			for cat, n := range r.CommentsByCategory {
				if n > 0 && catSet[cat] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
}

func intSet(xs []int) map[int]bool {
	if len(xs) == 0 {
		return nil
	}
	s := make(map[int]bool, len(xs))
	for _, x := range xs {
		s[x] = true
	}
	return s
}

func stringSet(xs []string) map[string]bool {
	if len(xs) == 0 {
		return nil
	}
	s := make(map[string]bool, len(xs))
	for _, x := range xs {
		s[x] = true
	}
	return s
}

// leanBuf holds the reusable scratch of the lean (map-free) evaluation of
// one record during a query scan. Reusing one buffer across the scan keeps
// the filter-and-rank pass allocation-free.
type leanBuf struct {
	raw            []float64
	def            []bool
	norm           []float64
	dimSum, dimCnt []float64
	attSum, attCnt []float64
	score          float64
}

func (e *matrixEngine[R]) newLeanBuf() *leanBuf {
	nm := len(e.infos)
	return &leanBuf{
		raw:    make([]float64, nm),
		def:    make([]bool, nm),
		norm:   make([]float64, nm),
		dimSum: make([]float64, e.nDims),
		dimCnt: make([]float64, e.nDims),
		attSum: make([]float64, e.nAtts),
		attCnt: make([]float64, e.nAtts),
	}
}

// leanEval computes one record's score, axis accumulators and normalized
// values into b without building any maps. The arithmetic — accumulation
// order, weighting, normalisation — is exactly assessProject's, so every
// number a query filters or sorts on is bit-identical to the materialized
// Assessment.
func (e *matrixEngine[R]) leanEval(r *R, b *leanBuf) {
	nm := len(e.infos)
	if c, cached := e.col[r]; cached {
		for m := 0; m < nm; m++ {
			b.raw[m] = e.vals[m][c]
			b.def[m] = e.present[m][c]
		}
	} else {
		for m := range e.evals {
			b.raw[m], b.def[m] = e.evals[m](r, &e.di)
		}
	}
	for i := range b.dimSum {
		b.dimSum[i], b.dimCnt[i] = 0, 0
	}
	for i := range b.attSum {
		b.attSum[i], b.attCnt[i] = 0, 0
	}
	var wSum, wTotal float64
	for m := 0; m < nm; m++ {
		if !b.def[m] {
			b.norm[m] = 0
			continue
		}
		info := &e.infos[m]
		n := e.benchmarks[m].Normalize(b.raw[m], info.higherIsBetter)
		b.norm[m] = n
		w := e.weights[m]
		wSum += w * n
		wTotal += w
		b.dimSum[int(info.dimension)+e.dimOff] += n
		b.dimCnt[int(info.dimension)+e.dimOff]++
		b.attSum[int(info.attribute)+e.attOff] += n
		b.attCnt[int(info.attribute)+e.attOff]++
	}
	b.score = 0
	if wTotal > 0 {
		b.score = wSum / wTotal
	}
}

// leanCand is one match surviving the predicates: its sort key and the
// identifiers needed to rank and materialize it.
type leanCand struct {
	key float64
	id  int
	row int
}

// axisThreshold is a resolved per-axis predicate: the slot of its axis in
// resolvedQuery.axes (the axis itself while resolving) and the bar.
type axisThreshold struct {
	idx int
	v   float64
}

// resolvedQuery holds a Query's predicate and sort targets resolved against
// the engine's catalogue — the once-per-execution part of the lean scan.
// Every target is a slot: axes lists the distinct ranking axes the
// predicates and the sort key read, measures the catalogue positions of
// the MinMeasure bars followed by the MinSpamResistance measures.
type resolvedQuery struct {
	axes     []int
	preds    []axisThreshold // slots into axes
	sortSlot int
	measures []int
	// minMeasure[i] is the bar on measures[i]; measures past it feed the
	// minSpam average.
	minMeasure []float64
	minSpam    float64
	// unmatchable flags a per-axis predicate on an axis absent from the
	// catalogue: no record can ever clear it.
	unmatchable bool
}

// slot returns axis a's slot in rq.axes, adding it on first use.
func (rq *resolvedQuery) slot(a int) int {
	for j, x := range rq.axes {
		if x == a {
			return j
		}
	}
	rq.axes = append(rq.axes, a)
	return len(rq.axes) - 1
}

// resolveQuery resolves predicate and sort targets against the catalogue.
// spam lists the measures behind MinSpamResistance.
func (e *matrixEngine[R]) resolveQuery(q Query, spam []string) (*resolvedQuery, error) {
	rq := &resolvedQuery{minSpam: q.MinSpamResistance}
	if len(q.MinMeasure) > 0 {
		ids := make([]string, 0, len(q.MinMeasure))
		for id := range q.MinMeasure {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			m := e.measurePos(id)
			if m < 0 {
				return nil, fmt.Errorf("quality: unknown measure %q in query", id)
			}
			rq.measures = append(rq.measures, m)
			rq.minMeasure = append(rq.minMeasure, q.MinMeasure[id])
		}
	}
	if q.MinSpamResistance > 0 {
		for _, id := range spam {
			if m := e.measurePos(id); m >= 0 {
				rq.measures = append(rq.measures, m)
			}
		}
	}
	rq.preds = append(rq.preds, axisThreshold{rq.slot(scoreAxis), q.MinScore})
	var bars []axisThreshold // per-axis bars by axis, then by slot
	for d, v := range q.MinDimension {
		idx := int(d) + e.dimOff
		if idx < 0 || idx >= e.nDims {
			rq.unmatchable = true // dimension absent from the catalogue
			continue
		}
		bars = append(bars, axisThreshold{e.dimAxis(idx), v})
	}
	for at, v := range q.MinAttribute {
		idx := int(at) + e.attOff
		if idx < 0 || idx >= e.nAtts {
			rq.unmatchable = true
			continue
		}
		bars = append(bars, axisThreshold{e.attAxis(idx), v})
	}
	sort.Slice(bars, func(i, j int) bool { return bars[i].idx < bars[j].idx })
	for _, th := range bars {
		rq.preds = append(rq.preds, axisThreshold{rq.slot(th.idx), th.v})
	}
	switch q.Sort.By {
	case SortByScore:
		rq.sortSlot = rq.slot(scoreAxis)
	case SortByDimension:
		idx := int(q.Sort.Dimension) + e.dimOff
		if idx < 0 || idx >= e.nDims {
			return nil, fmt.Errorf("quality: sort dimension %s not in catalogue", q.Sort.Dimension)
		}
		rq.sortSlot = rq.slot(e.dimAxis(idx))
	case SortByAttribute:
		idx := int(q.Sort.Attribute) + e.attOff
		if idx < 0 || idx >= e.nAtts {
			return nil, fmt.Errorf("quality: sort attribute %s not in catalogue", q.Sort.Attribute)
		}
		rq.sortSlot = rq.slot(e.attAxis(idx))
	case SortByInfluence:
		if q.Sort.Strategy < 0 || int(q.Sort.Strategy) >= numStrategies {
			return nil, fmt.Errorf("quality: unknown influencer strategy %d", q.Sort.Strategy)
		}
		rq.sortSlot = rq.slot(e.infAxis(q.Sort.Strategy))
	default:
		return nil, fmt.Errorf("quality: unknown sort key %d", q.Sort.By)
	}
	return rq, nil
}

// match is the one predicate and sort-key function of every scan, repair
// and re-evaluation: it decides row v against the resolved predicates and
// returns its sort key. Column scans and leanEval fill v with bitwise the
// same numbers, so every path filters and ranks identically.
func (rq *resolvedQuery) match(v *rowAxes) (key float64, ok bool) {
	for _, th := range rq.preds {
		if !v.axisOK[th.idx] || v.axis[th.idx] < th.v {
			return 0, false
		}
	}
	for j, bar := range rq.minMeasure {
		if !v.normOK[j] || v.norm[j] < bar {
			return 0, false
		}
	}
	if rq.minSpam > 0 {
		var sum float64
		n := 0
		for j := len(rq.minMeasure); j < len(rq.measures); j++ {
			if v.normOK[j] {
				sum += v.norm[j]
				n++
			}
		}
		if n == 0 || sum/float64(n) < rq.minSpam {
			return 0, false
		}
	}
	if v.axisOK[rq.sortSlot] {
		key = v.axis[rq.sortSlot]
	}
	return key, true
}

// scanMatches is the lean pass shared by rankTopK and spine: scope,
// predicates and sort keys read off the axis columns for the engine's own
// records (leanEval for any other), no maps, no Assessment structs. Every
// match counts toward total; the candidates ranking strictly after the
// page's after-bound are kept — none when its width is 0, all of them when
// it is unbounded, the best `width` through a min-heap otherwise. rowOff
// shifts stored row indices: a shard engine scanning its local record
// slice passes its global range start so candidates carry global rows and
// merge directly into the corpus-wide ranking. built counts the axis
// columns the scan builds. An unbounded scan appends into pooled scratch
// and returns an exact-size copy, so a spine part costs its own bytes,
// not the growth of an append.
func (e *matrixEngine[R]) scanMatches(records []*R, rowOff int, rq *resolvedQuery, sc *scopeFilter[R], built *atomic.Int64, p pageWindow) ([]leanCand, int) {
	rr := e.newRowReader(rq, built)
	var cands []leanCand
	var scratch *[]leanCand
	switch {
	case p.width > 0:
		// Never keep more candidates than records.
		cands = make([]leanCand, 0, min(p.width, len(records)))
	case p.width < 0:
		scratch = scanScratchPool.Get().(*[]leanCand)
		cands = (*scratch)[:0]
	}
	total := 0
	for i, r := range records {
		c, ok := rr.cand(r, i, rowOff+i, sc)
		if !ok {
			continue
		}
		total++
		if p.width == 0 {
			continue // the TopK budget is spent: only count
		}
		if p.after != nil && !candWorse(c, *p.after) {
			// At or before the resume cursor: already consumed by an
			// earlier page. Counted in total, never ranked.
			continue
		}
		if p.width < 0 {
			cands = append(cands, c)
			continue
		}
		// Bounded min-heap of the best `width` candidates: the root is the
		// worst kept; a better candidate replaces it.
		if len(cands) < p.width {
			cands = append(cands, c)
			siftUp(cands, len(cands)-1)
		} else if candWorse(cands[0], c) {
			cands[0] = c
			siftDown(cands, 0)
		}
	}
	if scratch != nil {
		kept := append([]leanCand(nil), cands...)
		*scratch = cands[:0]
		scanScratchPool.Put(scratch)
		cands = kept
	}
	return cands, total
}

var scanScratchPool = sync.Pool{New: func() any { return new([]leanCand) }}

// pageWindow is where one requested page sits in a ranking — the three
// numbers both query plans take from pageOf: rankTopK bounds its scans and
// merge with them, window cuts them out of a ranked spine.
type pageWindow struct {
	// start is the rank index of the page's first item: the cursor's Pos
	// clamped at 0, 0 on a first page.
	start int
	// after is the exclusive resume bound, the cursor's ranked position;
	// nil on a first page.
	after *leanCand
	// width caps the page at min(TopK − start, Limit): 0 is an empty page
	// (the TopK budget is spent), -1 an unbounded one.
	width int
}

// pageOf validates q's resume cursor and locates its page. Every width is
// compared, never added to start, so no TopK, Limit or Pos can overflow.
func pageOf(q Query) (pageWindow, error) {
	p := pageWindow{width: -1}
	if c := q.After; c != nil {
		if math.IsNaN(c.Key) || c.ID < 0 {
			return p, fmt.Errorf("quality: invalid resume cursor")
		}
		p.start = max(c.Pos, 0)
		p.after = &leanCand{key: c.Key, id: c.ID}
	}
	if q.TopK > 0 {
		p.width = max(q.TopK-p.start, 0)
	}
	if q.Limit > 0 && (p.width < 0 || q.Limit < p.width) {
		p.width = q.Limit
	}
	return p, nil
}

// cut slices the page out of a fully ranked, best-first candidate list:
// a binary search for the first row after the cursor, then the width.
func (p pageWindow) cut(ranked []leanCand) []leanCand {
	if p.after != nil {
		a := *p.after
		ranked = ranked[sort.Search(len(ranked), func(i int) bool { return candWorse(ranked[i], a) }):]
	}
	if p.width >= 0 && p.width < len(ranked) {
		ranked = ranked[:p.width]
	}
	return ranked
}

// Spine is the fully ranked candidate list of one (scope, predicates,
// sort) evaluation over a record set: every match, best first, before any
// TopK/pagination windowing. Build it once per assessment round per
// standing query and slice windows out of it with Window.
type Spine struct {
	cands []leanCand
	total int
	// parts and totals are the per-shard decomposition of the spine:
	// parts[s] holds shard s's ranked candidates (cands is their k-way
	// merge, aliasing parts[s] when only one shard matched) and totals[s]
	// its match count. The next assessment round carries clean shards'
	// parts forward untouched and repairs only the dirty ones.
	parts  [][]leanCand
	totals []int
}

// Total counts the matches in the spine.
func (sp *Spine) Total() int { return sp.total }

// repairCands is one shard's spine repair: drop the dirty rows' carried
// candidates, re-evaluate the dirty records against the current matrix,
// and re-insert the survivors at their ranked positions, at
// O(prev + dirty·log) instead of O(shard) cost. rowOff is the shard's
// global record-range start; dirtyLocal indexes records relative to it,
// while prev, records and the result all use global rows.
func (e *matrixEngine[R]) repairCands(records []*R, rowOff int, dirtyLocal []int, prev []leanCand, rq *resolvedQuery, sc *scopeFilter[R]) []leanCand {
	dirty := make(map[int]bool, len(dirtyLocal))
	for _, c := range dirtyLocal {
		dirty[rowOff+c] = true
	}
	// Carry every clean row's candidate; dirty rows re-qualify from scratch.
	cands := make([]leanCand, 0, len(prev)+len(dirtyLocal))
	for _, c := range prev {
		if !dirty[c.row] {
			cands = append(cands, c)
		}
	}
	rr := e.newRowReader(rq, nil) // leanEval only: building a column is O(shard)
	for _, c0 := range dirtyLocal {
		row := rowOff + c0
		if row < 0 || row >= len(records) {
			continue
		}
		c, ok := rr.cand(records[row], c0, row, sc)
		if !ok {
			continue
		}
		i := sort.Search(len(cands), func(i int) bool { return candWorse(cands[i], c) })
		cands = append(cands, leanCand{})
		copy(cands[i+1:], cands[i:])
		cands[i] = c
	}
	return cands
}

// windowResult assembles the QueryResult envelope around a materialized
// page and derives the next page's resume cursor — the one envelope
// rankTopK and window both emit.
func windowResult(items []*Assessment, cands []leanCand, start, total int, q Query) *QueryResult {
	effTotal := total
	if q.TopK > 0 && q.TopK < effTotal {
		effTotal = q.TopK
	}
	consumed := start + len(items)
	if consumed < start {
		consumed = math.MaxInt // absurd cursor Pos: saturate instead of wrapping
	}
	var next *Cursor
	if len(items) > 0 && consumed < effTotal {
		last := cands[len(cands)-1]
		next = &Cursor{Key: last.key, ID: last.id, Pos: consumed}
	}
	return &QueryResult{Items: items, Total: total, Start: start, Next: next, cands: cands}
}

// siftUp restores the min-heap property (candWorse order) after an append.
func siftUp(h []leanCand, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !candWorse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the min-heap property after replacing the root.
func siftDown(h []leanCand, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && candWorse(h[l], h[worst]) {
			worst = l
		}
		if r < len(h) && candWorse(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// measurePos returns the catalogue position of a measure ID, or -1.
func (e *matrixEngine[R]) measurePos(id string) int {
	for m := range e.infos {
		if e.infos[m].id == id {
			return m
		}
	}
	return -1
}

// ParseDimension resolves a dimension by its String name ("accuracy",
// "time", ...) — the inverse used by HTTP query binding.
func ParseDimension(s string) (Dimension, bool) {
	for _, d := range Dimensions() {
		if d.String() == s {
			return d, true
		}
	}
	return 0, false
}

// ParseAttribute resolves an attribute by its String name ("relevance",
// "traffic", ...).
func ParseAttribute(s string) (Attribute, bool) {
	for _, a := range []Attribute{Relevance, Breadth, Traffic, Activity, Liveliness} {
		if a.String() == s {
			return a, true
		}
	}
	return 0, false
}
