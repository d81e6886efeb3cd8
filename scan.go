package informer

// The comment scan is the shared single pass behind the corpus-wide text
// analytics: SentimentByCategory and TrendingTerms used to walk every
// source, discussion and comment independently (and the sentiment path
// additionally rebuilt its analyzer per call). The scan walks the corpus
// once, scoring sources in parallel — each worker owns a contiguous chunk
// of sources and produces a per-source partial, so the merged result never
// depends on scheduling — and caches both the DI-scoped per-category
// sentiment cells and the per-category/background term counts.
//
// The per-source partials are retained: after an Advance tick the next
// snapshot inherits them and re-scans only the sources the tick touched
// (per-source invalidation instead of wholesale), then re-merges. Because
// a partial is an exact function of one source's content, the merged
// result is bit-identical to a from-scratch scan of the advanced world.

import (
	"slices"
	"sort"
	"sync"

	"github.com/informing-observers/informer/internal/buzz"
	"github.com/informing-observers/informer/internal/parallel"
	"github.com/informing-observers/informer/internal/sentiment"
	"github.com/informing-observers/informer/internal/webgen"
)

// sentimentCell accumulates the comment sentiment of one (category,
// source) pair.
type sentimentCell struct {
	sum float64
	n   int
}

// commentScan is the cached result of one pass over every comment.
type commentScan struct {
	// sentiByCatSource holds DI-scoped sentiment accumulation:
	// category -> source ID -> cell.
	sentiByCatSource map[string]map[int]*sentimentCell
	// fgByCategory counts terms per discussion category (all categories,
	// DI or not — TrendingTerms takes the category verbatim); bg is the
	// background over every comment in the corpus.
	fgByCategory map[string]*buzz.Counts
	bg           *buzz.Counts
	// partials[i] is the scan of source row i, retained for per-source
	// invalidation across Advance ticks.
	partials []*sourcePartial

	// indicators caches the aggregated per-category SentimentIndicator map
	// (built once per assessment round, on first demand). The scan struct
	// is rebuilt per snapshot, so the cache can never leak a previous
	// round's quality weights. The map is shared by every caller — it is
	// immutable by convention.
	indicatorsOnce sync.Once
	indicators     map[string]sentiment.Indicator
}

// sourcePartial is one worker's scan of a single source. Sentiment cells
// are keyed by category only: a partial belongs to exactly one source, so
// merging never reorders floating-point additions within a cell.
type sourcePartial struct {
	senti map[string]*sentimentCell
	fg    map[string]*buzz.Counts
	bg    *buzz.Counts
}

// inheritScan carries the previous snapshot's comment scan into the next
// one, marking the delta's dirty sources stale. If the previous snapshot
// never scanned (the pass is lazy), any pending staleness it inherited is
// propagated instead, so a chain of unread ticks still resolves to a
// minimal re-scan.
//
//informer:mutates fills the successor snapshot before publishAdvance swaps it in
func (st *assessState) inheritScan(prev *assessState, delta interface{ DirtySourceIDs() []int }) {
	prev.scanMu.Lock()
	base, stale := prev.scan, map[int]bool{}
	if base == nil {
		base = prev.scanBase
		for row := range prev.scanStale {
			stale[row] = true
		}
	}
	prev.scanMu.Unlock()
	if base == nil {
		return // previous snapshot never scanned: stay lazy and cold
	}
	sources := st.world.Sources
	for _, id := range delta.DirtySourceIDs() {
		// A world's sources sit at row = ID (World.Source); search only a
		// world laid out otherwise.
		row := id
		if id < 0 || id >= len(sources) || sources[id].ID != id {
			row = slices.IndexFunc(sources, func(s *webgen.Source) bool { return s.ID == id })
		}
		if row >= 0 {
			stale[row] = true
		}
	}
	st.scanBase, st.scanStale = base, stale
}

// commentScan builds (or incrementally repairs) and returns the snapshot's
// corpus comment scan.
//
//informer:mutates memoised lazy scan guarded by scanMu
func (st *assessState) commentScan() *commentScan {
	st.scanMu.Lock()
	defer st.scanMu.Unlock()
	if st.scan != nil {
		return st.scan
	}
	analyzer := st.env.Analyzer
	sources := st.world.Sources
	di := st.env.DI
	partials := make([]*sourcePartial, len(sources))

	if base := st.scanBase; base != nil && len(base.partials) == len(sources) {
		// Incremental repair: reuse the inherited partial of every clean
		// source; re-scan only the stale rows.
		copy(partials, base.partials)
		stale := make([]int, 0, len(st.scanStale))
		for row := range st.scanStale {
			stale = append(stale, row)
		}
		sort.Ints(stale)
		parallel.ForEachChunk(len(stale), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := stale[i]
				partials[row] = scanSource(sources[row], &di, analyzer)
			}
		})
	} else {
		parallel.ForEachChunk(len(sources), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				partials[i] = scanSource(sources[i], &di, analyzer)
			}
		})
	}

	scan := &commentScan{
		sentiByCatSource: map[string]map[int]*sentimentCell{},
		fgByCategory:     map[string]*buzz.Counts{},
		bg:               buzz.NewCounts(),
		partials:         partials,
	}
	for i, p := range partials {
		sid := sources[i].ID
		for cat, cell := range p.senti {
			m := scan.sentiByCatSource[cat]
			if m == nil {
				m = map[int]*sentimentCell{}
				scan.sentiByCatSource[cat] = m
			}
			m[sid] = cell
		}
		for cat, fg := range p.fg {
			dst := scan.fgByCategory[cat]
			if dst == nil {
				dst = buzz.NewCounts()
				scan.fgByCategory[cat] = dst
			}
			dst.Merge(fg)
		}
		scan.bg.Merge(p.bg)
	}
	st.scan = scan
	// The inherited base is dead once the repaired scan exists (the next
	// snapshot inherits st.scan directly); drop it so each live snapshot
	// pins at most one scan's worth of term counts.
	st.scanBase, st.scanStale = nil, nil
	return scan
}

// sentimentByCategory aggregates the scan's per-(category, source)
// sentiment cells into quality-weighted per-category indicators. The
// aggregation (entry building, sorting, weighting) used to run on every
// SentimentByCategory call even though the scan itself was cached; it now
// runs once per assessment round and the resulting map is shared.
func (st *assessState) sentimentByCategory() map[string]sentiment.Indicator {
	scan := st.commentScan()
	scan.indicatorsOnce.Do(func() {
		out := make(map[string]sentiment.Indicator, len(scan.sentiByCatSource))
		for cat, bySource := range scan.sentiByCatSource {
			entries := make([]sentiment.SourceSentiment, 0, len(bySource))
			total := 0
			for sid, cl := range bySource {
				entries = append(entries, sentiment.SourceSentiment{
					SourceID: sid,
					Quality:  st.env.SourceScores[sid],
					Mean:     cl.sum / float64(cl.n),
					N:        cl.n,
				})
				total += cl.n
			}
			sort.Slice(entries, func(i, j int) bool { return entries[i].SourceID < entries[j].SourceID })
			out[cat] = sentiment.Indicator{
				Category: cat,
				Mean:     sentiment.QualityWeighted(entries),
				N:        total,
			}
		}
		scan.indicators = out
	})
	return scan.indicators
}

// trendingTerms extracts the buzz words of a category from the snapshot's
// cached corpus pass; see Corpus.TrendingTerms.
func (st *assessState) trendingTerms(category string, k int) []buzz.Term {
	scan := st.commentScan()
	fg := scan.fgByCategory[category]
	if fg == nil {
		fg = buzz.NewCounts()
	}
	return buzz.TopTerms(fg, scan.bg, k, 2)
}

// scanSource walks one source's discussions and comments — the unit of
// both the full pass and per-source invalidation. sentiment.Analyzer is
// safe for concurrent use.
func scanSource(s *webgen.Source, di *DomainOfInterest, analyzer *sentiment.Analyzer) *sourcePartial {
	p := &sourcePartial{
		senti: map[string]*sentimentCell{},
		fg:    map[string]*buzz.Counts{},
		bg:    buzz.NewCounts(),
	}
	for _, d := range s.Discussions {
		inDI := di.InCategory(d.Category)
		fg := p.fg[d.Category]
		if fg == nil {
			fg = buzz.NewCounts()
			p.fg[d.Category] = fg
		}
		for _, com := range d.Comments {
			p.bg.Add(com.Body)
			fg.Add(com.Body)
			if !inDI {
				continue
			}
			cell := p.senti[d.Category]
			if cell == nil {
				cell = &sentimentCell{}
				p.senti[d.Category] = cell
			}
			cell.sum += analyzer.Score(com.Body).Value
			cell.n++
		}
	}
	return p
}
