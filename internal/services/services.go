// Package services provides the concrete mashup components of the paper's
// framework (Section 5): data services wrapping the filtered authoritative
// sources, quality-based selection services, the influencer filter, and the
// sentiment analysis service. Together with the generic viewers of
// internal/mashup they are the building blocks of Figure 1's dashboard.
//
// Components share an Env — the assessed world — and register into a
// mashup.Registry under these type names:
//
//	comments           data service emitting comment items from sources
//	quality-filter     keeps comments from sources above a quality bar
//	influencer-filter  keeps comments authored by detected influencers;
//	                   also exposes an "influencers" output port
//	sentiment          scores comments; exposes an "indicators" port
package services

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/mashup"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/sentiment"
	"github.com/informing-observers/informer/internal/webgen"
)

// CorrelationCounts supplies a source's correlation counters (indexed
// comments and near-duplicates among them) from the correlation engine's
// dedup index — the raw inputs of the src.originality measure. The
// callback is invoked only during Env construction and Env.Advance, both
// of which run under the facade's writer lock, so it may read the
// writer-owned index directly.
type CorrelationCounts func(sourceID int) (correlated, duplicates int)

// Env is the assessed world every domain component draws from: the corpus,
// its analytics panel, the DI, and the derived quality assessments.
type Env struct {
	World *webgen.World
	Panel *analytics.Panel
	DI    quality.DomainOfInterest

	SourceRecords      []*quality.SourceRecord
	Sources            *quality.SourceAssessor
	ContributorRecords []*quality.ContributorRecord
	Contributors       *quality.ContributorAssessor
	Analyzer           *sentiment.Analyzer

	// Correlation, when set, fills the per-record correlation counters
	// before assessment; carried across Advance.
	Correlation CorrelationCounts

	// contribIx keeps the per-user activity aggregation incremental
	// across Advance ticks.
	contribIx *quality.ContributorIndex
	// scores holds each source's overall quality score, row-aligned with
	// SourceRecords (SourceScore). Successive environments share it while
	// no score moves, so it is never written once published.
	scores []float64
}

// SourceScore returns the overall quality score of source id, and false
// when the corpus has no such source. Records are built from the world,
// where a source's ID is its row.
func (env *Env) SourceScore(id int) (float64, bool) {
	if id < 0 || id >= len(env.scores) {
		return 0, false
	}
	return env.scores[id], true
}

// NewEnv assesses the world once and returns the shared environment.
func NewEnv(world *webgen.World, panel *analytics.Panel, di quality.DomainOfInterest) *Env {
	return NewEnvOpts(world, panel, di, nil)
}

// NewEnvOpts is NewEnv with explicit assessor options — the hook through
// which the facade's shard-count knob (AssessorOptions.Shards) reaches
// both assessors. opts may be nil for defaults; it applies to sources and
// contributors alike.
func NewEnvOpts(world *webgen.World, panel *analytics.Panel, di quality.DomainOfInterest, opts *quality.AssessorOptions) *Env {
	return NewEnvCorrelated(world, panel, di, opts, nil)
}

// NewEnvCorrelated is NewEnvOpts with a correlation-counter source: the
// counters are joined into every source record before the assessor
// derives its benchmarks, so src.originality flows through the columnar
// pipeline like any other measure. counts may be nil (the measure stays
// undefined on every record).
func NewEnvCorrelated(world *webgen.World, panel *analytics.Panel, di quality.DomainOfInterest, opts *quality.AssessorOptions, counts CorrelationCounts) *Env {
	env := &Env{
		World:       world,
		Panel:       panel,
		DI:          di,
		Analyzer:    sentiment.NewAnalyzer(),
		Correlation: counts,
	}
	env.SourceRecords = quality.SourceRecordsFromWorld(world, panel)
	if counts != nil {
		for _, r := range env.SourceRecords {
			r.CorrelatedComments, r.DuplicateComments = counts(r.ID)
		}
	}
	env.Sources = quality.NewSourceAssessor(env.SourceRecords, di, opts)
	env.scores = env.Sources.Scores()
	env.contribIx = quality.NewContributorIndex(world)
	env.ContributorRecords = env.contribIx.Records()
	env.Contributors = quality.NewContributorAssessor(env.ContributorRecords, di, opts)
	return env
}

// Advance derives the environment of an incrementally advanced world: the
// records of the delta's dirty sources and contributors are rebuilt or
// additively updated while clean records whose inputs held are shared
// with the receiver, the assessors repair their measure matrices via
// UpdateRows instead of re-evaluating the corpus, and the source-score
// join is re-read from the updated assessor's score kernel: only the dirty
// rows when the epoch held still and the benchmarks came out bitwise
// unchanged, every row otherwise. A round that holds the panel (Refresh
// returned the receiver's panel), the observation instant and
// MaxOpenDiscussions therefore costs its dirty rows, not the corpus. The
// delta may span several
// coalesced ticks (webgen.Delta.Merge) — dirty sets union and the epoch
// flag composes, so one repair over the spanning delta equals repairing
// each tick in turn. Every derived number is bit-identical to NewEnv over
// the same world and panel; the receiver is left untouched, still serving
// readers of the pre-advance snapshot.
func (env *Env) Advance(world *webgen.World, panel *analytics.Panel, delta *webgen.Delta) *Env {
	ne := &Env{
		World:       world,
		Panel:       panel,
		DI:          env.DI,
		Analyzer:    env.Analyzer,
		Correlation: env.Correlation,
	}
	records, dirtyRows := quality.UpdateSourceRecordsFromWorld(env.SourceRecords, env.Panel, world, panel, delta.DirtySourceIDs())
	ne.SourceRecords = records
	if env.Correlation != nil {
		// Correlation counters only move for sources the tick dirtied
		// (duplicate verdicts are written on the newer comment and never
		// revised), so clean rows' counters ride the shared record.
		for _, row := range dirtyRows {
			records[row].CorrelatedComments, records[row].DuplicateComments = env.Correlation(records[row].ID)
		}
	}
	// A per-source tick (webgen.AdvanceSource) can raise the corpus-global
	// MaxOpenDiscussions high-water mark without moving the epoch. That
	// denominator feeds time-sensitive source measures on EVERY row, so the
	// repair must re-evaluate them corpus-wide exactly as an epoch move
	// would — otherwise non-dirty rows keep values computed against the old
	// ceiling and diverge from a fresh rebuild.
	srcReEval := delta.EpochMoved()
	if len(env.SourceRecords) > 0 && env.SourceRecords[0].MaxOpenDiscussions != world.MaxOpenDiscussions {
		srcReEval = true
	}
	ne.Sources = env.Sources.UpdateRows(records, dirtyRows, srcReEval)
	// Score join. When the epoch held still and the repaired benchmarks
	// are bitwise unchanged, a clean row's score cannot have moved, so
	// only dirty rows re-score: the previous slice is shared when none of
	// them moved and cloned before the first that did. Any doubt (epoch
	// moved, benchmarks shifted, row count changed) re-scores all.
	if !srcReEval && len(env.scores) == len(records) && ne.Sources.BenchmarksEqual(env.Sources) {
		ne.scores = env.scores
		owned := false
		for _, row := range dirtyRows {
			v := ne.Sources.ScoreAt(row)
			if math.Float64bits(v) == math.Float64bits(ne.scores[row]) {
				continue
			}
			if !owned {
				ne.scores, owned = slices.Clone(env.scores), true
			}
			ne.scores[row] = v
		}
	} else {
		ne.scores = ne.Sources.Scores()
	}
	ix, contribDirty := env.contribIx.Apply(world, delta)
	ne.contribIx = ix
	ne.ContributorRecords = ix.Records()
	ne.Contributors = env.Contributors.UpdateRows(ne.ContributorRecords, contribDirty, delta.EpochMoved())
	return ne
}

// Register adds all domain component types to the registry.
func Register(reg *mashup.Registry, env *Env) {
	reg.MustRegister("comments", func(p mashup.Params) (mashup.Component, error) {
		return newCommentSource(env, p)
	})
	reg.MustRegister("quality-filter", func(p mashup.Params) (mashup.Component, error) {
		return newQualityFilter(env, p)
	})
	reg.MustRegister("influencer-filter", func(p mashup.Params) (mashup.Component, error) {
		return newInfluencerFilter(env, p)
	})
	reg.MustRegister("sentiment", func(p mashup.Params) (mashup.Component, error) {
		return newSentimentService(env, p), nil
	})
	RegisterAnalysis(reg, env)
}

// NewRegistry returns a registry with both the generic builtins and the
// domain components bound to env.
func NewRegistry(env *Env) *mashup.Registry {
	reg := mashup.NewRegistry()
	mashup.RegisterBuiltins(reg)
	Register(reg, env)
	return reg
}

// commentItem flattens one comment into a mashup item. Field names are the
// package-wide convention viewers rely on.
func commentItem(env *Env, src *webgen.Source, d *webgen.Discussion, c *webgen.Comment) mashup.Item {
	authorName := ""
	if u := env.World.User(c.UserID); u != nil {
		authorName = u.Name
	}
	score, _ := env.SourceScore(src.ID)
	it := mashup.Item{
		"source_id": src.ID,
		"source":    src.Name,
		"kind":      src.Kind.String(),
		"category":  d.Category,
		"title":     d.Title,
		"author":    authorName,
		"author_id": c.UserID,
		"text":      c.Body,
		"posted":    c.Posted,
		"replies":   c.Replies,
		"feedbacks": c.Feedbacks,
		"quality":   score,
	}
	if c.Geo != nil {
		it["lat"] = c.Geo.Lat
		it["lon"] = c.Geo.Lon
	}
	return it
}

// commentSource is the data service over the world's comments.
// Params: "kind" restricts the source kind (e.g. "social-network",
// "review-site"); "source_ids" lists explicit sources; "top_sources"
// selects the N best sources by quality within the kind (the paper's
// "wrappers defined on top of the filtered authoritative sources");
// "categories" restricts to DI categories; "limit" caps emitted comments.
type commentSource struct {
	env   *Env
	items []mashup.Item
}

func newCommentSource(env *Env, p mashup.Params) (mashup.Component, error) {
	kind := p.String("kind", "")
	ids := map[int]bool{}
	if raw, ok := p["source_ids"]; ok {
		switch v := raw.(type) {
		case []any:
			for _, e := range v {
				f, ok := e.(float64)
				if !ok {
					return nil, fmt.Errorf("comments: source_ids must be numbers")
				}
				ids[int(f)] = true
			}
		case []int:
			for _, e := range v {
				ids[e] = true
			}
		default:
			return nil, fmt.Errorf("comments: bad source_ids type %T", raw)
		}
	}
	cats := map[string]bool{}
	for _, c := range p.StringSlice("categories") {
		cats[c] = true
	}
	topSources := p.Int("top_sources", 0)
	limit := p.Int("limit", 0)

	// Candidate sources. A top_sources selection compiles to a quality
	// Query executed by the source assessor — the scope predicates and the
	// top-k bound run below the ranking, over the cached measure matrix,
	// instead of sorting every source's score here. Explicit IDs take
	// precedence over the kind restriction, as they always have.
	var candidates []*webgen.Source
	if topSources > 0 {
		q := quality.Query{TopK: topSources, Fields: quality.ProjectScores}
		if len(ids) > 0 {
			for id := range ids {
				q.IDs = append(q.IDs, id)
			}
		} else if kind != "" {
			q.Kinds = []string{kind}
		}
		res, err := env.Sources.Query(env.SourceRecords, q)
		if err != nil {
			return nil, fmt.Errorf("comments: %w", err)
		}
		for _, a := range res.Items {
			candidates = append(candidates, env.World.Source(a.ID))
		}
	} else {
		for _, s := range env.World.Sources {
			if len(ids) > 0 {
				if ids[s.ID] {
					candidates = append(candidates, s)
				}
				continue
			}
			if kind == "" || s.Kind.String() == kind {
				candidates = append(candidates, s)
			}
		}
	}

	cs := &commentSource{env: env}
	for _, s := range candidates {
		for _, d := range s.Discussions {
			if len(cats) > 0 && !cats[d.Category] {
				continue
			}
			for _, c := range d.Comments {
				cs.items = append(cs.items, commentItem(env, s, d, c))
				if limit > 0 && len(cs.items) >= limit {
					return cs, nil
				}
			}
		}
	}
	return cs, nil
}

func (cs *commentSource) Process(*mashup.Context, mashup.Inputs) (mashup.Outputs, error) {
	return mashup.Outputs{"out": cs.items}, nil
}

// qualityFilter keeps comment items whose source clears a quality bar.
// Params: "min_quality" (float, default 0.5) thresholds the overall score;
// "min_dim.<dimension>" and "min_att.<attribute>" (floats) additionally
// threshold per-axis averages (e.g. "min_dim.time": 0.4). The thresholds
// compile to one quality.Query executed at instantiation, so filtering a
// comment stream costs a set lookup per item, not a re-assessment. Items
// from sources outside the corpus fall back to their own "quality" field
// against min_quality.
type qualityFilter struct {
	env  *Env
	min  float64
	pass map[int]bool // corpus source IDs clearing the compiled query
}

func newQualityFilter(env *Env, p mashup.Params) (*qualityFilter, error) {
	f := &qualityFilter{env: env, min: p.Float("min_quality", 0.5)}
	q := quality.Query{MinScore: f.min, Fields: quality.ProjectScores}
	for key, raw := range p {
		val, isNum := numParam(raw)
		switch {
		case strings.HasPrefix(key, "min_dim."):
			d, ok := quality.ParseDimension(strings.TrimPrefix(key, "min_dim."))
			if !ok || !isNum {
				return nil, fmt.Errorf("quality-filter: bad threshold %s=%v", key, raw)
			}
			if q.MinDimension == nil {
				q.MinDimension = map[quality.Dimension]float64{}
			}
			q.MinDimension[d] = val
		case strings.HasPrefix(key, "min_att."):
			at, ok := quality.ParseAttribute(strings.TrimPrefix(key, "min_att."))
			if !ok || !isNum {
				return nil, fmt.Errorf("quality-filter: bad threshold %s=%v", key, raw)
			}
			if q.MinAttribute == nil {
				q.MinAttribute = map[quality.Attribute]float64{}
			}
			q.MinAttribute[at] = val
		}
	}
	res, err := env.Sources.Query(env.SourceRecords, q)
	if err != nil {
		return nil, fmt.Errorf("quality-filter: %w", err)
	}
	f.pass = make(map[int]bool, len(res.Items))
	for _, a := range res.Items {
		f.pass[a.ID] = true
	}
	return f, nil
}

// numParam coerces a mashup param to float64 with the same int/float
// tolerance as mashup.Params.Float (JSON decodes numbers as float64;
// Go-built Params may carry untyped int literals).
func numParam(raw any) (float64, bool) {
	switch v := raw.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	default:
		return 0, false
	}
}

func (f *qualityFilter) Process(_ *mashup.Context, in mashup.Inputs) (mashup.Outputs, error) {
	var out []mashup.Item
	for _, it := range in.All() {
		if sid, ok := it.Float("source_id"); ok {
			if _, inCorpus := f.env.SourceScore(int(sid)); inCorpus {
				if f.pass[int(sid)] {
					out = append(out, it)
				}
				continue
			}
		}
		if q, ok := it.Float("quality"); ok && q >= f.min {
			out = append(out, it)
		}
	}
	return mashup.Outputs{"out": out}, nil
}

// influencerFilter keeps comments authored by the detected influencers and
// additionally exposes the influencer roster on the "influencers" port —
// the component at the heart of Figure 1.
// Params: "top" (default 10), "strategy" ("combined", "by-activity",
// "by-relative"), "min_interactions".
type influencerFilter struct {
	env    *Env
	topSet map[int]bool
	roster []mashup.Item
}

func newInfluencerFilter(env *Env, p mashup.Params) (mashup.Component, error) {
	var strat quality.InfluencerStrategy
	switch s := p.String("strategy", "combined"); s {
	case "combined":
		strat = quality.Combined
	case "by-activity":
		strat = quality.ByActivity
	case "by-relative":
		strat = quality.ByRelative
	default:
		return nil, fmt.Errorf("influencer-filter: unknown strategy %q", s)
	}
	f := &influencerFilter{env: env, topSet: map[int]bool{}}
	q := quality.Query{
		Sort:            quality.SortKey{By: quality.SortByInfluence, Strategy: strat},
		TopK:            p.Int("top", 10),
		MinInteractions: max(p.Int("min_interactions", 0), 1),
		Fields:          quality.ProjectScores,
	}
	res, err := env.Contributors.Query(env.ContributorRecords, q)
	if err != nil {
		return nil, fmt.Errorf("influencer-filter: %w", err)
	}
	infs, err := quality.InfluencersOf(q, res, env.ContributorRecords)
	if err != nil {
		return nil, fmt.Errorf("influencer-filter: %w", err)
	}
	for _, inf := range infs {
		f.topSet[inf.Record.ID] = true
	}
	geo := lastGeo(env, f.topSet)
	for _, inf := range infs {
		item := mashup.Item{
			"author_id": inf.Record.ID,
			"name":      inf.Record.Name,
			"title":     inf.Record.Name,
			"score":     inf.InfluenceScore,
		}
		if c := geo[inf.Record.ID]; c != nil {
			item["lat"] = c.Geo.Lat
			item["lon"] = c.Geo.Lon
		}
		f.roster = append(f.roster, item)
	}
	return f, nil
}

// lastGeo finds each given user's most recent geo-tagged comment in one
// walk of the world, giving the influencers map locations as in Figure 1.
// A later Posted wins; on a tie the first comment in iteration order
// stays.
func lastGeo(env *Env, users map[int]bool) map[int]*webgen.Comment {
	best := make(map[int]*webgen.Comment, len(users))
	for _, s := range env.World.Sources {
		for _, d := range s.Discussions {
			for _, c := range d.Comments {
				if c.Geo == nil || !users[c.UserID] {
					continue
				}
				if b := best[c.UserID]; b == nil || c.Posted.After(b.Posted) {
					best[c.UserID] = c
				}
			}
		}
	}
	return best
}

func (f *influencerFilter) Process(_ *mashup.Context, in mashup.Inputs) (mashup.Outputs, error) {
	var out []mashup.Item
	for _, it := range in.All() {
		id, ok := it.Float("author_id")
		if ok && f.topSet[int(id)] {
			out = append(out, it)
		}
	}
	return mashup.Outputs{"out": out, "influencers": f.roster}, nil
}

// sentimentService scores each comment item (adding "sentiment" and
// "polarity" fields) and aggregates per-category indicators on the
// "indicators" port. When "weigh_by_quality" is true (default), indicator
// values are source-quality-weighted per Section 6.
type sentimentService struct {
	env            *Env
	weighByQuality bool
}

func newSentimentService(env *Env, p mashup.Params) *sentimentService {
	weigh := true
	if b, ok := p["weigh_by_quality"].(bool); ok {
		weigh = b
	}
	return &sentimentService{env: env, weighByQuality: weigh}
}

func (s *sentimentService) Process(_ *mashup.Context, in mashup.Inputs) (mashup.Outputs, error) {
	items := in.All()
	scored := make([]mashup.Item, 0, len(items))
	// Per category and source: accumulate for weighting.
	type cell struct {
		sum float64
		n   int
	}
	byCatSource := map[string]map[int]*cell{}
	for _, it := range items {
		text, _ := it["text"].(string)
		sc := s.env.Analyzer.Score(text)
		out := it.Clone()
		out["sentiment"] = sc.Value
		out["polarity"] = sc.Polarity()
		scored = append(scored, out)

		cat, _ := it["category"].(string)
		sid := -1
		if f, ok := it.Float("source_id"); ok {
			sid = int(f)
		}
		m := byCatSource[cat]
		if m == nil {
			m = map[int]*cell{}
			byCatSource[cat] = m
		}
		c := m[sid]
		if c == nil {
			c = &cell{}
			m[sid] = c
		}
		c.sum += sc.Value
		c.n++
	}

	cats := make([]string, 0, len(byCatSource))
	for cat := range byCatSource {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	var indicators []mashup.Item
	for _, cat := range cats {
		var entries []sentiment.SourceSentiment
		total := 0
		for sid, c := range byCatSource[cat] {
			qual := 1.0
			if s.weighByQuality {
				if q, ok := s.env.SourceScore(sid); ok {
					qual = q
				}
			}
			entries = append(entries, sentiment.SourceSentiment{
				SourceID: sid,
				Quality:  qual,
				Mean:     c.sum / float64(c.n),
				N:        c.n,
			})
			total += c.n
		}
		label := cat
		if label == "" {
			label = "(off-topic)"
		}
		indicators = append(indicators, mashup.Item{
			"label": label,
			"value": sentiment.QualityWeighted(entries),
			"n":     total,
		})
	}
	return mashup.Outputs{"out": scored, "indicators": indicators}, nil
}
