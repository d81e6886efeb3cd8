// Package informer is the public face of the Informing Observers library:
// quality-driven filtering and composition of Web 2.0 sources, after
// Barbagallo, Cappiello, Francalanci, Matera and Picozzi (EDBT 2012).
//
// The library assesses Web 2.0 sources and contributors along the paper's
// quality model (data-quality dimensions crossed with Web 2.0 attributes,
// Tables 1 and 2), detects influencers with spam-resistant combined
// scoring (Section 3.2), and lets callers compose quality-aware analysis
// dashboards out of data services, filters, analyzers and synchronised
// viewers (Sections 5 and 6).
//
// A Corpus bundles a (synthetic, deterministic) Web 2.0 world with its
// analytics panel and pre-computed quality assessments. Reads go through
// the composable Query model — scope, quality predicates, ranking axis,
// top-k, pagination — executed below the ranking against the cached
// measure matrix (DESIGN.md section 7):
//
//	c := informer.New(informer.Config{Seed: 42, NumSources: 200})
//	res, _ := c.QuerySources(informer.NewQuery().MinScore(0.6).TopK(10).Build())
//	for _, a := range res.Items {
//	    fmt.Println(a.Name, a.Score)
//	}
//
// The same Query is served remotely by the versioned JSON API (see
// APIHandler): GET /api/v1/sources?min_score=0.6&k=10 returns the same
// assessments byte for byte.
//
// Mashups are declared in JSON and executed with live viewer
// synchronisation:
//
//	rt, _ := c.NewMashup([]byte(compositionJSON))
//	dash, _ := rt.Run()
//	fmt.Println(dash.Render())
//
// The monitoring scenario advances the corpus timeline incrementally:
// Advance re-assesses only what a tick changed and swaps the assessment
// snapshot atomically, so readers keep being served while the world ticks
// (see DESIGN.md section 6):
//
//	before := c.SourceReport()
//	c.Advance(7, seed)
//	shift := informer.RankShift(before, c.SourceReport())
//
// The types below are aliases of the implementation packages so that
// downstream code can name every value the facade returns.
//
//informer:deterministic
package informer

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/apiserve"
	"github.com/informing-observers/informer/internal/buzz"
	"github.com/informing-observers/informer/internal/correlate"
	"github.com/informing-observers/informer/internal/crawler"
	"github.com/informing-observers/informer/internal/deliver"
	"github.com/informing-observers/informer/internal/ingest"
	"github.com/informing-observers/informer/internal/mashup"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/search"
	"github.com/informing-observers/informer/internal/sentiment"
	"github.com/informing-observers/informer/internal/services"
	"github.com/informing-observers/informer/internal/social"
	"github.com/informing-observers/informer/internal/subscribe"
	"github.com/informing-observers/informer/internal/webgen"
	"github.com/informing-observers/informer/internal/webserve"
)

// Re-exported model types. Aliases keep the public API nameable by
// importers while the implementation lives in internal packages.
type (
	// DomainOfInterest scopes domain-dependent quality measures.
	DomainOfInterest = quality.DomainOfInterest
	// Dimension is a data-quality dimension (rows of Tables 1 and 2);
	// Attribute is a Web 2.0 attribute (the columns). Queries filter and
	// sort along both axes.
	Dimension = quality.Dimension
	Attribute = quality.Attribute
	// Assessment is a full quality evaluation of a source or contributor.
	Assessment = quality.Assessment
	// SourceRecord / ContributorRecord are the raw observation records.
	SourceRecord      = quality.SourceRecord
	ContributorRecord = quality.ContributorRecord
	// Influencer is a detected opinion leader.
	Influencer = quality.Influencer
	// InfluencerStrategy selects how influence is scored (Section 3.2);
	// Query.Sort ranks contributors by one (QueryBuilder.SortByInfluence).
	InfluencerStrategy = quality.InfluencerStrategy
	// World is the synthetic Web 2.0 corpus.
	World = webgen.World
	// WorldConfig configures corpus generation.
	WorldConfig = webgen.Config
	// Delta describes what one Advance tick changed (see LastDelta).
	Delta = webgen.Delta
	// SearchResult is one baseline search hit.
	SearchResult = search.Result
	// Dashboard is an executed mashup's rendered state.
	Dashboard = mashup.Dashboard
	// MashupRuntime is an instantiated, executable composition.
	MashupRuntime = mashup.Runtime
	// MashupEvent is a viewer event (selection) for Emit.
	MashupEvent = mashup.Item
	// SentimentIndicator is a per-category sentiment summary.
	SentimentIndicator = sentiment.Indicator
	// Story is one cross-source near-duplicate cluster; StorySet is the
	// immutable per-round set of them (see Corpus.Stories). StoryQuery,
	// StoryCursor and StoryPage page through a set in freshness order.
	Story       = correlate.Story
	StorySet    = correlate.StorySet
	StoryQuery  = correlate.StoryQuery
	StoryCursor = correlate.StoryCursor
	StoryPage   = correlate.StoryPage
	// MicroblogDataset is the annotated account dataset of Section 4.2.
	MicroblogDataset = social.Dataset
	// MicroblogConfig configures microblog generation.
	MicroblogConfig = social.Config
)

// Influencer strategies (Section 3.2).
const (
	ByActivity = quality.ByActivity
	ByRelative = quality.ByRelative
	Combined   = quality.Combined
)

// ParseDimension and ParseAttribute resolve query axes by name ("time",
// "relevance", ...) — the binding used by /api/v1 query strings and CLI
// flags.
var (
	ParseDimension = quality.ParseDimension
	ParseAttribute = quality.ParseAttribute
)

// Quality dimensions (Batini et al.'s classification revisited for
// user-generated content) — the rows of Tables 1 and 2.
const (
	Accuracy         = quality.Accuracy
	Completeness     = quality.Completeness
	Time             = quality.Time
	Interpretability = quality.Interpretability
	Authority        = quality.Authority
	Dependability    = quality.Dependability
)

// Web 2.0 attributes — the columns of Tables 1 and 2 (Traffic applies to
// sources, Activity to contributors).
const (
	Relevance  = quality.Relevance
	Breadth    = quality.Breadth
	Traffic    = quality.Traffic
	Activity   = quality.Activity
	Liveliness = quality.Liveliness
)

// Config configures a Corpus.
type Config struct {
	// Seed drives every generator deterministically (default 1).
	Seed int64
	// NumSources and NumUsers size the world (defaults 100 / 200).
	NumSources, NumUsers int
	// CommentText generates full comment bodies (needed for sentiment
	// analysis and crawling demos). It also activates the correlation
	// engine: near-duplicate detection, story clustering (Stories) and the
	// src.originality measure.
	CommentText bool
	// SyndicationRate injects syndicated near-duplicate copies into the
	// generated comment stream (webgen.Config.SyndicationRate) — ground
	// truth for the correlation engine. Needs CommentText; 0 disables.
	SyndicationRate float64
	// SpamRate injects spam/bot users for robustness experiments.
	SpamRate float64
	// DI scopes the analysis; empty means all of the world's categories.
	DI DomainOfInterest
	// Shards partitions the corpus' quality engines into that many
	// contiguous record-range shards: queries run as scatter-gather plans
	// with routing-based shard pruning, and an Advance tick re-evaluates
	// only the shards its delta touched. Results — assessments, rankings,
	// query windows, cursors — are bit-identical for any value (benchmarks
	// stay corpus-global; see DESIGN.md section 11). Values below 2 mean
	// one shard, the default.
	Shards int
}

// Corpus is an assessed Web 2.0 world: the paper's analysis environment.
//
// A Corpus is safe for concurrent readers during advancement: every
// reading method serves from an immutable assessment snapshot held behind
// an atomic pointer, and Advance builds the next snapshot copy-on-write
// before swapping it in. Readers therefore always observe one fully
// consistent assessment round — never a half-ticked world.
type Corpus struct {
	DI DomainOfInterest

	// seed is the observation seed fixed at construction: the analytics
	// panel derives from seed+1 and the search baseline from seed+2, on
	// every assessment round (re-observing does not redraw panel noise).
	seed int64

	state     atomic.Pointer[assessState]
	advanceMu sync.Mutex // serialises writers (Advance, Ingest, DrainTick)

	// pending buffers per-source ingestion ticks (Ingest) between
	// assessment drains (DrainTick); its frontier is the world the next
	// tick departs from. Guarded by advanceMu; see ingestion.go.
	pending *ingest.Accumulator

	// correlator is the correlation engine's writer-owned dedup index
	// (internal/correlate), active only when the world carries comment
	// text; nil otherwise. Mutated exclusively under advanceMu — readers
	// see its output through the immutable StorySet and the per-record
	// counters published on each snapshot, never the index itself.
	correlator *correlate.Index

	// subs is the corpus' standing-query subscription registry
	// (internal/subscribe): Advance publishes every new snapshot into it,
	// each distinct standing query is evaluated once per tick, and the
	// window delta fans out to every subscriber — in-process consumers
	// (Subscribe) and the HTTP transports (watch long-polls, SSE streams)
	// alike.
	subs *subscribe.Registry

	// sinks is the lazily built push-delivery manager (internal/deliver)
	// attaching remote webhook sinks to subs; see Sinks.
	sinksOnce sync.Once
	sinks     *deliver.Manager
}

// assessState is one immutable assessment snapshot: the world as of a
// tick, its panel join, the assessed environment and the lazily built
// per-snapshot caches. States are never mutated after publication — the
// lazy caches are internally synchronised — so any number of readers can
// hold one while a writer prepares the next.
//
//informer:snapshot
type assessState struct {
	world *World
	panel *analytics.Panel
	env   *services.Env
	seed  int64
	// version numbers assessment rounds monotonically (construction = 1,
	// +1 per effective Advance). It is the snapshot token the /api/v1
	// serving layer pins paginated walks to.
	version int64
	// delta is the tick that produced this snapshot (nil for the
	// construction snapshot).
	delta *webgen.Delta

	// stories is the round's story-cluster snapshot, materialized by the
	// correlation engine at publish time; nil when the corpus carries no
	// comment text.
	stories *correlate.StorySet

	engineOnce sync.Once
	engine     *search.Engine

	serverOnce sync.Once
	server     http.Handler

	panelHandlerOnce sync.Once
	panelHandler     http.Handler

	// scan caches the corpus-wide comment pass shared by
	// SentimentByCategory and TrendingTerms (see scan.go). scanBase and
	// scanStale carry the previous snapshot's pass forward so an advanced
	// corpus re-scans only the sources the tick touched.
	scanMu    sync.Mutex
	scan      *commentScan
	scanBase  *commentScan
	scanStale map[int]bool // source row -> stale in scanBase

	// queryMu guards the per-snapshot query result cache (querycache.go):
	// ranked spines per standing filter and materialized windows per full
	// canonical query. Both die with the snapshot, so an Advance
	// invalidates every cached read atomically and for free.
	queryMu sync.Mutex
	spines  map[string]*spineEntry
	windows map[string]*windowEntry
	// spinesDone records spines whose computation completed this round
	// (recorded under queryMu after each entry's once resolves, so Advance
	// never races a half-built entry). Advance copies it into the next
	// snapshot's prevSpines.
	spinesDone map[string]*quality.Spine
	// prevSpines carries the previous round's completed spines, keyed by
	// windowless canonical query: the substrate of the spine carry/repair
	// path (quality.RepairSpine) that turns a sparse tick's standing-query
	// re-evaluation into per-shard repairs instead of corpus re-scans.
	// Written only before the snapshot publishes; read-only afterwards.
	prevSpines map[string]*quality.Spine
}

// searchEngine lazily builds the snapshot's search baseline.
//
//informer:mutates memoised lazy init guarded by engineOnce
func (st *assessState) searchEngine() *search.Engine {
	st.engineOnce.Do(func() {
		st.engine = search.NewEngine(st.world, st.panel, search.Config{Seed: st.seed + 2})
	})
	return st.engine
}

// webServer lazily builds the snapshot's crawlable HTTP surface.
//
//informer:mutates memoised lazy init guarded by serverOnce
func (st *assessState) webServer() http.Handler {
	st.serverOnce.Do(func() {
		st.server = webserve.New(st.world)
	})
	return st.server
}

// New generates and assesses a corpus.
func New(cfg Config) *Corpus {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	world := webgen.Generate(webgen.Config{
		Seed:            cfg.Seed,
		NumSources:      cfg.NumSources,
		NumUsers:        cfg.NumUsers,
		CommentText:     cfg.CommentText,
		SpamRate:        cfg.SpamRate,
		SyndicationRate: cfg.SyndicationRate,
	})
	return FromWorldSharded(world, cfg.DI, cfg.Seed, cfg.Shards)
}

// FromWorld assesses an existing world (generated with custom options)
// on one shard — FromWorldSharded with one shard.
func FromWorld(world *World, di DomainOfInterest, seed int64) *Corpus {
	return FromWorldSharded(world, di, seed, 1)
}

// FromWorldSharded assesses an existing world over the given shard count
// (see Config.Shards; values below 2 mean one shard).
func FromWorldSharded(world *World, di DomainOfInterest, seed int64, shards int) *Corpus {
	if len(di.Categories) == 0 {
		di.Categories = world.Categories
	}
	panel := analytics.Build(world, seed+1)
	var opts *quality.AssessorOptions
	if shards > 1 {
		opts = &quality.AssessorOptions{Shards: shards}
	}
	// The correlation engine runs only over corpora with comment text:
	// the index is built once here and repaired through every publish.
	// Its counters join the source records before the assessor derives
	// benchmarks, so src.originality is a first-class measure column.
	var (
		ix      *correlate.Index
		stories *correlate.StorySet
		counts  services.CorrelationCounts
	)
	if world.Config.CommentText {
		ix = correlate.NewIndex()
		stories = ix.Build(world)
		counts = ix.Counts
	}
	env := services.NewEnvCorrelated(world, panel, di, opts, counts)
	c := &Corpus{DI: di, seed: seed, correlator: ix, pending: ingest.NewAccumulator()}
	c.state.Store(&assessState{world: world, panel: panel, env: env, seed: seed, version: 1, stories: stories})
	c.subs = subscribe.New(func() subscribe.Snapshot { return apiSnapshot{c.state.Load()} }, subscribe.Options{})
	return c
}

// ShardCount reports how many shards the corpus' quality engines partition
// the record populations into (1 unless Config.Shards asked for more).
func (c *Corpus) ShardCount() int { return c.state.Load().env.Sources.ShardCount() }

// SnapshotVersion returns the current assessment round's monotonic version
// — the snapshot token carried by the /api/v1 envelopes and ETags. It
// increments on every effective Advance.
func (c *Corpus) SnapshotVersion() int64 { return c.state.Load().version }

// World returns the current world snapshot. After Advance the previous
// snapshot stays valid — worlds are copy-on-write — so holders of an older
// pointer are never disturbed.
func (c *Corpus) World() *World { return c.state.Load().world }

// SourceRecords exposes the raw source observation records.
func (c *Corpus) SourceRecords() []*SourceRecord { return c.state.Load().env.SourceRecords }

// ContributorRecords exposes the raw contributor records.
func (c *Corpus) ContributorRecords() []*ContributorRecord {
	return c.state.Load().env.ContributorRecords
}

// AssessSource evaluates all Table 1 measures for one source.
func (c *Corpus) AssessSource(id int) (*Assessment, bool) {
	st := c.state.Load()
	if id < 0 || id >= len(st.env.SourceRecords) {
		return nil, false
	}
	return st.env.Sources.Assess(st.env.SourceRecords[id]), true
}

// QuerySources executes a composable quality query over the current
// assessment snapshot: scope and predicates are pushed below the ranking,
// and a top-k bound selects winners through a bounded heap over the cached
// measure matrix instead of materializing and sorting every assessment.
// Build queries with NewQuery; the zero Query ranks everything.
//
// Results are cached on the snapshot per canonical query (querycache.go):
// repeated identical reads within one assessment round are map hits, every
// cursor page of one query slices a shared ranked spine, and Advance
// invalidates the whole cache by swapping the snapshot. Treat the returned
// result as read-only; identical queries may share it.
func (c *Corpus) QuerySources(q Query) (*QueryResult, error) {
	return c.state.Load().querySources(q)
}

// QueryContributors executes a quality query over the contributors; in
// addition to the source predicates it understands SpamResistant. Results
// are cached per snapshot exactly like QuerySources.
func (c *Corpus) QueryContributors(q Query) (*QueryResult, error) {
	return c.state.Load().queryContributors(q)
}

// AssessContributor evaluates all Table 2 measures for one user.
func (c *Corpus) AssessContributor(id int) (*Assessment, bool) {
	st := c.state.Load()
	if id < 0 || id >= len(st.env.ContributorRecords) {
		return nil, false
	}
	return st.env.Contributors.Assess(st.env.ContributorRecords[id]), true
}

// Influencers detects opinion leaders (Section 3.2): it executes q — a
// contributor query ranked by SortByInfluence, normally with a
// MinInteractions floor — through the per-snapshot query cache and pairs
// each item of the page with its record and its influence score, under
// any projection. A q ranked by anything else is an error. Only the page
// is assessed.
func (c *Corpus) Influencers(q Query) ([]Influencer, error) {
	st := c.state.Load()
	res, err := st.queryContributors(q)
	if err != nil {
		return nil, err
	}
	return quality.InfluencersOf(q, res, st.env.ContributorRecords)
}

// Stories returns the current round's story-cluster snapshot: groups of
// near-duplicate discussions syndicated across sources, maintained
// incrementally by the correlation engine (DESIGN.md section 14). Nil
// when the corpus carries no comment text (Config.CommentText false).
func (c *Corpus) Stories() *StorySet {
	return c.state.Load().stories
}

// Search queries the built-in search-engine baseline (the paper's Google
// stand-in) over the corpus.
func (c *Corpus) Search(query string, k int) []SearchResult {
	return c.state.Load().searchEngine().Search(query, k)
}

// SentimentByCategory scores every comment in the corpus and aggregates
// per-category indicators, weighting each source by its quality score
// (Section 6). Requires a corpus generated with CommentText. The
// underlying corpus pass runs once per assessment round, scoring sources
// in parallel, and is shared with TrendingTerms (see scan.go); the
// aggregated indicator map itself is also computed once per round and
// shared between callers (including /api/v1/sentiment), so treat the
// returned map as read-only. After Advance, only sources the tick touched
// are re-scanned.
func (c *Corpus) SentimentByCategory() map[string]SentimentIndicator {
	return c.state.Load().sentimentByCategory()
}

// NewMashup parses a JSON composition and instantiates it against this
// corpus' component registry (builtins plus the quality/sentiment/data
// services of Section 5).
func (c *Corpus) NewMashup(compositionJSON []byte) (*MashupRuntime, error) {
	comp, err := mashup.ParseComposition(compositionJSON)
	if err != nil {
		return nil, err
	}
	return mashup.NewRuntime(comp, services.NewRegistry(c.state.Load().env))
}

// RunMashup parses, instantiates and runs a composition in one call.
func (c *Corpus) RunMashup(compositionJSON []byte) (*Dashboard, error) {
	rt, err := c.NewMashup(compositionJSON)
	if err != nil {
		return nil, err
	}
	return rt.Run()
}

// EmitSelect fires a selection event on a viewer, returning the refreshed
// dashboard (Figure 1's synchronised viewing).
func EmitSelect(rt *MashupRuntime, viewerID string, payload MashupEvent) (*Dashboard, error) {
	return rt.Emit(mashup.Event{Source: viewerID, Name: "select", Payload: payload})
}

// Handler serves the corpus over HTTP (per-source pages, discussion pages
// with data islands, RSS/Atom feeds, sitemap) so it can be crawled like
// the live Web. The handler always serves the corpus' current snapshot:
// requests racing an Advance see either the whole old world or the whole
// new one, so a crawler's conditional re-fetch (ETags) works across ticks.
func (c *Corpus) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.state.Load().webServer().ServeHTTP(w, r)
	})
}

// PanelHandler serves the analytics panel (the Alexa substitute) as a
// JSON API, always reading the current snapshot's panel.
//
//informer:mutates memoised lazy init guarded by panelHandlerOnce
func (c *Corpus) PanelHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := c.state.Load()
		st.panelHandlerOnce.Do(func() { st.panelHandler = st.panel.Handler() })
		st.panelHandler.ServeHTTP(w, r)
	})
}

// APIHandler serves the corpus' quality assessments as the versioned JSON
// HTTP API of DESIGN.md sections 7 to 9 — /api/v1/sources,
// /api/v1/contributors, /api/v1/influencers, /api/v1/sentiment,
// /api/v1/trending, /api/v1/search, the /api/v1/watch long-poll and the
// /api/v1/stream SSE feed — with query-string-bound Query execution,
// pagination envelopes, snapshot-consistent ETags, gzip and tick-derived
// Last-Modified. Every request is answered from one immutable assessment
// snapshot; clients echoing the envelope's snapshot token (?snapshot=N)
// pin a paginated walk to that round even while Advance ticks the corpus
// underneath, so a walk never mixes two assessment rounds. Windowed
// responses carry an opaque next_cursor token (keyset pagination: echo it
// as ?cursor= to resume at single-page cost). Standing-query observers —
// watch long-polls and SSE streams — fan out of the corpus' subscription
// registry: each distinct canonical query is evaluated once per Advance
// tick, shared with in-process Subscribe consumers.
func (c *Corpus) APIHandler() http.Handler {
	return apiserve.New(apiProvider{c})
}

// apiProvider adapts the corpus to apiserve's snapshot source.
type apiProvider struct{ c *Corpus }

func (p apiProvider) Snapshot() apiserve.Snapshot {
	return apiSnapshot{p.c.state.Load()}
}

// Subscriptions implements apiserve.SubscriptionProvider: HTTP watchers
// and streams subscribe into the corpus' own registry — fed synchronously
// by Advance — so remote and in-process observers of one canonical query
// share a single evaluation and delta computation per tick.
func (p apiProvider) Subscriptions() *subscribe.Registry { return p.c.subs }

// Sinks implements apiserve.SinkProvider: the API server mounts the
// /api/v1/sinks management endpoints over the corpus' delivery manager.
func (p apiProvider) Sinks() *deliver.Manager { return p.c.Sinks() }

// apiSnapshot exposes one immutable assessment round to the serving layer.
type apiSnapshot struct{ st *assessState }

func (s apiSnapshot) Version() int64 { return s.st.version }

// ShardCount exposes the engine's shard count to the serving layer, which
// tags cursor tokens with it: a token minted under one sharding fails
// closed (410 Gone) if the corpus is rebuilt with another, instead of
// resuming a walk whose per-shard cost model no longer holds.
func (s apiSnapshot) ShardCount() int { return s.st.env.Sources.ShardCount() }

func (s apiSnapshot) QuerySources(q Query) (*QueryResult, error) {
	return s.st.querySources(q)
}

func (s apiSnapshot) QueryContributors(q Query) (*QueryResult, error) {
	return s.st.queryContributors(q)
}

func (s apiSnapshot) ContributorRecords() []*ContributorRecord {
	return s.st.env.ContributorRecords
}

// Stories serves the story-cluster listing, enriching each cluster with
// the member sources' names and quality scores — ranked best-assessed
// first — and the title of the representative discussion. A corpus
// without comment text (no correlation engine) answers an empty result.
func (s apiSnapshot) Stories(q correlate.StoryQuery) *apiserve.StoriesResult {
	pg := s.st.stories.Query(q)
	res := &apiserve.StoriesResult{Items: make([]apiserve.StoryItem, 0, len(pg.Stories)), Total: pg.Total, Next: pg.Next}
	world, scores := s.st.world, s.st.env.SourceScores
	for _, story := range pg.Stories {
		item := apiserve.StoryItem{
			ID:           story.ID,
			Size:         story.Size,
			Latest:       story.Latest,
			SourceID:     story.SourceID,
			DiscussionID: story.DiscussionID,
			Members:      make([]apiserve.StoryMember, 0, len(story.Sources)),
		}
		if src := world.Sources[story.SourceID]; src != nil {
			for _, d := range src.Discussions {
				if d.ID == story.DiscussionID {
					item.Title = d.Title
					break
				}
			}
		}
		for _, sid := range story.Sources {
			item.Members = append(item.Members, apiserve.StoryMember{
				SourceID: sid,
				Name:     world.Sources[sid].Name,
				Score:    scores[sid],
			})
		}
		// Best-assessed member first; the member list arrives sorted by
		// source ID, which stays the deterministic tiebreak.
		sort.SliceStable(item.Members, func(i, j int) bool {
			return item.Members[i].Score > item.Members[j].Score
		})
		res.Items = append(res.Items, item)
	}
	return res
}

func (s apiSnapshot) SentimentByCategory() map[string]SentimentIndicator {
	return s.st.sentimentByCategory()
}

func (s apiSnapshot) TrendingTerms(category string, k int) []BuzzTerm {
	return s.st.trendingTerms(category, k)
}

func (s apiSnapshot) Search(query string, k int) []SearchResult {
	return s.st.searchEngine().Search(query, k)
}

// CrawlOptions configures Crawl.
type CrawlOptions struct {
	// Workers bounds concurrency (default 8); Delay is the politeness
	// pause per request.
	Workers int
	Delay   time.Duration
	// FetchFeeds additionally parses each source's RSS feed.
	FetchFeeds bool
}

// Crawl walks a corpus served at baseURL over real HTTP and returns source
// records joined with this corpus' analytics panel, ready for assessment.
// observedAt/windowDays follow the served world's timeline.
func (c *Corpus) Crawl(ctx context.Context, baseURL string, opts CrawlOptions) ([]*SourceRecord, error) {
	snap, err := crawler.Crawl(ctx, crawler.Config{
		BaseURL:    baseURL,
		Workers:    opts.Workers,
		Delay:      opts.Delay,
		FetchFeeds: opts.FetchFeeds,
	})
	if err != nil {
		return nil, err
	}
	st := c.state.Load()
	return quality.SourceRecordsFromSnapshot(snap, st.panel, st.world.Config.End, st.world.Days()), nil
}

// QueryRecords assesses externally obtained source records (e.g. from
// Crawl) under an explicit DomainOfInterest and executes q over them.
//
// Benchmark-derivation semantics: each call builds a fresh assessor whose
// normalisation benchmarks are the winsorised corpus quantiles of the
// records themselves (AssessorOptions defaults: the 0.10/0.90 quantiles
// play the paper's "well-known, highly-ranked sources" role). The records
// are both the assessed population and the benchmark reference — nothing
// is inherited from any Corpus, so scores are comparable within one call's
// record set but not across calls with different record sets. Callers
// needing corpus-anchored benchmarks should assess through a Corpus
// instead (AssessSource / QuerySources).
func QueryRecords(records []*SourceRecord, di DomainOfInterest, q Query) (*QueryResult, error) {
	return quality.NewSourceAssessor(records, di, nil).Query(records, q)
}

// GenerateMicroblog builds the annotated microblog dataset of Section 4.2
// (813 accounts by default) and its contributor records.
func GenerateMicroblog(cfg MicroblogConfig) (*MicroblogDataset, []*ContributorRecord) {
	ds := social.Generate(cfg)
	obs := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	return ds, quality.ContributorRecordsFromSocial(ds, obs)
}

// AssessMicroblog ranks microblog contributors with Table 2 measures.
func AssessMicroblog(records []*ContributorRecord) []*Assessment {
	return quality.NewContributorAssessor(records, DomainOfInterest{}, nil).Rank(records)
}

// Advance extends the corpus timeline by the given number of days,
// generating fresh activity (the monitoring scenario: content keeps
// arriving between assessment rounds), and re-assesses incrementally:
// webgen.Advance reports a Delta of the sources and contributors whose
// content changed, records and measure matrices are repaired for exactly
// that delta (plus the time-sensitive measures, which move with the
// observation instant for everyone), and the comment-scan caches are
// invalidated per source instead of wholesale. The resulting numbers are
// bit-identical to a full FromWorld rebuild over the advanced world with
// the corpus' construction seed.
//
// seed drives only the freshly generated activity; the observation side
// (panel noise, search baseline) keeps the corpus' construction seed, so
// re-assessment never redraws panel noise for sources that did not change.
//
// Advance swaps the corpus' assessment snapshot atomically and returns the
// receiver: concurrent readers (QuerySources, SentimentByCategory, Handler,
// ...) keep serving the previous snapshot until the swap and are never
// disturbed — the previous world and its assessments stay valid and
// immutable. Writers are serialised internally. A tick that changes
// nothing (days <= 0) is a no-op returning the receiver unchanged.
//
// When per-source ingestion (Ingest) has buffered activity since the last
// drain, the global tick departs from the ingestion frontier and the
// pending span folds into this tick's round, so one coherent assessment
// publishes — the pending content is never abandoned or double-applied.
func (c *Corpus) Advance(days int, seed int64) *Corpus {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	cur := c.state.Load()
	from := c.pending.Frontier(cur.world)
	world, delta := webgen.Advance(from, days, seed)
	if world == from {
		// Zero-delta tick: publish any pending ingestion as-is, else keep
		// the snapshot, pointer-identical.
		c.drainLocked(cur)
		return c
	}
	if !c.pending.Empty() {
		if err := c.pending.Add(from, world, delta); err != nil {
			panic("informer: ingestion frontier moved under the writer lock: " + err.Error())
		}
		c.drainLocked(cur)
		return c
	}
	c.publishAdvance(cur, world, delta)
	return c
}

// AdvanceSameDay generates fresh comment activity without moving the
// corpus timeline (webgen.AdvanceSameDay): discussions collect new
// comments, no epoch moves, and re-assessment repairs only the touched
// rows — the sparse-churn tick under which standing-query spines are
// carried forward per shard and repaired instead of re-scanned.
// onlySources, when non-nil, restricts the churn to those source IDs
// (nil = everywhere); an empty non-nil slice produces a content-free tick
// that still publishes a new assessment round. Deterministic per seed;
// swaps the snapshot atomically exactly like Advance, and like Advance it
// folds any pending per-source ingestion (Ingest) into its round.
func (c *Corpus) AdvanceSameDay(seed int64, onlySources []int) *Corpus {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	cur := c.state.Load()
	from := c.pending.Frontier(cur.world)
	world, delta := webgen.AdvanceSameDay(from, seed, onlySources)
	if !c.pending.Empty() {
		if err := c.pending.Add(from, world, delta); err != nil {
			panic("informer: ingestion frontier moved under the writer lock: " + err.Error())
		}
		c.drainLocked(cur)
		return c
	}
	c.publishAdvance(cur, world, delta)
	return c
}

// publishAdvance derives the next assessment snapshot from a ticked world,
// carries the current round's completed spines forward for repair, swaps
// the snapshot in and fans the round out to the subscription registry.
//
//informer:mutates fills the successor snapshot before the atomic swap
func (c *Corpus) publishAdvance(cur *assessState, world *World, delta *webgen.Delta) {
	panel := cur.panel.Refresh(world)
	var stories *correlate.StorySet
	if c.correlator != nil {
		// Repair the dedup index for exactly the delta's new comments
		// BEFORE the environment advances: env.Advance re-reads the
		// counters for the tick's dirty sources (the only ones whose
		// counters can have moved).
		stories = c.correlator.Fold(world, delta)
	}
	env := cur.env.Advance(world, panel, delta)
	next := &assessState{world: world, panel: panel, env: env, seed: c.seed, version: cur.version + 1, delta: delta, stories: stories}
	next.inheritScan(cur, delta)
	next.prevSpines = cur.doneSpines()
	c.state.Store(next)
	// Publish the round to the subscription registry: every distinct
	// standing query is evaluated once against the new snapshot (off its
	// per-round query cache) and the window delta fans out to all of the
	// query's subscribers before Advance returns.
	c.subs.Publish(apiSnapshot{next})
}

// Subscription is a standing-query subscription: the baseline window at
// the attach round plus a buffered stream of per-tick window deltas; see
// Corpus.Subscribe.
type Subscription = subscribe.Subscription

// SubscriptionEvent is one tick's delta on a subscription: the rank
// movement of the standing window between the Since and Snapshot rounds.
type SubscriptionEvent = subscribe.Event

// ErrSlowConsumer is reported by Subscription.Err after a subscriber
// overflowed its event buffer and was dropped: it must re-sync from a
// full read of the current round (the in-process equivalent of the HTTP
// transports' 410 Gone).
var ErrSlowConsumer = subscribe.ErrSlowConsumer

// Subscribe attaches a standing-query observer to the corpus: the
// returned subscription carries the query's ranked window at the current
// assessment round (Window, Since) and, from then on, one event per
// Advance tick with the rows that entered, left or moved (empty when the
// window held — the since-token still advances). Subscribers of the same
// canonical query share one evaluation and one delta computation per tick
// however many they are; the /api/v1/watch and /api/v1/stream transports
// fan out of the same registry. A subscriber that stops draining its
// buffer is dropped with ErrSlowConsumer and re-syncs from a fresh
// QuerySources read. Close the subscription when done.
//
// The query binds like QuerySources but must not carry a resume cursor
// (Resume): bound the standing window with TopK or Limit.
func (c *Corpus) Subscribe(q Query) (*Subscription, error) {
	return c.subs.Subscribe(q)
}

// DeltaFilter narrows which window movements a standing-query consumer is
// told about: only rows entering the window, only rank jumps of at least
// MinRankJump, only score moves of at least MinScoreDelta (entries and
// departures always pass the numeric thresholds). The zero filter passes
// everything. Filtered subscribers of one canonical query still share the
// query's single per-tick evaluation — and subscribers sharing a filter
// share its filtered view too.
type DeltaFilter = subscribe.Filter

// SubscribeFiltered is Subscribe with a delta filter: ticks whose
// filtered delta is empty still deliver an event (the since-token keeps
// advancing) but carry no changes — and cost push sinks and SSE streams
// of the same filter zero bytes.
func (c *Corpus) SubscribeFiltered(q Query, f DeltaFilter) (*Subscription, error) {
	return c.subs.SubscribeWith(q, f)
}

// SinkStats is one push sink's observable delivery state; see Sinks.
type SinkStats = deliver.SinkStats

// WebhookSink pushes delta envelopes to a remote URL; register it with
// Sinks().Register or over POST /api/v1/sinks.
type WebhookSink = deliver.WebhookSink

// SinkConfig describes one push sink for Sinks().Register: the transport,
// its standing query and an optional delta filter.
type SinkConfig = deliver.SinkConfig

// BindQuery binds an /api/v1-style URL query string (min_score=0.6&k=10,
// scope, predicates, ranking axis) to a Query — the same binding the HTTP
// API applies, exported so flag- and config-driven callers accept the
// exact watch query-string form.
func BindQuery(v url.Values) (Query, error) { return apiserve.BindQuery(v) }

// BindDeltaFilter binds the delta-filter parameters shared by watch,
// stream and sinks (changes=entered|all, min_rank_jump=N,
// min_score_delta=x) to a DeltaFilter.
func BindDeltaFilter(v url.Values) (DeltaFilter, error) { return apiserve.BindFilter(v) }

// Sinks returns the corpus' push-delivery manager: remote sinks (webhook
// POST, or any deliver.Sink) attached to the same standing-query registry
// the in-process and HTTP observers fan out of, each with a bounded
// coalescing queue, bounded retries with backoff, a circuit breaker and
// eviction-with-resync (DESIGN.md section 10). The manager is built on
// first use; APIHandler mounts its management endpoints at /api/v1/sinks.
// Shutdown flushes and closes it.
func (c *Corpus) Sinks() *deliver.Manager {
	c.sinksOnce.Do(func() {
		c.sinks = deliver.NewManager(c.subs, deliver.Options{})
	})
	return c.sinks
}

// Shutdown degrades the corpus' serving side gracefully: pending push
// deliveries are flushed within the context's deadline, then the
// subscription registry closes — in-process subscribers' event channels
// end and open SSE streams receive their terminal resync frame. Reads
// (QuerySources, APIHandler's snapshot endpoints) keep working; only the
// standing-query fan-out ends. Returns the context's error when the sink
// flush was cut short. Safe to call more than once.
func (c *Corpus) Shutdown(ctx context.Context) error {
	var err error
	c.sinksOnce.Do(func() {}) // a never-built manager needs no flush
	if c.sinks != nil {
		err = c.sinks.Close(ctx)
	}
	c.subs.Close()
	return err
}

// LastDelta returns the Delta of the tick that produced the current
// snapshot — which sources and contributors changed, and how much content
// arrived — or nil before the first effective Advance. Monitoring loops
// use it to drive conditional re-crawls and churn dashboards.
func (c *Corpus) LastDelta() *Delta { return c.state.Load().delta }

// SourceReport archives the current source ranking for later comparison.
func (c *Corpus) SourceReport() *Report {
	st := c.state.Load()
	return quality.NewReport(st.env.Sources, st.env.Sources.Rank(st.env.SourceRecords), st.world.Config.End)
}

// ContributorReport archives the current contributor ranking.
func (c *Corpus) ContributorReport() *Report {
	st := c.state.Load()
	return quality.NewReport(st.env.Contributors, st.env.Contributors.Rank(st.env.ContributorRecords), st.world.Config.End)
}

// Report is a serialisable ranking snapshot; see WriteJSON/ReadReport.
type Report = quality.Report

// ReadReport parses a report written with Report.WriteJSON.
func ReadReport(r io.Reader) (*Report, error) { return quality.ReadReport(r) }

// RankShift diffs two reports: per item name, positive means it climbed.
func RankShift(old, new *Report) map[string]int { return quality.RankShift(old, new) }

// TrendingTerms extracts the buzz words of a category against the whole
// corpus as background (the "feature extraction for buzz word
// identification" analysis service of Section 5). Requires CommentText.
// Term counts come from the shared cached corpus pass (see scan.go), so
// calling this for every category costs one scan, not one per category.
func (c *Corpus) TrendingTerms(category string, k int) []BuzzTerm {
	return c.state.Load().trendingTerms(category, k)
}

// BuzzTerm is one scored buzz word.
type BuzzTerm = buzz.Term
