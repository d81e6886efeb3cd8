package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/correlate"
	"github.com/informing-observers/informer/internal/ingest"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/services"
	"github.com/informing-observers/informer/internal/subscribe"
	"github.com/informing-observers/informer/internal/webgen"
)

// span is one timed call at a layer boundary. Spans of one round share
// its number; parent names the span that caused this one.
type span struct {
	Round   int    `json:"round"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	AllocB  uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0          time.Time
	spans       []span
	allocSample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// allocated is the process' cumulative heap allocation in bytes.
func (tr *tracer) allocated() uint64 {
	metrics.Read(tr.allocSample)
	return tr.allocSample[0].Value.Uint64()
}

// do times fn as one span.
func (tr *tracer) do(round int, name, parent string, fn func()) span {
	a0 := tr.allocated()
	s0 := time.Now()
	fn()
	s1 := time.Now()
	sp := span{Round: round, Name: name, Parent: parent, StartNs: s0.Sub(tr.t0).Nanoseconds(), EndNs: s1.Sub(tr.t0).Nanoseconds(), AllocB: tr.allocated() - a0}
	tr.spans = append(tr.spans, sp)
	return sp
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// replay re-runs a workload's rounds through each layer's public
// functions in the order the corpus' publish path calls them: world tick,
// ingestion accumulator, analytics panel refresh, correlation fold,
// services environment advance, standing-spine carry/repair and windows,
// subscription fan-out. It holds its own copy of every layer's state.
type replay struct {
	sp *spec

	world *webgen.World
	panel *analytics.Panel
	ix    *correlate.Index
	env   *services.Env

	acc         *ingest.Accumulator
	cursor      *webgen.IDCursor
	cursorWorld *webgen.World

	prevSpines map[string]*quality.Spine
	version    int64
	snap       *replaySnap
	reg        *subscribe.Registry
	subs       []*subscribe.Subscription

	stories *correlate.StorySet
}

// buildTimes are the replay's set-up spans, in seconds.
type buildTimes struct {
	analytics, correlate, env float64
}

// newReplay builds every layer's state from the starting world, as the
// corpus constructor does, and attaches one registry subscriber per
// standing subscription of the spec.
func newReplay(sp *spec, world *webgen.World, tr *tracer) (*replay, buildTimes, error) {
	rp := &replay{sp: sp, world: world, acc: ingest.NewAccumulator(), version: 1}
	var bt buildTimes
	bt.analytics = tr.do(0, "analytics.build", "", func() { rp.panel = analytics.Build(world, sp.world.Seed+1) }).ms() / 1e3
	var counts services.CorrelationCounts
	if world.Config.CommentText {
		bt.correlate = tr.do(0, "correlate.build", "", func() {
			rp.ix = correlate.NewIndex()
			rp.stories = rp.ix.Build(world)
		}).ms() / 1e3
		counts = rp.ix.Counts
	}
	var opts *quality.AssessorOptions
	if sp.shards > 1 {
		opts = &quality.AssessorOptions{Shards: sp.shards}
	}
	di := quality.DomainOfInterest{Categories: world.Categories}
	bt.env = tr.do(0, "services.env_build", "", func() {
		rp.env = services.NewEnvCorrelated(world, rp.panel, di, opts, counts)
	}).ms() / 1e3
	rp.snap = &replaySnap{version: 1, env: rp.env}
	rp.reg = subscribe.New(func() subscribe.Snapshot { return rp.snap }, subscribe.Options{})
	for _, st := range sp.subs {
		q, err := bindQuery(st.query)
		if err != nil {
			return nil, bt, err
		}
		for _, f := range st.filters {
			s, err := rp.reg.SubscribeWith(q, f)
			if err != nil {
				return nil, bt, err
			}
			rp.subs = append(rp.subs, s)
		}
	}
	return rp, bt, nil
}

// replaySnap is the registry's view of one replayed round: the windows
// precomputed by the quality step, falling back to a direct query for
// anything not precomputed (subscription baselines).
type replaySnap struct {
	version int64
	env     *services.Env
	windows map[string]*quality.QueryResult
}

func (s *replaySnap) Version() int64 { return s.version }

func (s *replaySnap) QuerySources(q quality.Query) (*quality.QueryResult, error) {
	if res, ok := s.windows[q.CanonicalKey()]; ok {
		return res, nil
	}
	return s.env.Sources.Query(s.env.SourceRecords, q)
}

// roundStats are one replayed round's layer times (ms), allocations (KiB)
// and work counters.
type roundStats struct {
	ms                 map[string]float64
	kb                 map[string]float64
	polls, activePolls int
	newComments        int
	dirtySources       int
	dirtyContributors  int
	reeval             bool
	spine              quality.SpineStats
	events             int
	storyTotal         int
	indexed            int
	// windows are the replayed subscribers' windows after the round.
	windows [][]*quality.Assessment
}

func (rs *roundStats) add(name string, s span) {
	rs.ms[name] += s.ms()
	rs.kb[name] += float64(s.AllocB) / 1024
}

// layerOrder lists the replayed layers in publish order.
var layerOrder = []string{"webgen", "ingest", "analytics", "correlate", "services", "quality", "subscribe"}

// round replays one round. reads are the windowless source queries the
// round's reads will ask for, evaluated here like the standing ones so
// the spine counters see the same demand as the corpus.
func (rp *replay) round(i int, tr *tracer, r *roundPlan, reads []quality.Query) (*roundStats, error) {
	rs := &roundStats{ms: map[string]float64{}, kb: map[string]float64{}}
	from := rp.world
	var (
		world *webgen.World
		delta *webgen.Delta
	)
	switch rp.sp.kind {
	case roundAdvance:
		rs.add("webgen", tr.do(i, "webgen.advance", "round", func() { world, delta = webgen.Advance(from, 1, r.seed) }))
	case roundSameDay:
		rs.add("webgen", tr.do(i, "webgen.advance_same_day", "round", func() { world, delta = webgen.AdvanceSameDay(from, r.seed, r.sources) }))
	case roundIngested:
		for j, id := range r.polls {
			f := rp.acc.Frontier(from)
			if rp.cursorWorld != f {
				rp.cursor, rp.cursorWorld = webgen.NewIDCursor(f), f
			}
			var (
				w *webgen.World
				d *webgen.Delta
			)
			rs.add("webgen", tr.do(i, "webgen.advance_source", "ingest.poll", func() { w, d = webgen.AdvanceSource(f, id, r.pseeds[j], rp.cursor) }))
			rs.polls++
			if w == f {
				continue
			}
			rs.activePolls++
			var err error
			s := tr.do(i, "ingest.add", "ingest.poll", func() { err = rp.acc.Add(f, w, d) })
			if err != nil {
				return nil, fmt.Errorf("replay: ingest: %w", err)
			}
			rs.add("ingest", s)
			rs.ms["ingest.poll"] += s.ms()
			rp.cursorWorld = w
		}
		if rp.acc.Empty() {
			return nil, fmt.Errorf("replay: round %d drew no activity", i)
		}
		s := tr.do(i, "ingest.drain", "round", func() { world, delta, _ = rp.acc.Drain() })
		rs.add("ingest", s)
		rs.ms["ingest.drain"] = s.ms()
	}
	rs.newComments = delta.NewCommentCount()
	rs.dirtySources = len(delta.DirtySourceIDs())
	rs.dirtyContributors = len(delta.DirtyContributorIDs())
	rs.reeval = delta.EpochMoved() || from.MaxOpenDiscussions != world.MaxOpenDiscussions

	var panel *analytics.Panel
	rs.add("analytics", tr.do(i, "analytics.refresh", "round", func() { panel = rp.panel.Refresh(world) }))
	if rp.ix != nil {
		rs.add("correlate", tr.do(i, "correlate.fold", "round", func() { rp.stories = rp.ix.Fold(world, delta) }))
	}
	var env *services.Env
	rs.add("services", tr.do(i, "services.advance", "round", func() { env = rp.env.Advance(world, panel, delta) }))

	// Standing spines: carried and repaired from the previous round's
	// spine where the engine allows it, scanned otherwise; then the
	// windows the registry publishes.
	snap := &replaySnap{version: rp.version + 1, env: env, windows: map[string]*quality.QueryResult{}}
	spines := map[string]*quality.Spine{}
	records := env.SourceRecords
	var err error
	window := func(q quality.Query) {
		sq := q.Windowless()
		key := sq.CanonicalKey()
		sp, ok := spines[key]
		if !ok {
			s := tr.do(i, "quality.spine", "round", func() {
				if prev, found := rp.prevSpines[key]; found {
					if sp, ok = env.Sources.RepairSpine(records, prev, sq); ok {
						return
					}
				}
				sp, err = env.Sources.Spine(records, sq)
			})
			rs.add("quality", s)
			rs.ms["quality.spine"] += s.ms()
			spines[key] = sp
		}
		if _, done := snap.windows[q.CanonicalKey()]; done || err != nil {
			return
		}
		var res *quality.QueryResult
		s := tr.do(i, "quality.window", "round", func() { res, err = env.Sources.Window(records, sp, q) })
		rs.add("quality", s)
		rs.ms["quality.window"] += s.ms()
		snap.windows[q.CanonicalKey()] = res
	}
	for _, st := range rp.sp.subs {
		q, e := bindQuery(st.query)
		if e != nil {
			return nil, e
		}
		window(subscribe.StandingForm(q))
	}
	for _, q := range reads {
		window(q)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: quality: %w", err)
	}
	rs.spine = env.Sources.SpineStats()

	rp.world, rp.panel, rp.env, rp.prevSpines = world, panel, env, spines
	rp.version++
	rp.snap = snap
	rs.add("subscribe", tr.do(i, "subscribe.publish", "round", func() { rp.reg.Publish(snap) }))
	for _, s := range rp.subs {
		select {
		case ev, ok := <-s.Events():
			if !ok {
				return nil, fmt.Errorf("replay: subscriber dropped: %v", s.Err())
			}
			rs.events++
			rs.windows = append(rs.windows, ev.Window)
		default:
			return nil, fmt.Errorf("replay: subscriber got no event in round %d", i)
		}
	}
	if rp.stories != nil {
		rs.storyTotal = rp.stories.Query(correlate.StoryQuery{Limit: 1}).Total
		rs.indexed = rp.ix.Stats().Indexed
	}
	return rs, nil
}

func (rp *replay) close() { rp.reg.Close() }
