package quality

// Full scans read per-engine axis columns for the engine's own records
// and run leanEval for any other record; both feed one predicate. These
// tests pin the two paths bitwise against each other — the leanEval path
// is forced by scanning shallow copies of the records, which share every
// value but no pointer — and race the lazy column builds.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/informing-observers/informer/internal/webgen"
)

// axisScanner is the query surface both assessors share.
type axisScanner[R any] interface {
	Spine([]*R, Query) (*Spine, error)
	Query([]*R, Query) (*QueryResult, error)
	SpineStats() SpineStats
}

// shallowCopies returns a copy of every record: same values, new
// pointers, so no scan recognises them as the engine's own corpus.
func shallowCopies[R any](records []*R) []*R {
	out := make([]*R, len(records))
	for i, r := range records {
		c := *r
		out[i] = &c
	}
	return out
}

// axisDomain lists what randomAxisQuery draws from for one record kind.
type axisDomain struct {
	source     bool
	categories []string
	measures   []string
	dims       []Dimension
	atts       []Attribute
}

// randomAxisQuery draws a query exercising every predicate kind and sort
// axis of the domain, including axes absent from the catalogue (an
// unmatchable predicate, an invalid sort) and negative or zero score bars.
func randomAxisQuery(rng *rand.Rand, d axisDomain) (q Query, pos int) {
	if rng.Intn(5) == 0 {
		for i := 0; i < 1+rng.Intn(40); i++ {
			q.IDs = append(q.IDs, rng.Intn(120))
		}
	}
	if rng.Intn(4) == 0 {
		for i := 0; i < 1+rng.Intn(6); i++ {
			q.Categories = append(q.Categories, d.categories[rng.Intn(len(d.categories))])
		}
	}
	if d.source && rng.Intn(5) == 0 {
		q.Kinds = []string{randQueryKinds[rng.Intn(len(randQueryKinds))]}
	}
	switch rng.Intn(4) {
	case 0:
		q.MinScore = rng.Float64() * 0.7
	case 1:
		q.MinScore = -rng.Float64() * 0.2
	}
	// A zero bar still rejects records on which the axis is undefined.
	bar := func() float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Float64() * 0.6
	}
	if rng.Intn(3) == 0 {
		q.MinDimension = map[Dimension]float64{}
		for i := 0; i < 1+rng.Intn(2); i++ {
			q.MinDimension[d.dims[rng.Intn(len(d.dims))]] = bar()
		}
	}
	if rng.Intn(3) == 0 {
		q.MinAttribute = map[Attribute]float64{d.atts[rng.Intn(len(d.atts))]: bar()}
	}
	if rng.Intn(3) == 0 {
		q.MinMeasure = map[string]float64{}
		for i := 0; i < 1+rng.Intn(2); i++ {
			q.MinMeasure[d.measures[rng.Intn(len(d.measures))]] = rng.Float64() * 0.5
		}
	}
	if !d.source && rng.Intn(3) == 0 {
		q.MinSpamResistance = rng.Float64() * 0.5
	}
	switch rng.Intn(3) {
	case 1:
		q.Sort = SortKey{By: SortByDimension, Dimension: d.dims[rng.Intn(len(d.dims))]}
	case 2:
		q.Sort = SortKey{By: SortByAttribute, Attribute: d.atts[rng.Intn(len(d.atts))]}
	}
	if !d.source && rng.Intn(4) == 0 {
		q.Sort = SortKey{By: SortByInfluence, Strategy: InfluencerStrategy(rng.Intn(numStrategies))}
	}
	if !d.source && rng.Intn(4) == 0 {
		q.MinInteractions = rng.Intn(60)
	}
	if rng.Intn(2) == 0 {
		q.TopK = 1 + rng.Intn(50)
	}
	if rng.Intn(3) == 0 {
		pos = rng.Intn(20)
	}
	if rng.Intn(2) == 0 {
		q.Limit = 1 + rng.Intn(15)
	}
	return q, pos
}

// candCursor is the cursor a walk holds after consuming pos rows of a
// ranked candidate list. Past the last row it resumes after that row
// with Pos still pos; it is nil at pos 0, over an empty ranking, or where
// the row's key is NaN (a NaN key cannot resume a walk).
func candCursor(ranked []leanCand, pos int) *Cursor {
	if pos <= 0 || len(ranked) == 0 {
		return nil
	}
	last := ranked[min(pos, len(ranked))-1]
	if math.IsNaN(last.key) {
		return nil
	}
	return &Cursor{Key: last.key, ID: last.id, Pos: pos}
}

// sameCands requires two candidate lists to agree bitwise: key bits, ID
// and row of every candidate.
func sameCands(t *testing.T, label string, got, want []leanCand) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.key) != math.Float64bits(w.key) || g.id != w.id || g.row != w.row {
			t.Fatalf("%s: candidate %d is %+v, want %+v", label, i, g, w)
		}
	}
}

// sameResults requires two query results to agree bitwise.
func sameResults(t *testing.T, label string, got, want *QueryResult) {
	t.Helper()
	if got.Total != want.Total || got.Start != want.Start || len(got.Items) != len(want.Items) {
		t.Fatalf("%s: total/start/items %d/%d/%d, want %d/%d/%d", label,
			got.Total, got.Start, len(got.Items), want.Total, want.Start, len(want.Items))
	}
	for i := range got.Items {
		g, w := got.Items[i], want.Items[i]
		if g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: item %d is %d/%v, want %d/%v", label, i, g.ID, g.Score, w.ID, w.Score)
		}
	}
	switch {
	case (got.Next == nil) != (want.Next == nil):
		t.Fatalf("%s: next cursor %+v, want %+v", label, got.Next, want.Next)
	case got.Next != nil && (math.Float64bits(got.Next.Key) != math.Float64bits(want.Next.Key) ||
		got.Next.ID != want.Next.ID || got.Next.Pos != want.Next.Pos):
		t.Fatalf("%s: next cursor %+v, want %+v", label, got.Next, want.Next)
	}
}

// columnsMatchLean runs n random queries — spines, bounded queries and
// cursor walks — over the engine's own records (column scans) and over
// shallow copies (leanEval) and requires bitwise agreement.
func columnsMatchLean[R any](t *testing.T, stage string, a axisScanner[R], own []*R, d axisDomain, seed int64, n int) {
	t.Helper()
	copies := shallowCopies(own)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		q, pos := randomAxisQuery(rng, d)
		label := fmt.Sprintf("%s: query %d (%+v, resumed at %d)", stage, i, q, pos)
		sp, err := a.Spine(own, q)
		lsp, lerr := a.Spine(copies, q)
		if (err == nil) != (lerr == nil) {
			t.Fatalf("%s: spine errors %v vs %v", label, err, lerr)
		}
		if err != nil {
			continue
		}
		if sp.Total() != lsp.Total() {
			t.Fatalf("%s: spine total %d, want %d", label, sp.Total(), lsp.Total())
		}
		sameCands(t, label+" spine", sp.cands, lsp.cands)
		q.After = candCursor(lsp.cands, pos) // a window from mid-ranking
		res, err := a.Query(own, q)
		if err != nil {
			t.Fatal(err)
		}
		lres, err := a.Query(copies, q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label+" query", res, lres)
		// A short cursor walk on from there: each resumed page scans past
		// the cursor.
		w := q
		w.Limit = 1 + rng.Intn(6)
		for page := 0; page < 4; page++ {
			res, err := a.Query(own, w)
			if err != nil {
				t.Fatal(err)
			}
			lres, err := a.Query(copies, w)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("%s page %d", label, page), res, lres)
			if res.Next == nil || math.IsNaN(res.Next.Key) {
				break // a NaN key cannot resume a walk
			}
			w.After = res.Next
		}
	}
}

// axisTestSourceMeasures and axisTestContributorMeasures return the
// extension measures of the pin: one on a dimension and attribute outside
// the stock enums, undefined on every third record, and one on stock axes
// that is NaN on some records.
func axisTestSourceMeasures() []SourceMeasure {
	return []SourceMeasure{
		{
			ID: "test.axes.extra", Description: "out-of-enum axes, undefined on every third record",
			Dimension: Dimension(numDimensions + 1), Attribute: Attribute(numAttributes + 2),
			Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
				return float64(len(r.Discussions)), r.ID%3 != 0
			},
		},
		{
			ID: "test.axes.nan", Description: "NaN on every thirteenth record",
			Dimension: Time, Attribute: Traffic, HigherIsBetter: true,
			Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
				if r.ID%13 == 0 {
					return math.NaN(), true
				}
				return float64(r.InboundLinks % 17), len(r.Discussions) > 0
			},
		},
	}
}

func axisTestContributorMeasures() []ContributorMeasure {
	return []ContributorMeasure{
		{
			ID: "test.axes.extra", Description: "out-of-enum axes, undefined on every third record",
			Dimension: Dimension(numDimensions + 1), Attribute: Attribute(numAttributes + 2),
			Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
				return float64(r.DiscussionsTouched), r.ID%3 != 0
			},
		},
		{
			ID: "test.axes.nan", Description: "NaN on every thirteenth record",
			Dimension: Authority, Attribute: Activity, HigherIsBetter: true,
			Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
				if r.ID%13 == 0 {
					return math.NaN(), true
				}
				return float64(r.TagCount % 11), true
			},
		},
	}
}

// axisDomainOf lists a catalogue's measure IDs and axes plus one
// dimension and one attribute the catalogue lacks.
func axisDomainOf(source bool, ids []string, dims []Dimension, atts []Attribute) axisDomain {
	return axisDomain{
		source:     source,
		categories: append(defaultDI().Categories, "", "nowhere"),
		measures:   ids,
		dims:       append(dims, Dimension(numDimensions+1), Dimension(numDimensions+4)),
		atts:       append(atts, Attribute(numAttributes+2), Attribute(numAttributes+5)),
	}
}

func TestColumnScanMatchesLeanEvalBitwise(t *testing.T) {
	w, nw, delta, panel, npanel := advancedWorld(t, 70, 913, 1)
	if !delta.EpochMoved() {
		t.Fatal("a one-day advance must move the epoch")
	}
	// Zero weights on the measures the stock catalogue defines on every
	// record leave the appended empty record with no weighted measure
	// defined; the second weighting adds a negative weight, under which
	// scores can fall below zero.
	weights := map[string]float64{"test.axes.extra": 2.5, "test.axes.nan": 0.7, "src.time.breadth": 0.3}
	for _, id := range []string{
		"src.completeness.relevance", "src.time.liveliness",
		"src.authority.relevance.inbound", "src.authority.relevance.subscriptions",
		"src.authority.traffic.visitors", "src.authority.traffic.pageviews",
		"src.authority.traffic.timeonsite", "src.dependability.relevance",
	} {
		weights[id] = 0
	}
	negative := map[string]float64{"src.time.breadth": -6}
	for id, v := range weights {
		if id != "src.time.breadth" {
			negative[id] = v
		}
	}
	records := append(SourceRecordsFromWorld(w, panel), &SourceRecord{ID: 9999})
	next, dirty := UpdateSourceRecordsFromWorld(records, panel, nw, npanel, delta.DirtySourceIDs())
	if len(dirty) == 0 {
		t.Fatal("the tick dirtied no source")
	}
	var ids []string
	for _, m := range SourceMeasures() {
		ids = append(ids, m.ID)
	}
	ids = append(ids, "test.axes.extra", "test.axes.nan")
	src := axisDomainOf(true, ids, Dimensions(), []Attribute{Relevance, Breadth, Traffic, Liveliness})

	cw := webgen.Generate(webgen.Config{Seed: 915, NumSources: 40, NumUsers: 110, SpamRate: 0.2})
	cnw, cdelta := webgen.Advance(cw, 1, 916)
	ix := NewContributorIndex(cw)
	nix, cdirty := ix.Apply(cnw, cdelta)
	var cids []string
	for _, m := range ContributorMeasures() {
		cids = append(cids, m.ID)
	}
	cids = append(cids, "test.axes.extra", "test.axes.nan")
	con := axisDomainOf(false, cids, Dimensions(), []Attribute{Relevance, Breadth, Activity, Liveliness})

	for _, shards := range []int{1, 7} {
		for wi, ws := range []map[string]float64{weights, negative} {
			t.Run(fmt.Sprintf("sources/shards=%d/weights=%d", shards, wi), func(t *testing.T) {
				opts := &AssessorOptions{Shards: shards, Weights: ws, ExtraSourceMeasures: axisTestSourceMeasures()}
				a := NewSourceAssessor(records, defaultDI(), opts)
				scoreBarsFilterNegatives(t, a, records, wi == 1)
				axisStages(t, a, records, next, dirty, src, func(r *SourceRecord) *SourceRecord {
					c := *r
					c.InboundLinks, c.FeedSubscribers = 1e6+r.InboundLinks, 1e6+r.FeedSubscribers
					c.Panel.DailyVisitors *= 1e3
					return &c
				})
			})
		}
		t.Run(fmt.Sprintf("contributors/shards=%d", shards), func(t *testing.T) {
			opts := &AssessorOptions{
				Shards:                   shards,
				Weights:                  map[string]float64{"test.axes.nan": 1.5, "test.axes.extra": 0.4},
				ExtraContributorMeasures: axisTestContributorMeasures(),
			}
			a := NewContributorAssessor(ix.Records(), defaultDI(), opts)
			axisStages(t, a, ix.Records(), nix.Records(), cdirty, con, func(r *ContributorRecord) *ContributorRecord {
				c := *r
				c.RepliesReceived, c.FeedbacksReceived = 1e6+r.RepliesReceived, 1e6+r.FeedbacksReceived
				c.ReadsReceived *= 1e3
				return &c
			})
		})
	}
}

// scoreBarsFilterNegatives pins score bars at and below zero: under a
// negative weight some scores fall below zero, and every record whose
// score falls below the bar is filtered, on both scan paths.
func scoreBarsFilterNegatives(t *testing.T, a *SourceAssessor, records []*SourceRecord, wantNegative bool) {
	t.Helper()
	all := a.AssessAll(records)
	for _, bar := range []float64{0, -0.1} {
		want, negative := 0, 0
		for _, as := range all {
			if !(as.Score < bar) {
				want++
			}
			if as.Score < 0 {
				negative++
			}
		}
		if (negative > 0) != wantNegative {
			t.Fatalf("%d records score below zero; want some: %v", negative, wantNegative)
		}
		for _, recs := range [][]*SourceRecord{records, shallowCopies(records)} {
			res, err := a.Query(recs, Query{MinScore: bar})
			if err != nil {
				t.Fatal(err)
			}
			if res.Total != want {
				t.Fatalf("MinScore %v: %d matches, want %d", bar, res.Total, want)
			}
		}
	}
}

// axisDeriver is an assessor that derives its successor by UpdateRows.
type axisDeriver[R any, A any] interface {
	axisScanner[R]
	UpdateRows([]*R, []int, bool) A
	BenchmarksEqual(A) bool
	ShardCount() int
}

// axisStages pins the column scan against leanEval on a fresh assessor,
// after an epoch-moving UpdateRows (every column rebuilt), and after
// three still-epoch updates: one dirtying nothing (every shard shares its
// columns, so the same queries build none), one re-evaluating a single
// unchanged row (only that row's shard rebuilds), and one whose dirty
// rows in the first shard move benchmarks (the clean shards remap onto
// new benchmarks and must not keep their columns). boost returns a
// record copy with inflated observations.
func axisStages[R any, A axisDeriver[R, A]](t *testing.T, a A, records, next []*R, dirty []int, d axisDomain, boost func(*R) *R) {
	const seed, n = 5150, 24
	columnsMatchLean[R](t, "built", a, records, d, seed, n)
	if a.SpineStats().Columns == 0 {
		t.Fatal("built: the scans read no axis column")
	}
	u := a.UpdateRows(next, dirty, true)
	columnsMatchLean[R](t, "epoch moved", u, next, d, seed, n)
	if u.SpineStats().Columns == 0 {
		t.Fatal("epoch moved: the scans read no axis column")
	}
	shared := u.UpdateRows(next, nil, false)
	columnsMatchLean[R](t, "still, clean", shared, next, d, seed, n)
	if got := shared.SpineStats().Columns; got != 0 {
		t.Fatalf("still, clean: %d columns rebuilt, want 0 (all shared)", got)
	}
	one := u.UpdateRows(next, []int{len(next) - 1}, false)
	columnsMatchLean[R](t, "still, one row", one, next, d, seed, n)
	last := u.ShardCount() - 1
	if got, want := one.SpineStats().Columns, builtColumns(u, last); got != want || want == 0 {
		t.Fatalf("still, one row: %d columns rebuilt, want %d (the dirty shard's)", got, want)
	}
	boosted := append([]*R(nil), next...)
	var rows []int
	for row := 0; row < 8; row++ {
		boosted[row] = boost(next[row])
		rows = append(rows, row)
	}
	moved := u.UpdateRows(boosted, rows, false)
	if moved.BenchmarksEqual(u) {
		t.Fatal("still, benchmarks moved: the boosted rows moved no benchmark")
	}
	columnsMatchLean[R](t, "still, benchmarks moved", moved, boosted, d, seed, n)
}

// builtColumns counts the axis columns built on one shard of an assessor.
func builtColumns(a any, shard int) int64 {
	var cols *axisColumns
	switch a := a.(type) {
	case *SourceAssessor:
		cols = a.engine.engines[shard].axes
	case *ContributorAssessor:
		cols = a.engine.engines[shard].axes
	}
	n := int64(0)
	for i := range cols.cols {
		if cols.cols[i].v != nil {
			n++
		}
	}
	return n
}

// TestAxisColumnsConcurrentFirstBuild races the first column builds:
// eight goroutines issue overlapping-axis queries against a freshly
// derived assessor and must reproduce the sequential results exactly,
// with each (shard, axis) column built once.
func TestAxisColumnsConcurrentFirstBuild(t *testing.T) {
	w, nw, delta, panel, npanel := advancedWorld(t, 120, 917, 1)
	records := SourceRecordsFromWorld(w, panel)
	next, dirty := UpdateSourceRecordsFromWorld(records, panel, nw, npanel, delta.DirtySourceIDs())
	queries := []Query{
		{MinScore: 0.4},
		{Sort: SortKey{By: SortByDimension, Dimension: Time}},
		{MinScore: 0.3, Sort: SortKey{By: SortByDimension, Dimension: Time}, TopK: 10},
		{MinDimension: map[Dimension]float64{Authority: 0.5}, Sort: SortKey{By: SortByAttribute, Attribute: Liveliness}},
		{MinAttribute: map[Attribute]float64{Liveliness: 0.2}, TopK: 5},
		{Categories: []string{"place"}, Sort: SortKey{By: SortByDimension, Dimension: Authority}},
	}
	const axes = 4 // score, time, authority, liveliness
	for _, shards := range []int{1, 7} {
		base := NewSourceAssessor(records, defaultDI(), &AssessorOptions{Shards: shards})
		seq := base.UpdateRows(next, dirty, true)
		want := make([]*QueryResult, len(queries))
		for i, q := range queries {
			res, err := seq.Query(next, q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		a := base.UpdateRows(next, dirty, true)
		var wg sync.WaitGroup
		got := make([][]*QueryResult, 8)
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = make([]*QueryResult, len(queries))
				for k := range queries {
					i := (g + k) % len(queries)
					res, err := a.Query(next, queries[i])
					if err != nil {
						t.Error(err)
						return
					}
					got[g][i] = res
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			for i := range queries {
				if got[g][i] != nil {
					sameResults(t, fmt.Sprintf("shards=%d goroutine %d query %d", shards, g, i), got[g][i], want[i])
				}
			}
		}
		if c := a.SpineStats().Columns; c != int64(axes*shards) {
			t.Fatalf("shards=%d: %d columns built, want %d", shards, c, axes*shards)
		}
	}
}
