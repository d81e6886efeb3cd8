package quality

// Full scans read per-engine axis columns and spine repairs run leanEval
// on their dirty rows; both feed one predicate. These tests pin the two
// readings of every row bitwise against each other and race the lazy
// column builds.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/informing-observers/informer/internal/webgen"
)

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
func randomAxisQuery(rng *rand.Rand, d axisDomain) (q Query) {
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
	return q
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

// columnsMatchLean draws n random queries and reads every row of every
// shard both ways: fromColumns, as a scan does, and fromLean, as a spine
// repair does. The two must agree bitwise on every axis and measure the
// query reads, the scope bits must decide each row as the reference
// predicate keep does, and the spine must hold exactly the matching rows,
// ranked.
func columnsMatchLean[R any](t *testing.T, stage string, a *Assessor[R], records []*R, keep func(Query) func(*R) bool, d axisDomain, seed int64, n int) {
	t.Helper()
	s := a.engine
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		q := randomAxisQuery(rng, d)
		label := fmt.Sprintf("%s: query %d (%+v)", stage, i, q)
		sp, err := a.Spine(records, q)
		rq, sc, cerr := s.compile(q)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("%s: spine error %v, compile error %v", label, err, cerr)
		}
		if err != nil {
			continue
		}
		ref := keep(q)
		var want []leanCand
		for sh, e := range s.engines {
			lo, _ := s.plan.Bounds(sh)
			col, lean := e.newRowReader(rq, &s.counters.columns), e.newRowReader(rq, nil)
			for c, r := range e.recs {
				col.fromColumns(c)
				lean.fromLean(c)
				sameRowAxes(t, fmt.Sprintf("%s row %d", label, lo+c), &col.v, &lean.v)
				in := ref == nil || ref(r)
				if admitted := sc == nil || sc.admits(e.scope.row(c), r); admitted != in {
					t.Fatalf("%s row %d: scope bits admit %v, reference %v", label, lo+c, admitted, in)
				}
				if !in || rq.unmatchable {
					continue
				}
				if key, ok := rq.match(&lean.v); ok {
					id, _ := e.ident(r)
					want = append(want, leanCand{key: key, id: id, row: lo + c})
				}
			}
		}
		refRank(want)
		sameCands(t, label+" spine", sp.cands, want)
	}
}

// sameRowAxes requires two readings of one row to agree bitwise.
func sameRowAxes(t *testing.T, label string, got, want *rowAxes) {
	t.Helper()
	for j := range got.axis {
		if got.axisOK[j] != want.axisOK[j] || math.Float64bits(got.axis[j]) != math.Float64bits(want.axis[j]) {
			t.Fatalf("%s: axis slot %d reads %v/%v, leanEval %v/%v", label, j, got.axis[j], got.axisOK[j], want.axis[j], want.axisOK[j])
		}
	}
	for j := range got.norm {
		if got.normOK[j] != want.normOK[j] || math.Float64bits(got.norm[j]) != math.Float64bits(want.norm[j]) {
			t.Fatalf("%s: measure slot %d reads %v/%v, leanEval %v/%v", label, j, got.norm[j], got.normOK[j], want.norm[j], want.normOK[j])
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
				axisStages(t, a, records, next, dirty, src, refSourceKeep, func(r *SourceRecord) *SourceRecord {
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
			axisStages(t, a, ix.Records(), nix.Records(), cdirty, con, refContributorKeep, func(r *ContributorRecord) *ContributorRecord {
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
// score falls below the bar is filtered.
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
		res, err := a.Query(records, Query{MinScore: bar})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != want {
			t.Fatalf("MinScore %v: %d matches, want %d", bar, res.Total, want)
		}
	}
}

// axisStages pins the column scan against leanEval on a fresh assessor,
// after an epoch-moving UpdateRows (every column rebuilt), and after
// three still-epoch updates: one dirtying nothing (every shard shares its
// columns, so the same queries build none), one re-evaluating a single
// unchanged row (only that row's shard rebuilds), and one whose dirty
// rows in the first shard move benchmarks (the clean shards remap onto
// new benchmarks and must not keep their columns). keep is the kind's
// reference scope predicate; boost returns a record copy with inflated
// observations.
func axisStages[R any](t *testing.T, a *Assessor[R], records, next []*R, dirty []int, d axisDomain, keep func(Query) func(*R) bool, boost func(*R) *R) {
	const seed, n = 5150, 24
	columnsMatchLean(t, "built", a, records, keep, d, seed, n)
	if a.SpineStats().Columns == 0 {
		t.Fatal("built: the scans read no axis column")
	}
	u := a.UpdateRows(next, dirty, true)
	columnsMatchLean(t, "epoch moved", u, next, keep, d, seed, n)
	if u.SpineStats().Columns == 0 {
		t.Fatal("epoch moved: the scans read no axis column")
	}
	shared := u.UpdateRows(next, nil, false)
	columnsMatchLean(t, "still, clean", shared, next, keep, d, seed, n)
	if got := shared.SpineStats().Columns; got != 0 {
		t.Fatalf("still, clean: %d columns rebuilt, want 0 (all shared)", got)
	}
	one := u.UpdateRows(next, []int{len(next) - 1}, false)
	columnsMatchLean(t, "still, one row", one, next, keep, d, seed, n)
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
	columnsMatchLean(t, "still, benchmarks moved", moved, boosted, keep, d, seed, n)
}

// builtColumns counts the axis columns built on one shard of an assessor.
func builtColumns[R any](a *Assessor[R], shard int) int64 {
	cols := a.engine.engines[shard].axes
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
