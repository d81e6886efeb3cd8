package quality

// Query execution contracts: every filter/sort/pagination combination must
// be bit-identical to the reference plan — Rank everything, filter the
// materialized assessments by the same predicates, slice the window. The
// bounded-heap path and the full-sort path must agree with each other and
// with that reference for any k.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/informing-observers/informer/internal/webgen"
)

// referenceQuery executes q the slow way: full Rank, post-filter on the
// materialized assessments, re-sort by the requested axis, drop the rows
// at or before the resume cursor, slice.
func referenceQuery(a *SourceAssessor, records []*SourceRecord, q Query) *QueryResult {
	keep := refSourceKeep(q)
	var matches []*Assessment
	for _, r := range records {
		if keep != nil && !keep(r) {
			continue
		}
		as := a.Assess(r)
		if as.Score < q.MinScore {
			continue
		}
		ok := true
		for d, v := range q.MinDimension {
			if s, present := as.DimensionScores[d]; !present || s < v {
				ok = false
			}
		}
		for at, v := range q.MinAttribute {
			if s, present := as.AttributeScores[at]; !present || s < v {
				ok = false
			}
		}
		for id, v := range q.MinMeasure {
			if n, present := as.Normalized[id]; !present || n < v {
				ok = false
			}
		}
		if ok {
			matches = append(matches, as)
		}
	}
	key := func(as *Assessment) float64 { return referenceKey(q, as) }
	// Insertion sort keeps the reference implementation independent of the
	// engine's comparator code.
	for i := 1; i < len(matches); i++ {
		for j := i; j > 0; j-- {
			ki, kj := key(matches[j]), key(matches[j-1])
			if ki > kj || (ki == kj && matches[j].ID < matches[j-1].ID) {
				matches[j], matches[j-1] = matches[j-1], matches[j]
			} else {
				break
			}
		}
	}
	total := len(matches)
	budget := q.TopK
	if c := q.After; c != nil {
		for len(matches) > 0 {
			k := key(matches[0])
			if k < c.Key || (k == c.Key && matches[0].ID > c.ID) {
				break // strictly after the cursor
			}
			matches = matches[1:]
		}
		budget = max(q.TopK-max(c.Pos, 0), 0)
	}
	if q.TopK > 0 && len(matches) > budget {
		matches = matches[:budget]
	}
	if q.Limit > 0 && len(matches) > q.Limit {
		matches = matches[:q.Limit]
	}
	if matches == nil {
		matches = []*Assessment{}
	}
	return &QueryResult{Items: matches, Total: total}
}

// referenceKey is an assessment's value on q's ranking axis.
func referenceKey(q Query, as *Assessment) float64 {
	switch q.Sort.By {
	case SortByDimension:
		return as.DimensionScores[q.Sort.Dimension]
	case SortByAttribute:
		return as.AttributeScores[q.Sort.Attribute]
	default:
		return as.Score
	}
}

// referenceCursor is the cursor a walk over q holds after consuming pos
// rows, read off the reference ranking. Past the last row it resumes
// after that row with Pos still pos; at pos 0 or over an empty ranking it
// is nil, the first page.
func referenceCursor(a *SourceAssessor, records []*SourceRecord, q Query, pos int) *Cursor {
	if pos <= 0 {
		return nil
	}
	ranked := referenceQuery(a, records, q.Windowless()).Items
	if len(ranked) == 0 {
		return nil
	}
	last := ranked[min(pos, len(ranked))-1]
	return &Cursor{Key: referenceKey(q, last), ID: last.ID, Pos: pos}
}

// refSourceKeep and refContributorKeep are the reference scope
// predicates: every scope field decided from the record's own fields, the
// answer the engine's scope bits and recordKind.keep must give together.
//
// refSourceKeep compiles the source-scope fields into a record predicate,
// or nil when the query is unscoped.
func refSourceKeep(q Query) func(*SourceRecord) bool {
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

// refContributorKeep compiles the contributor-scope fields into a
// predicate.
func refContributorKeep(q Query) func(*ContributorRecord) bool {
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

func TestQueryMatchesReference(t *testing.T) {
	records := worldRecords(t, 120, 31)
	a := NewSourceAssessor(records, defaultDI(), nil)
	timeDim := Time
	cases := map[string]Query{
		"zero":            {},
		"top-k":           {TopK: 10},
		"min-score":       {MinScore: 0.5},
		"min-score-top-k": {MinScore: 0.45, TopK: 7},
		"dimension-bar":   {MinDimension: map[Dimension]float64{timeDim: 0.4}, TopK: 12},
		"attribute-bar":   {MinAttribute: map[Attribute]float64{Traffic: 0.3}},
		"measure-bar":     {MinMeasure: map[string]float64{"src.time.liveliness": 0.2}, TopK: 20},
		"sort-dimension":  {Sort: SortKey{By: SortByDimension, Dimension: Authority}, TopK: 15},
		"sort-attribute":  {Sort: SortKey{By: SortByAttribute, Attribute: Liveliness}, TopK: 15},
		"paged":           {MinScore: 0.3, Limit: 10},
		"paged-top-k":     {TopK: 30, Limit: 10},
		"offset-past-end": {TopK: 5, Limit: 10},
		"kind-scope":      {Kinds: []string{"blog", "forum"}, TopK: 10},
		"category-scope":  {Categories: []string{"place"}, MinScore: 0.2},
		"id-scope":        {IDs: []int{1, 3, 5, 7, 11, 13, 17}, TopK: 4},
	}
	// Windows resumed mid-ranking, and one past its end, from cursors at
	// these ranks.
	resume := map[string]int{"paged": 10, "paged-top-k": 5, "offset-past-end": 50}
	for name, q := range cases {
		q.After = referenceCursor(a, records, q, resume[name])
		t.Run(name, func(t *testing.T) {
			got, err := a.Query(records, q)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceQuery(a, records, q)
			if got.Total != want.Total {
				t.Fatalf("total = %d, want %d", got.Total, want.Total)
			}
			if !reflect.DeepEqual(got.Items, want.Items) {
				if len(got.Items) != len(want.Items) {
					t.Fatalf("items = %d, want %d", len(got.Items), len(want.Items))
				}
				for i := range got.Items {
					if !reflect.DeepEqual(got.Items[i], want.Items[i]) {
						t.Fatalf("item %d:\n got  %+v\n want %+v", i, got.Items[i], want.Items[i])
					}
				}
			}
		})
	}
}

// TestQueryHeapMatchesFullSort sweeps k across heap sizes (including k >=
// matches, where the heap never evicts) pinning heap/full-sort agreement.
func TestQueryHeapMatchesFullSort(t *testing.T) {
	records := worldRecords(t, 90, 33)
	a := NewSourceAssessor(records, defaultDI(), nil)
	full, err := a.Query(records, Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 7, 10, 45, 89, 90, 200} {
		got := a.RankTopK(records, k)
		want := full.Items
		if k < len(want) {
			want = want[:k]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: heap selection disagrees with full sort", k)
		}
	}
}

func TestQueryRankTopKMatchesRankPrefix(t *testing.T) {
	records := worldRecords(t, 70, 35)
	a := NewSourceAssessor(records, defaultDI(), nil)
	ranked := a.Rank(records)
	top := a.RankTopK(records, 10)
	if !reflect.DeepEqual(top, ranked[:10]) {
		t.Fatal("RankTopK(10) is not the prefix of Rank")
	}
}

func TestQueryScoresProjection(t *testing.T) {
	records := worldRecords(t, 40, 37)
	a := NewSourceAssessor(records, defaultDI(), nil)
	res, err := a.Query(records, Query{TopK: 5, Fields: ProjectScores})
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := a.Query(records, Query{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, as := range res.Items {
		if as.Raw != nil || as.Normalized != nil {
			t.Fatal("ProjectScores must skip the per-measure maps")
		}
		full := fullRes.Items[i]
		if as.ID != full.ID || as.Score != full.Score ||
			!reflect.DeepEqual(as.DimensionScores, full.DimensionScores) ||
			!reflect.DeepEqual(as.AttributeScores, full.AttributeScores) {
			t.Fatal("projection changed the scores")
		}
	}
}

func TestQueryErrors(t *testing.T) {
	records := worldRecords(t, 20, 39)
	a := NewSourceAssessor(records, defaultDI(), nil)
	if _, err := a.Query(records, Query{MinMeasure: map[string]float64{"no.such.measure": 0.5}}); err == nil {
		t.Error("unknown measure must error")
	}
	if _, err := a.Query(records, Query{Sort: SortKey{By: SortBy(99)}}); err == nil {
		t.Error("unknown sort key must error")
	}
	if _, err := a.Query(records, Query{MinSpamResistance: 0.5}); err == nil {
		t.Error("spam resistance on a source query must error")
	}
}

func TestContributorQuerySpamResistance(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 41, NumSources: 60, NumUsers: 200, SpamRate: 0.25})
	records := ContributorRecordsFromWorld(w)
	a := NewContributorAssessor(records, DomainOfInterest{Categories: w.Categories}, nil)

	if _, err := a.Query(records, Query{Kinds: []string{"blog"}}); err == nil {
		t.Error("kinds on a contributor query must error")
	}

	all, err := a.Query(records, Query{})
	if err != nil {
		t.Fatal(err)
	}
	resistant, err := a.Query(records, Query{MinSpamResistance: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if resistant.Total == 0 || resistant.Total >= all.Total {
		t.Fatalf("spam-resistance did not narrow: %d of %d", resistant.Total, all.Total)
	}
	// The predicate thresholds the relative reaction signal, so every
	// survivor must clear it on the materialized measures too.
	for _, as := range resistant.Items {
		if avgOf(as.Normalized, relativeReactionMeasures...) < 0.35 {
			t.Fatalf("%s survived with weak relative signal", as.Name)
		}
	}
	// And the spammer share among survivors must not exceed the unfiltered
	// share (Section 3.2's robustness claim).
	spamShare := func(items []*Assessment) float64 {
		byID := map[int]*ContributorRecord{}
		for _, r := range records {
			byID[r.ID] = r
		}
		spam := 0
		for _, as := range items {
			if byID[as.ID].Spammer {
				spam++
			}
		}
		return float64(spam) / float64(len(items))
	}
	if s, u := spamShare(resistant.Items), spamShare(all.Items); s > u {
		t.Errorf("spam share rose under the resistance predicate: %.3f > %.3f", s, u)
	}
}

// TestForeignFieldRejected pins, for both record kinds, the rejection of a
// Query field the kind lacks on every entry point: Query and Spine return
// the error, and RepairSpine refuses on an assessor that carries the same
// query without the field.
func TestForeignFieldRejected(t *testing.T) {
	const (
		spamErr   = "quality: MinSpamResistance applies to contributor queries only"
		minIntErr = "quality: MinInteractions applies to contributor queries only"
		infErr    = "quality: SortByInfluence applies to contributor queries only"
		kindsErr  = "quality: Kinds applies to source queries only"
	)
	w := webgen.Generate(webgen.Config{Seed: 41, NumSources: 40, NumUsers: 120})
	sources := worldRecords(t, 40, 41)
	contributors := ContributorRecordsFromWorld(w)
	for _, shards := range []int{1, 3} {
		opts := &AssessorOptions{Shards: shards}
		sa := NewSourceAssessor(sources, defaultDI(), opts)
		ca := NewContributorAssessor(contributors, defaultDI(), opts)
		for _, q := range []Query{
			{MinSpamResistance: 0.5},
			{MinSpamResistance: 0.5, MinScore: 0.2, TopK: 3, Categories: []string{"pulse"}},
		} {
			checkForeignField(t, sa, sources, q, spamErr)
		}
		for _, q := range []Query{
			{MinInteractions: 1},
			{MinInteractions: 50, MinScore: 0.2, TopK: 3, Categories: []string{"pulse"}},
		} {
			checkForeignField(t, sa, sources, q, minIntErr)
		}
		for _, s := range []InfluencerStrategy{ByActivity, ByRelative, Combined} {
			checkForeignField(t, sa, sources, Query{Sort: SortKey{By: SortByInfluence, Strategy: s}, TopK: 5}, infErr)
		}
		for _, q := range []Query{
			{Kinds: []string{"blog"}},
			{Kinds: []string{"forum"}, MinSpamResistance: 0.3, Limit: 2},
		} {
			checkForeignField(t, ca, contributors, q, kindsErr)
		}
	}
}

// checkForeignField checks one rejected query q against a, whose error
// must read want.
func checkForeignField[R any](t *testing.T, a *Assessor[R], records []*R, q Query, want string) {
	t.Helper()
	if _, err := a.Query(records, q); err == nil || err.Error() != want {
		t.Errorf("Query(%+v): error %v, want %q", q, err, want)
	}
	if _, err := a.Spine(records, q); err == nil || err.Error() != want {
		t.Errorf("Spine(%+v): error %v, want %q", q, err, want)
	}
	base := q
	base.Kinds, base.MinSpamResistance, base.MinInteractions = nil, 0, 0
	if base.Sort.By == SortByInfluence {
		base.Sort = SortKey{}
	}
	prev, err := a.Spine(records, base)
	if err != nil {
		t.Fatal(err)
	}
	next := a.UpdateRows(records, nil, false)
	if _, ok := next.RepairSpine(records, prev, base); !ok {
		t.Fatalf("RepairSpine(%+v) refused: the assessor must be carry-eligible", base)
	}
	if sp, ok := next.RepairSpine(records, prev, q); ok || sp != nil {
		t.Errorf("RepairSpine(%+v): ok %v, spine returned %v; want a refusal", q, ok, sp != nil)
	}
}

// TestQueryAfterUpdateRows pins that the lean query path reads the
// repaired matrix, not stale construction state.
func TestQueryAfterUpdateRows(t *testing.T) {
	w, w2, delta, panel, panel2 := advancedWorld(t, 40, 43, 5)
	if w2 == w {
		t.Fatal("tick changed nothing; pick another seed")
	}
	records := SourceRecordsFromWorld(w, panel)
	a := NewSourceAssessor(records, defaultDI(), nil)

	records2, dirty := UpdateSourceRecordsFromWorld(records, panel, w2, panel2, delta.DirtySourceIDs())
	updated := a.UpdateRows(records2, dirty, delta.EpochMoved())

	fresh := NewSourceAssessor(records2, defaultDI(), nil)
	q := Query{MinScore: 0.35, TopK: 12}
	got, err := updated.Query(records2, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(records2, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != want.Total || !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatal("query over an incrementally updated assessor diverges from a rebuild")
	}
}

func TestParseDimensionAttribute(t *testing.T) {
	for _, d := range Dimensions() {
		got, ok := ParseDimension(d.String())
		if !ok || got != d {
			t.Errorf("ParseDimension(%q) = %v, %v", d.String(), got, ok)
		}
	}
	if _, ok := ParseDimension("nope"); ok {
		t.Error("bad dimension name must not parse")
	}
	for _, at := range []Attribute{Relevance, Breadth, Traffic, Activity, Liveliness} {
		got, ok := ParseAttribute(at.String())
		if !ok || got != at {
			t.Errorf("ParseAttribute(%q) = %v, %v", at.String(), got, ok)
		}
	}
	if _, ok := ParseAttribute("nope"); ok {
		t.Error("bad attribute name must not parse")
	}
}

// --- Keyset pagination, spine/window and randomized equivalence ---------

// sourceCategories and sourceKinds are the scope vocabularies of the
// generated worlds, used by the randomized query generator.
var (
	randQueryCategories = []string{"presence", "place", "potential", "pulse", "people", "prerequisites"}
	randQueryKinds      = []string{"blog", "forum", "review-site", "social-network"}
)

// randomQuery draws one query: scopes, per-axis predicates, sort, k,
// window and projection all randomized, plus the rank pos its window
// resumes at (0 = the first page; see referenceCursor). The query itself
// is cursor-free.
func randomQuery(rng *rand.Rand) (q Query, pos int) {
	if rng.Intn(4) == 0 {
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			q.IDs = append(q.IDs, rng.Intn(160))
		}
	}
	if rng.Intn(4) == 0 {
		q.Categories = append(q.Categories, randQueryCategories[rng.Intn(len(randQueryCategories))])
		if rng.Intn(2) == 0 {
			q.Categories = append(q.Categories, randQueryCategories[rng.Intn(len(randQueryCategories))])
		}
	}
	if rng.Intn(4) == 0 {
		q.Kinds = append(q.Kinds, randQueryKinds[rng.Intn(len(randQueryKinds))])
		if rng.Intn(2) == 0 {
			q.Kinds = append(q.Kinds, randQueryKinds[rng.Intn(len(randQueryKinds))])
		}
	}
	if rng.Intn(2) == 0 {
		q.MinScore = rng.Float64() * 0.7
	}
	if rng.Intn(4) == 0 {
		dims := Dimensions()
		q.MinDimension = map[Dimension]float64{dims[rng.Intn(len(dims))]: rng.Float64() * 0.6}
	}
	if rng.Intn(4) == 0 {
		atts := []Attribute{Relevance, Breadth, Traffic, Liveliness}
		q.MinAttribute = map[Attribute]float64{atts[rng.Intn(len(atts))]: rng.Float64() * 0.6}
	}
	if rng.Intn(5) == 0 {
		q.MinMeasure = map[string]float64{"src.time.liveliness": rng.Float64() * 0.5}
	}
	switch rng.Intn(4) {
	case 0:
		dims := Dimensions()
		q.Sort = SortKey{By: SortByDimension, Dimension: dims[rng.Intn(len(dims))]}
	case 1:
		atts := []Attribute{Relevance, Breadth, Traffic, Liveliness}
		q.Sort = SortKey{By: SortByAttribute, Attribute: atts[rng.Intn(len(atts))]}
	}
	if rng.Intn(2) == 0 {
		q.TopK = 1 + rng.Intn(60)
	}
	if rng.Intn(2) == 0 {
		pos = rng.Intn(25)
	}
	if rng.Intn(2) == 0 {
		q.Limit = 1 + rng.Intn(20)
	}
	if rng.Intn(3) == 0 {
		q.Fields = ProjectScores
	}
	return q, pos
}

// TestQueryRandomizedEquivalence pins ~200 seeded-random queries, half of
// them resumed from a cursor mid-ranking, bit-identical across all three
// execution plans: the lean rankTopK pass, the naive reference plan (full
// Rank, post-filter, re-sort, slice), and the spine+window path the
// facade cache serves from.
func TestQueryRandomizedEquivalence(t *testing.T) {
	records := worldRecords(t, 160, 47)
	a := NewSourceAssessor(records, defaultDI(), nil)
	rng := rand.New(rand.NewSource(4711))
	for i := 0; i < 200; i++ {
		q, pos := randomQuery(rng)
		q.After = referenceCursor(a, records, q, pos)
		got, err := a.Query(records, q)
		if err != nil {
			t.Fatalf("query %d (%+v): %v", i, q, err)
		}
		// Reference plan (always materializes full assessments).
		qFull := q
		qFull.Fields = ProjectFull
		gotFull, err := a.Query(records, qFull)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceQuery(a, records, qFull)
		if gotFull.Total != want.Total {
			t.Fatalf("query %d (%+v): total %d, want %d", i, q, gotFull.Total, want.Total)
		}
		if !reflect.DeepEqual(gotFull.Items, want.Items) {
			t.Fatalf("query %d (%+v): engine diverges from reference plan", i, q)
		}
		// Spine + window plan must reproduce the engine result exactly,
		// including Start and the resume cursor.
		sp, err := a.Spine(records, q)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Total() != got.Total {
			t.Fatalf("query %d: spine total %d, want %d", i, sp.Total(), got.Total)
		}
		wres, err := a.Window(records, sp, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wres, got) {
			t.Fatalf("query %d (%+v): spine window diverges from rankTopK\n spine: %+v\n rank:  %+v",
				i, q, wres, got)
		}
	}
}

// walkCursor pages through q by chaining each page's resume cursor,
// executing either through rankTopK or through a shared spine.
func walkCursor(t *testing.T, a *SourceAssessor, records []*SourceRecord, q Query, limit int, viaSpine bool) []*Assessment {
	t.Helper()
	var sp *Spine
	if viaSpine {
		var err error
		if sp, err = a.Spine(records, q); err != nil {
			t.Fatal(err)
		}
	}
	items := []*Assessment{}
	var cur *Cursor
	for pages := 0; pages < 100000; pages++ {
		qq := q
		qq.Limit, qq.After = limit, cur
		var res *QueryResult
		var err error
		if viaSpine {
			res, err = a.Window(records, sp, qq)
		} else {
			res, err = a.Query(records, qq)
		}
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, res.Items...)
		if res.Next == nil {
			return items
		}
		if len(res.Items) == 0 {
			t.Fatal("empty page with a resume cursor")
		}
		cur = res.Next
	}
	t.Fatal("cursor walk did not terminate")
	return nil
}

// TestQueryCursorWalkEquivalence is the keyset-pagination acceptance
// contract at the engine level: for randomized queries, a chained-cursor
// walk (through both execution plans) is bit-identical to the unwindowed
// ranking.
func TestQueryCursorWalkEquivalence(t *testing.T) {
	records := worldRecords(t, 140, 49)
	a := NewSourceAssessor(records, defaultDI(), nil)
	rng := rand.New(rand.NewSource(1337))
	for i := 0; i < 60; i++ {
		q, _ := randomQuery(rng)
		q.Limit = 0
		limit := 1 + rng.Intn(13)

		full, err := a.Query(records, q)
		if err != nil {
			t.Fatal(err)
		}
		cursorWalk := walkCursor(t, a, records, q, limit, false)
		spineWalk := walkCursor(t, a, records, q, limit, true)
		if !reflect.DeepEqual(cursorWalk, full.Items) {
			t.Fatalf("query %d (%+v, limit %d): cursor walk diverges from the full ranking", i, q, limit)
		}
		if !reflect.DeepEqual(spineWalk, full.Items) {
			t.Fatalf("query %d (%+v, limit %d): spine cursor walk diverges from the full ranking", i, q, limit)
		}
	}
}

// TestQueryCursorSemantics pins the cursor edge cases: budget exhaustion
// under TopK, invalid cursors on both plans, and Total stability across a
// walk.
func TestQueryCursorSemantics(t *testing.T) {
	records := worldRecords(t, 80, 51)
	a := NewSourceAssessor(records, defaultDI(), nil)

	res, err := a.Query(records, Query{TopK: 10, Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 4 || res.Next == nil || res.Next.Pos != 4 {
		t.Fatalf("first page: %d items, next %+v", len(res.Items), res.Next)
	}
	// Every page of one walk reports the same pre-pagination Total.
	page2, err := a.Query(records, Query{TopK: 10, Limit: 4, After: res.Next})
	if err != nil {
		t.Fatal(err)
	}
	if page2.Total != res.Total || page2.Start != 4 {
		t.Fatalf("page 2: total %d (want %d), start %d", page2.Total, res.Total, page2.Start)
	}
	// TopK budget: the walk stops at k across pages, not k per page.
	page3, err := a.Query(records, Query{TopK: 10, Limit: 4, After: page2.Next})
	if err != nil {
		t.Fatal(err)
	}
	if len(page3.Items) != 2 || page3.Next != nil {
		t.Fatalf("page 3 must close the k=10 walk: %d items, next %+v", len(page3.Items), page3.Next)
	}
	// A cursor whose Pos already consumed the budget yields an empty page.
	spent, err := a.Query(records, Query{TopK: 10, Limit: 4, After: &Cursor{Key: 0.1, ID: 3, Pos: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(spent.Items) != 0 || spent.Next != nil {
		t.Fatal("exhausted budget must yield an empty final page")
	}

	sp, err := a.Spine(records, Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Cursor{{Key: math.NaN()}, {ID: -1}} {
		if _, err := a.Query(records, Query{After: bad}); err == nil {
			t.Errorf("cursor %+v must error", bad)
		}
		if _, err := a.Window(records, sp, Query{After: bad}); err == nil {
			t.Errorf("window with cursor %+v must error", bad)
		}
	}
}

// TestQueryCanonicalKey pins the cache-key contract: representation
// differences (set order, duplicates) canonicalize identically, while
// semantic differences never collide.
func TestQueryCanonicalKey(t *testing.T) {
	a := Query{IDs: []int{5, 3, 5}, Categories: []string{"pulse", "place"}, MinScore: 0.5, TopK: 10}
	b := Query{IDs: []int{3, 5}, Categories: []string{"place", "pulse", "place"}, MinScore: 0.5, TopK: 10}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("set order and duplicates must not change the canonical key")
	}
	distinct := []Query{
		{},
		{MinScore: 0.5},
		{MinScore: 0.5000000001},
		{TopK: 10},
		{Limit: 10},
		{Fields: ProjectScores},
		{Categories: []string{"place"}},
		{Kinds: []string{"place"}},
		{IDs: []int{1}},
		{MinDimension: map[Dimension]float64{Time: 0.5}},
		{MinAttribute: map[Attribute]float64{Traffic: 0.5}},
		{MinMeasure: map[string]float64{"src.time.liveliness": 0.5}},
		{MinSpamResistance: 0.5},
		{Sort: SortKey{By: SortByDimension, Dimension: Time}},
		// A collision here would serve one strategy's or one floor's
		// cached page for another.
		{Sort: SortKey{By: SortByInfluence, Strategy: ByActivity}},
		{Sort: SortKey{By: SortByInfluence, Strategy: ByRelative}},
		{Sort: SortKey{By: SortByInfluence, Strategy: Combined}},
		{MinInteractions: 1},
		{MinInteractions: 50},
		{MinInteractions: 1, Sort: SortKey{By: SortByInfluence, Strategy: Combined}},
		{After: &Cursor{Key: 0.5, ID: 1, Pos: 3}},
		{After: &Cursor{Key: 0.5, ID: 1, Pos: 4}},
	}
	seen := map[string]int{}
	for i, q := range distinct {
		key := q.CanonicalKey()
		if j, dup := seen[key]; dup {
			t.Fatalf("queries %d and %d collide on %q", i, j, key)
		}
		seen[key] = i
	}
	// Windowless strips exactly the pagination and projection fields.
	wq := Query{MinScore: 0.3, TopK: 5, Limit: 3, After: &Cursor{Pos: 2}, Fields: ProjectScores}
	if wq.Windowless().CanonicalKey() != (Query{MinScore: 0.3}).CanonicalKey() {
		t.Fatal("Windowless must strip the window and projection only")
	}
}

// TestDiffWindows pins the watch delta semantics on a crafted pair.
func TestDiffWindows(t *testing.T) {
	as := func(id int, score float64) *Assessment {
		return &Assessment{ID: id, Name: fmt.Sprintf("s%d", id), Score: score}
	}
	old := []*Assessment{as(1, 0.9), as(2, 0.8), as(3, 0.7), as(4, 0.6)}
	new := []*Assessment{as(1, 0.9), as(3, 0.85), as(5, 0.75), as(2, 0.65)}
	got := DiffWindows(old, new)
	want := []WindowChange{
		{ID: 3, Name: "s3", OldRank: 3, NewRank: 2, Score: 0.85},
		{ID: 5, Name: "s5", OldRank: 0, NewRank: 3, Score: 0.75},
		{ID: 2, Name: "s2", OldRank: 2, NewRank: 4, Score: 0.65},
		{ID: 4, Name: "s4", OldRank: 4, NewRank: 0, Score: 0.6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diff:\n got  %+v\n want %+v", got, want)
	}
	for i, ev := range []string{"moved", "entered", "moved", "left"} {
		if got[i].Event() != ev {
			t.Errorf("change %d: event %q, want %q", i, got[i].Event(), ev)
		}
	}
	if d := DiffWindows(old, old); len(d) != 0 {
		t.Fatalf("identical windows must diff empty, got %+v", d)
	}
}

// TestQueryExtremeWindowValuesDoNotPanic pins the overflow guards: a
// forged cursor plus a huge TopK, a huge Limit, or a cursor Pos near
// MaxInt must degrade to sane windows (empty or clamped), never to a
// negative slice bound, heap index panic or wrapped cursor — all were
// reachable over HTTP.
func TestQueryExtremeWindowValuesDoNotPanic(t *testing.T) {
	records := worldRecords(t, 30, 53)
	a := NewSourceAssessor(records, defaultDI(), nil)

	// Huge TopK with a cursor that sorts after everything: the window is
	// empty, on both execution plans.
	forged := &Cursor{Key: math.Inf(-1), ID: 0, Pos: 0}
	res, err := a.Query(records, Query{TopK: math.MaxInt, After: forged})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 || res.Next != nil {
		t.Fatalf("forged trailing cursor must close the walk: %d items", len(res.Items))
	}
	sp, err := a.Spine(records, Query{})
	if err != nil {
		t.Fatal(err)
	}
	wres, err := a.Window(records, sp, Query{TopK: math.MaxInt, After: forged})
	if err != nil {
		t.Fatal(err)
	}
	if len(wres.Items) != 0 || wres.Next != nil {
		t.Fatalf("window plan: forged trailing cursor must close the walk: %d items", len(wres.Items))
	}

	// A huge Limit is an unbounded page, and a huge TopK less a huge Pos
	// is a small budget: neither may wrap the width, on both plans.
	for _, tc := range []struct {
		q    Query
		want int
	}{
		{Query{Limit: math.MaxInt}, len(records)},
		{Query{TopK: math.MaxInt, Limit: math.MaxInt, After: &Cursor{Key: math.Inf(1), Pos: math.MaxInt - 5}}, 5},
	} {
		res, err := a.Query(records, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		wres, err := a.Window(records, sp, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != tc.want || !reflect.DeepEqual(wres, res) {
			t.Fatalf("%+v: %d items (window plan %d), want %d", tc.q, len(res.Items), len(wres.Items), tc.want)
		}
	}

	// A cursor Pos near MaxInt without TopK: the page serves, and the
	// saturated consumed count closes the walk instead of wrapping into a
	// bogus resume cursor.
	res, err = a.Query(records, Query{After: &Cursor{Key: math.Inf(1), ID: 0, Pos: math.MaxInt - 1}, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Next != nil {
		t.Fatal("saturated walk position must not emit a resume cursor")
	}
}

// TestRecordSliceLengthMismatch pins the row-for-row contract of the read
// methods: a record slice shorter or longer than the assessor's corpus, or
// one holding a record the assessor does not hold at a row the read
// reaches, is an error from Query, Spine and Window and a refused repair
// from RepairSpine, never a silently truncated scan, a panic in a worker
// or a row read from another record.
func TestRecordSliceLengthMismatch(t *testing.T) {
	records := worldRecords(t, 40, 43)
	for _, shards := range []int{1, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			a := NewSourceAssessor(records, defaultDI(), &AssessorOptions{Shards: shards})
			q := Query{TopK: 10}
			sp, err := a.Spine(records, q)
			if err != nil {
				t.Fatal(err)
			}
			// A tick that re-evaluated the best row without moving it:
			// its shard repairs, every other shard carries.
			row := sp.cands[0].row
			next := a.UpdateRows(records, []int{row}, false)
			if _, ok := next.RepairSpine(records, sp, q); !ok {
				t.Fatal("RepairSpine refused the matching record slice")
			}
			extra := *records[0]
			extra.ID = len(records)
			// A copy of the best row's record: equal in every field, yet
			// not the record the assessor holds there, on a row every
			// scan, the first page and the repair read.
			copied := *records[row]
			foreign := append([]*SourceRecord(nil), records...)
			foreign[row] = &copied
			for name, bad := range map[string][]*SourceRecord{
				"shorter": records[:len(records)-3],
				"longer":  append(append([]*SourceRecord(nil), records...), &extra),
				"foreign": foreign,
			} {
				if _, err := a.Query(bad, q); err == nil {
					t.Errorf("%s: Query accepted %d records over %d rows", name, len(bad), len(records))
				}
				if _, err := a.Spine(bad, q); err == nil {
					t.Errorf("%s: Spine accepted %d records", name, len(bad))
				}
				if _, err := a.Window(bad, sp, q); err == nil {
					t.Errorf("%s: Window accepted %d records", name, len(bad))
				}
				if _, ok := next.RepairSpine(bad, sp, q); ok {
					t.Errorf("%s: RepairSpine carried over %d records", name, len(bad))
				}
			}
		})
	}
}

// TestEmptyCorpus pins every read and update path of an assessor built
// over zero records — the state an empty crawl hands to QueryRecords — at
// one shard and at several: reads answer empty, the update and spine
// carry succeed, and an off-corpus record assesses against the degenerate
// all-zero benchmarks (every normalized value 0.5).
func TestEmptyCorpus(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := &AssessorOptions{Shards: shards}
			a := NewSourceAssessor(nil, defaultDI(), opts)
			// shard.NewPlan clamps the shard count to the record count only
			// for non-empty corpora: zero records keep the requested plan.
			if got := a.ShardCount(); got != shards {
				t.Fatalf("ShardCount %d, want %d", got, shards)
			}
			for _, q := range []Query{{}, {TopK: 5, Limit: 2}, {Kinds: []string{"blog"}, Sort: SortKey{By: SortByDimension, Dimension: Time}}} {
				res, err := a.Query(nil, q)
				if err != nil || len(res.Items) != 0 || res.Total != 0 || res.Next != nil {
					t.Fatalf("Query(%+v): %+v, %v; want an empty result", q, res, err)
				}
			}
			sp, err := a.Spine(nil, Query{})
			if err != nil || sp.Total() != 0 {
				t.Fatalf("Spine: total %v, %v; want 0", sp, err)
			}
			if res, err := a.Window(nil, sp, Query{Limit: 3}); err != nil || len(res.Items) != 0 || res.Next != nil {
				t.Fatalf("Window: %+v, %v; want an empty page", res, err)
			}
			if got := a.Rank(nil); len(got) != 0 {
				t.Fatalf("Rank: %d items, want 0", len(got))
			}

			next := a.UpdateRows(nil, nil, false)
			if next.ShardCount() != a.ShardCount() {
				t.Fatalf("UpdateRows changed the shard count: %d -> %d", a.ShardCount(), next.ShardCount())
			}
			rsp, ok := next.RepairSpine(nil, sp, Query{})
			if !ok || rsp.Total() != 0 {
				t.Fatalf("RepairSpine: ok %v, spine %+v; want an empty carry", ok, rsp)
			}
			if got, want := next.SpineStats(), (SpineStats{Carries: int64(next.ShardCount())}); got != want {
				t.Fatalf("SpineStats after the carry: %+v, want %+v", got, want)
			}

			ca := NewContributorAssessor(nil, defaultDI(), opts)
			res, err := ca.Query(nil, Query{MinSpamResistance: 0.5})
			if err != nil || len(res.Items) != 0 || res.Total != 0 {
				t.Fatalf("contributor MinSpamResistance query: %+v, %v; want an empty result", res, err)
			}

			as := a.Assess(fixtureSourceRecord())
			if len(as.Normalized) == 0 {
				t.Fatal("off-corpus Assess defined no measure")
			}
			for id, n := range as.Normalized {
				if n != 0.5 {
					t.Errorf("off-corpus %s normalized to %v, want 0.5 (degenerate benchmark)", id, n)
				}
			}
			if as.Score != 0.5 {
				t.Errorf("off-corpus score %v, want 0.5", as.Score)
			}
		})
	}
}
