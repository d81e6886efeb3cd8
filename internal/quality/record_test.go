package quality

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/crawler"
	"github.com/informing-observers/informer/internal/webgen"
	"github.com/informing-observers/informer/internal/webserve"
)

func TestDistinctCommenters(t *testing.T) {
	comments := func(authors ...int) []CommentStat {
		out := make([]CommentStat, len(authors))
		for i, a := range authors {
			out[i] = CommentStat{AuthorID: a}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		r    SourceRecord
		want int
	}{
		{"no discussions", SourceRecord{}, 0},
		{"discussions without comments", SourceRecord{Discussions: []DiscussionStat{{}, {Category: "place"}}}, 0},
		{"one author", SourceRecord{Discussions: []DiscussionStat{{Comments: comments(7, 7, 7)}}}, 1},
		{"repeats across discussions", SourceRecord{Discussions: []DiscussionStat{
			{Comments: comments(3, 1, 3)},
			{},
			{Comments: comments(2, 1)},
			{Comments: comments(3, 0, -4, 2)},
		}}, 5},
	} {
		tc.r.IndexDiscussions()
		if got := tc.r.DistinctCommenters(); got != tc.want {
			t.Errorf("%s: %d distinct commenters, want %d", tc.name, got, tc.want)
		}
	}
	// Generated corpora: the count equals the size of the author set.
	for _, r := range worldRecords(t, 60, 77) {
		seen := map[int]bool{}
		for _, d := range r.Discussions {
			for _, c := range d.Comments {
				seen[c.AuthorID] = true
			}
		}
		if got := r.DistinctCommenters(); got != len(seen) {
			t.Fatalf("source %d: %d distinct commenters, want %d", r.ID, got, len(seen))
		}
	}
}

// scanRecordStats is the reference for a record's carried statistics: its
// distinct comment authors, sorted, and its open-discussion count, found
// by walking every discussion and comment.
func scanRecordStats(r *SourceRecord) ([]int32, int) {
	seen := map[int32]bool{}
	open := 0
	for _, d := range r.Discussions {
		if d.Open {
			open++
		}
		for _, c := range d.Comments {
			seen[int32(c.AuthorID)] = true
		}
	}
	var ids []int32
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, open
}

func checkRecordStats(t *testing.T, step string, got, want *SourceRecord) {
	t.Helper()
	ids, open := scanRecordStats(want)
	if !slices.Equal(want.authors, ids) || want.open != open {
		t.Fatalf("%s: source %d reference record carries %d authors / %d open, scan %d / %d",
			step, want.ID, len(want.authors), want.open, len(ids), open)
	}
	if !slices.Equal(got.authors, want.authors) || got.open != want.open {
		t.Fatalf("%s: source %d carries %v / %d open, want %v / %d",
			step, got.ID, got.authors, got.open, want.authors, want.open)
	}
}

// TestCarriedRecordStatistics pins the author sets and open counts
// UpdateSourceRecordsFromWorld carries through a run of mixed ticks —
// day-moving, same-day and per-source polls that open discussions — to
// the ones SourceRecordsFromWorld and a crawl's SourceRecordsFromSnapshot
// derive by sorting, and pins that a refresh never writes the previous
// round's sets.
func TestCarriedRecordStatistics(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 1602, NumSources: 30, NumUsers: 90, ChurnScale: 8})
	panel := analytics.Build(w, 2602)
	records := SourceRecordsFromWorld(w, panel)
	rng := rand.New(rand.NewSource(1602))
	dirtied := 0
	for i := 0; i < 12; i++ {
		var delta *webgen.Delta
		switch i % 3 {
		case 0:
			w, delta = webgen.Advance(w, 1, rng.Int63())
		case 1:
			w, delta = webgen.AdvanceSameDay(w, rng.Int63(), nil)
		case 2:
			w, delta = webgen.AdvanceSource(w, w.Sources[rng.Intn(len(w.Sources))].ID, rng.Int63(), nil)
		}
		prev := records
		before := make([][]int32, len(prev))
		for row, r := range prev {
			before[row] = slices.Clone(r.authors)
		}
		prevPanel := panel
		panel = panel.Refresh(w)
		var dirty []int
		records, dirty = UpdateSourceRecordsFromWorld(prev, prevPanel, w, panel, delta.DirtySourceIDs())
		dirtied += len(dirty)
		want := SourceRecordsFromWorld(w, panel)
		for row := range records {
			checkRecordStats(t, fmt.Sprintf("tick %d", i), records[row], want[row])
			if !slices.Equal(prev[row].authors, before[row]) {
				t.Fatalf("tick %d wrote source %d's previous author set", i, prev[row].ID)
			}
		}
	}
	if dirtied == 0 {
		t.Fatal("no tick dirtied a record; the carried path went unexercised")
	}

	ts := httptest.NewServer(webserve.New(w))
	defer ts.Close()
	snap, err := crawler.Crawl(context.Background(), crawler.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	crawled := SourceRecordsFromSnapshot(snap, panel, w.Config.End, w.Days())
	if len(crawled) != len(records) {
		t.Fatalf("crawled %d records, carried %d", len(crawled), len(records))
	}
	for row := range records {
		checkRecordStats(t, "crawl", records[row], crawled[row])
		if crawled[row].MaxOpenDiscussions != w.MaxOpenDiscussions {
			t.Fatalf("crawl: MaxOpenDiscussions %d, world %d", crawled[row].MaxOpenDiscussions, w.MaxOpenDiscussions)
		}
	}
}

// TestExtendIndexCases covers the dirty-row extension directly: a record
// without comments, a dirty row whose new comments all come from authors
// already in its set (the set is shared, not copied), a new author merged
// into a copy that leaves the previous set untouched, and the
// copy-on-write discussion stats — an untouched discussion shares its
// comment stats, a grown one gets a fresh exactly sized slice, and the
// opening-instant column is shared until a discussion is appended. Every
// extension equals a from-scratch build of the same source.
func TestExtendIndexCases(t *testing.T) {
	opened := time.Date(2011, 3, 1, 12, 0, 0, 0, time.UTC)
	disc := func(open bool, authors ...int) *webgen.Discussion {
		d := &webgen.Discussion{Open: open, Opened: opened}
		for _, a := range authors {
			d.Comments = append(d.Comments, &webgen.Comment{UserID: a, Replies: a})
		}
		opened = opened.Add(time.Hour)
		return d
	}
	// grow is a tick's copy of d with comments appended: same opening
	// instant, same first comments.
	grow := func(d *webgen.Discussion, authors ...int) *webgen.Discussion {
		nd := *d
		nd.Comments = slices.Clip(d.Comments)
		for _, a := range authors {
			nd.Comments = append(nd.Comments, &webgen.Comment{UserID: a, Replies: a})
		}
		return &nd
	}
	source := func(ds ...*webgen.Discussion) *webgen.Source { return &webgen.Source{Discussions: ds} }
	recordOf := func(s *webgen.Source) *SourceRecord {
		r := &SourceRecord{Discussions: buildDiscussionStats(s)}
		r.IndexDiscussions()
		return r
	}
	extended := func(old *SourceRecord, s *webgen.Source) *SourceRecord {
		t.Helper()
		r := &SourceRecord{}
		r.extendIndex(old, s)
		if want := recordOf(s); !reflect.DeepEqual(r, want) {
			t.Fatalf("extension differs from a rebuild:\n got  %+v\n want %+v", r, want)
		}
		return r
	}

	e0, e1 := disc(true), disc(false)
	empty := recordOf(source(e0, e1))
	grown := extended(empty, source(e0, e1, disc(true)))
	if empty.authors != nil || grown.authors != nil || grown.DistinctCommenters() != 0 || grown.OpenDiscussions() != 2 {
		t.Fatalf("zero comments: authors %v / %v, open %d", empty.authors, grown.authors, grown.OpenDiscussions())
	}

	o0 := disc(true, 3, 1)
	old := recordOf(source(o0))
	known := extended(old, source(grow(o0, 3, 1), disc(false, 1)))
	if !slices.Equal(known.authors, []int32{1, 3}) || known.OpenDiscussions() != 1 {
		t.Fatalf("known authors: %v, open %d", known.authors, known.OpenDiscussions())
	}
	if &known.authors[0] != &old.authors[0] {
		t.Fatal("a delta of known authors copied the set instead of sharing it")
	}

	fresh := extended(old, source(grow(o0, 2, 7), disc(true, 0)))
	if !slices.Equal(fresh.authors, []int32{0, 1, 2, 3, 7}) || fresh.OpenDiscussions() != 2 {
		t.Fatalf("new authors: %v, open %d", fresh.authors, fresh.OpenDiscussions())
	}
	if !slices.Equal(old.authors, []int32{1, 3}) {
		t.Fatalf("merging new authors wrote the previous set: %v", old.authors)
	}
	ids, open := scanRecordStats(fresh)
	if !slices.Equal(fresh.authors, ids) || fresh.open != open {
		t.Fatalf("extended stats %v / %d, scan %v / %d", fresh.authors, fresh.open, ids, open)
	}

	// Copy-on-write stats: o0 is untouched, o1 grows by one comment.
	o1 := disc(true, 5)
	two := recordOf(source(o0, o1))
	g1 := grow(o1, 6)
	next := extended(two, source(o0, g1))
	if &next.Discussions[0].Comments[0] != &two.Discussions[0].Comments[0] {
		t.Fatal("an untouched discussion copied its comment stats")
	}
	if cs := next.Discussions[1].Comments; &cs[0] == &two.Discussions[1].Comments[0] || len(cs) != 2 || cap(cs) != 2 {
		t.Fatalf("a grown discussion must get a fresh exactly sized slice, got len %d cap %d", len(cs), cap(cs))
	}
	if len(two.Discussions[1].Comments) != 1 {
		t.Fatal("extending wrote the previous record's discussion stats")
	}
	if &next.opened[0] != &two.opened[0] {
		t.Fatal("no discussion was appended, yet the opened column was copied")
	}
	third := extended(next, source(o0, g1, disc(false, 8)))
	if &third.opened[0] == &next.opened[0] || len(next.opened) != 2 {
		t.Fatal("an appended discussion must extend a copy of the opened column")
	}
}

// TestThreadAgeColumnMatchesSub pins the carried opening-instant column
// against time.Time.Sub, the reference both thread-age measures used to
// call per discussion: for ordinary instants (read from the column), and
// for every case that must fall back to Sub — a zero or year-1
// observation instant, a zero or year-2300 opening instant, monotonic
// clock readings on both sides, and records whose column does not cover
// their discussions. Each measure value equals the Sub reference bit for
// bit.
func TestThreadAgeColumnMatchesSub(t *testing.T) {
	subBreadth := func(r *SourceRecord) (float64, bool) {
		if len(r.Discussions) == 0 || r.ObservedAt.IsZero() {
			return 0, false
		}
		var sum float64
		for _, d := range r.Discussions {
			sum += r.ObservedAt.Sub(d.Opened).Hours() / 24
		}
		return sum / float64(len(r.Discussions)), true
	}
	subLiveliness := func(r *SourceRecord) (float64, bool) {
		if len(r.Discussions) == 0 || r.ObservedAt.IsZero() {
			return 0, false
		}
		var sum float64
		for _, d := range r.Discussions {
			age := r.ObservedAt.Sub(d.Opened).Hours() / 24
			if age < 1 {
				age = 1
			}
			sum += float64(len(d.Comments)) / age
		}
		return sum / float64(len(r.Discussions)), true
	}
	breadth, _ := SourceMeasureByID("src.time.breadth")
	liveliness, _ := SourceMeasureByID("src.dependability.liveliness")

	obs := time.Date(2012, 6, 30, 23, 59, 59, 987654321, time.UTC)
	now := time.Now() // carries a monotonic reading
	discs := func(opened ...time.Time) []DiscussionStat {
		out := make([]DiscussionStat, len(opened))
		for i, o := range opened {
			out[i] = DiscussionStat{Opened: o, Comments: make([]CommentStat, 1+i%3)}
		}
		return out
	}
	ordinary := discs(obs.Add(-90*time.Minute), obs.AddDate(0, -7, -3).Add(123456789), obs.AddDate(-3, 0, 0), obs.Add(time.Hour))
	for _, tc := range []struct {
		name     string
		observed time.Time
		ds       []DiscussionStat
		index    bool // call IndexDiscussions
		fast     bool // the column may stand in for Sub
	}{
		{"ordinary", obs, ordinary, true, true},
		{"zero observation", time.Time{}, ordinary, true, false},
		{"year-1 observation", time.Date(1, 3, 1, 0, 0, 0, 0, time.UTC), ordinary, true, false},
		{"year-2300 observation", time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), ordinary, true, false},
		{"zero opening", obs, discs(obs.AddDate(0, 0, -2), time.Time{}), true, false},
		{"year-1 opening", obs, discs(time.Date(1, 1, 2, 0, 0, 0, 0, time.UTC), obs.AddDate(0, 0, -2)), true, false},
		{"year-2300 opening", obs, discs(obs.AddDate(0, 0, -2), time.Date(2300, 7, 1, 0, 0, 0, 0, time.UTC)), true, false},
		{"monotonic both sides", now, discs(now.Add(-50*time.Hour), now.Add(-time.Minute)), true, false},
		{"monotonic opening only", now.Round(0), discs(now.Add(-50*time.Hour), now.Add(-time.Minute)), true, true},
		{"never indexed", obs, ordinary, false, false},
	} {
		r := &SourceRecord{ObservedAt: tc.observed, Discussions: tc.ds}
		if tc.index {
			r.IndexDiscussions()
		}
		if _, fast := r.ageClock(); fast != tc.fast {
			t.Fatalf("%s: ageClock fast = %v, want %v", tc.name, fast, tc.fast)
		}
		for _, m := range []struct {
			measure SourceMeasure
			sub     func(*SourceRecord) (float64, bool)
		}{{breadth, subBreadth}, {liveliness, subLiveliness}} {
			got, gok := m.measure.Eval(r, &DomainOfInterest{})
			want, wok := m.sub(r)
			if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %s = %v (%v), Sub gives %v (%v)", tc.name, m.measure.ID, got, gok, want, wok)
			}
		}
	}
	// Discussions appended by hand after IndexDiscussions: the column no
	// longer covers them, so the measures fall back.
	r := &SourceRecord{ObservedAt: obs, Discussions: ordinary[:2]}
	r.IndexDiscussions()
	r.Discussions = ordinary
	if _, fast := r.ageClock(); fast {
		t.Fatal("a column shorter than Discussions must not stand in for Sub")
	}
	got, _ := breadth.Eval(r, &DomainOfInterest{})
	if want, _ := subBreadth(r); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("stale column: breadth %v, Sub gives %v", got, want)
	}
}

// TestUpdateSourceRecordsSharing pins the three record paths of
// UpdateSourceRecordsFromWorld on a same-day round. With the previous
// panel, only the dirty rows get fresh records. With a panel whose joins
// moved for clean rows too (rebuilt from another seed), exactly the rows
// whose join moved get fresh ones. After an epoch move every record is
// fresh. Each result equals a from-scratch build, and no record of the
// previous slice is written: sharing a clean record whose join moved, or
// refreshing one in place, fails it.
func TestUpdateSourceRecordsSharing(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 1604, NumSources: 40, NumUsers: 120})
	panel := analytics.Build(w, 2604)
	old := SourceRecordsFromWorld(w, panel)
	nw, delta := webgen.AdvanceSameDay(w, 3604, []int{2, 9, 31})
	fresh := func(next []*SourceRecord) (n int) {
		for i := range next {
			if next[i] != old[i] {
				n++
			}
		}
		return n
	}
	check := func(label string, next []*SourceRecord, npanel *analytics.Panel, nw *webgen.World) {
		t.Helper()
		for i, want := range SourceRecordsFromWorld(nw, npanel) {
			if !reflect.DeepEqual(next[i], want) {
				t.Fatalf("%s: record %d differs from a rebuild", label, i)
			}
		}
		for i, want := range SourceRecordsFromWorld(w, panel) {
			if !reflect.DeepEqual(old[i], want) {
				t.Fatalf("%s: the refresh wrote previous record %d", label, i)
			}
		}
	}

	npanel := panel.Refresh(nw)
	if npanel != panel {
		t.Fatal("a same-day tick moved the panel")
	}
	next, dirty := UpdateSourceRecordsFromWorld(old, panel, nw, npanel, delta.DirtySourceIDs())
	if len(dirty) == 0 || fresh(next) != len(dirty) {
		t.Fatalf("held panel: %d fresh records for %d dirty rows", fresh(next), len(dirty))
	}
	check("held panel", next, npanel, nw)

	other := analytics.Build(nw, 9604)
	moved := 0
	for i, r := range old {
		m, _ := other.BySource(r.ID)
		if !samePanel(panelStat(m), r.Panel) && !slices.Contains(dirty, i) {
			moved++
		}
	}
	next, _ = UpdateSourceRecordsFromWorld(old, panel, nw, other, delta.DirtySourceIDs())
	if moved == 0 || fresh(next) != moved+len(dirty) {
		t.Fatalf("moved panel: %d fresh records, want %d moved joins plus %d dirty rows", fresh(next), moved, len(dirty))
	}
	check("moved panel", next, other, nw)

	ew, edelta := webgen.Advance(w, 1, 5604)
	epanel := panel.Refresh(ew)
	next, _ = UpdateSourceRecordsFromWorld(old, panel, ew, epanel, edelta.DirtySourceIDs())
	if fresh(next) != len(old) {
		t.Fatalf("epoch move: %d of %d records fresh", fresh(next), len(old))
	}
	check("epoch move", next, epanel, ew)
}
