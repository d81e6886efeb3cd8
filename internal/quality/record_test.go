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
	for _, tc := range []struct {
		name    string
		r       SourceRecord
		authors []int
		want    int
	}{
		{"no discussions", SourceRecord{}, nil, 0},
		{"discussions without comments", SourceRecord{Discussions: []DiscussionStat{{}, {Category: "place"}}}, nil, 0},
		{"one author", SourceRecord{Discussions: []DiscussionStat{{Comments: 3}}}, []int{7, 7, 7}, 1},
		{"repeats across discussions", SourceRecord{Discussions: []DiscussionStat{
			{Comments: 3},
			{},
			{Comments: 2},
			{Comments: 4},
		}}, []int{3, 1, 3, 2, 1, 3, 0, -4, 2}, 5},
	} {
		tc.r.IndexDiscussions(tc.authors...)
		if got := tc.r.DistinctCommenters(); got != tc.want {
			t.Errorf("%s: %d distinct commenters, want %d", tc.name, got, tc.want)
		}
	}
	// Generated corpora: the count equals the size of the author set of
	// the world's comments.
	w := webgen.Generate(webgen.Config{Seed: 77, NumSources: 60})
	for _, r := range SourceRecordsFromWorld(w, analytics.Build(w, 1077)) {
		seen := map[int]bool{}
		for _, d := range w.Source(r.ID).Discussions {
			for _, c := range d.Comments {
				seen[c.UserID] = true
			}
		}
		if got := r.DistinctCommenters(); got != len(seen) {
			t.Fatalf("source %d: %d distinct commenters, want %d", r.ID, got, len(seen))
		}
	}
}

// sourceScan is the reference for the statistics a record of a source
// carries, found by walking the source's discussions and comments.
type sourceScan struct {
	authors  []int32 // distinct comment authors, ascending
	open     int     // open discussions
	comments []int32 // comments per discussion
	tags     []int   // the comments' tags per discussion
}

func scanSource(s *webgen.Source) sourceScan {
	sc := sourceScan{comments: []int32{}, tags: []int{}}
	seen := map[int32]bool{}
	for _, d := range s.Discussions {
		if d.Open {
			sc.open++
		}
		tags := 0
		for _, c := range d.Comments {
			seen[int32(c.UserID)] = true
			tags += len(c.Tags)
		}
		sc.comments = append(sc.comments, int32(len(d.Comments)))
		sc.tags = append(sc.tags, tags)
	}
	for id := range seen {
		sc.authors = append(sc.authors, id)
	}
	sort.Slice(sc.authors, func(i, j int) bool { return sc.authors[i] < sc.authors[j] })
	return sc
}

// checkRecordStats pins every record of s in recs — carried, rebuilt or
// crawled — to the scan of s: the author set, the open count, and each
// discussion's Comments and CommentTags.
func checkRecordStats(t *testing.T, step string, s *webgen.Source, recs ...*SourceRecord) {
	t.Helper()
	want := scanSource(s)
	for _, r := range recs {
		if !slices.Equal(r.authors, want.authors) || r.open != want.open {
			t.Fatalf("%s: source %d carries %v / %d open, scan %v / %d",
				step, r.ID, r.authors, r.open, want.authors, want.open)
		}
		if len(r.Discussions) != len(want.comments) {
			t.Fatalf("%s: source %d has %d discussion stats, scan %d", step, r.ID, len(r.Discussions), len(want.comments))
		}
		for i, d := range r.Discussions {
			if d.Comments != int(want.comments[i]) || d.CommentTags != want.tags[i] {
				t.Fatalf("%s: source %d discussion %d counts %d comments / %d tags, scan %d / %d",
					step, r.ID, i, d.Comments, d.CommentTags, want.comments[i], want.tags[i])
			}
		}
	}
}

// TestCarriedRecordStatistics pins the author sets, open counts and
// per-discussion comment and tag counts that UpdateSourceRecordsFromWorld
// carries through a run of mixed ticks —
// day-moving, same-day and per-source polls that open discussions — to
// the ones SourceRecordsFromWorld and a crawl's SourceRecordsFromSnapshot
// derive, and all three to a walk of the world's comments; it also pins
// that a refresh never writes the previous round's sets.
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
			checkRecordStats(t, fmt.Sprintf("tick %d", i), w.Source(records[row].ID), records[row], want[row])
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
	crawled := SourceRecordsFromSnapshot(snap, panel, w.Config.End)
	if len(crawled) != len(records) {
		t.Fatalf("crawled %d records, carried %d", len(crawled), len(records))
	}
	rebuilt := SourceRecordsFromWorld(w, panel)
	for row := range records {
		checkRecordStats(t, "crawl", w.Source(records[row].ID), records[row], rebuilt[row], crawled[row])
		if crawled[row].MaxOpenDiscussions != w.MaxOpenDiscussions {
			t.Fatalf("crawl: MaxOpenDiscussions %d, world %d", crawled[row].MaxOpenDiscussions, w.MaxOpenDiscussions)
		}
	}
}

// TestExtendIndexCases covers the dirty-row extension directly: a record
// without comments, a dirty row whose new comments all come from authors
// already in its set (the set is shared, not copied), a new author merged
// into a copy that leaves the previous set untouched, and the discussion
// stats — a grown discussion counts its new comments and their tags in a
// copy that leaves the previous stats untouched, and the opening-instant
// column is shared until a discussion is appended. Every extension equals
// a from-scratch build of the same source.
func TestExtendIndexCases(t *testing.T) {
	opened := time.Date(2011, 3, 1, 12, 0, 0, 0, time.UTC)
	disc := func(open bool, authors ...int) *webgen.Discussion {
		d := &webgen.Discussion{Open: open, Opened: opened}
		for _, a := range authors {
			d.Comments = append(d.Comments, &webgen.Comment{UserID: a, Replies: a, Tags: make([]string, a%4)})
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
			nd.Comments = append(nd.Comments, &webgen.Comment{UserID: a, Replies: a, Tags: make([]string, a%4)})
		}
		return &nd
	}
	source := func(ds ...*webgen.Discussion) *webgen.Source { return &webgen.Source{Discussions: ds} }
	recordOf := func(s *webgen.Source) *SourceRecord {
		r := &SourceRecord{}
		r.indexSource(s)
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
	if sc := scanSource(source(grow(o0, 2, 7), disc(true, 0))); !slices.Equal(fresh.authors, sc.authors) || fresh.open != sc.open {
		t.Fatalf("extended stats %v / %d, scan %v / %d", fresh.authors, fresh.open, sc.authors, sc.open)
	}

	// Counted stats: o0 is untouched, o1 grows by one comment. Author 5
	// tags one, author 6 two.
	o1 := disc(true, 5)
	two := recordOf(source(o0, o1))
	g1 := grow(o1, 6)
	next := extended(two, source(o0, g1))
	if d := next.Discussions[1]; d.Comments != 2 || d.CommentTags != 3 {
		t.Fatalf("a grown discussion counts %d comments / %d tags, want 2 / 3", d.Comments, d.CommentTags)
	}
	if d := two.Discussions[1]; d.Comments != 1 || d.CommentTags != 1 {
		t.Fatalf("extending wrote the previous record's discussion stats: %d comments / %d tags", d.Comments, d.CommentTags)
	}
	if &next.opened[0] != &two.opened[0] {
		t.Fatal("no discussion was appended, yet the opened column was copied")
	}
	o2 := disc(false, 8)
	third := extended(next, source(o0, g1, o2))
	if &third.opened[0] == &next.opened[0] || len(next.opened) != 2 {
		t.Fatal("an appended discussion must extend a copy of the opened column")
	}
	// No comment and no discussion new: every column is shared.
	same := extended(third, source(o0, g1, o2))
	if &same.opened[0] != &third.opened[0] {
		t.Fatal("an unchanged source copied its carried columns")
	}
}

// FuzzExtendIndex grows a small source tick by tick the way a world tick
// does, only appending, and reads each step from the input: a new
// discussion (open or closed, tagged, with or without a first comment, its
// opening instant now and then out of the thread-age column's range) or a
// new comment on an existing one, by an author drawn from a small pool so
// that authors both repeat and arrive new, with 0 to 3 tags. After each
// tick the record extended from the previous one must equal a from-scratch
// build of the grown source, and the previous record must be unchanged.
func FuzzExtendIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		opened := time.Date(2011, 3, 1, 12, 0, 0, 0, time.UTC)
		s := &webgen.Source{}
		old := &SourceRecord{}
		old.indexSource(s)
		for tick := 0; tick < 8 && len(data) > 0; tick++ {
			ops := int(data[0] % 8)
			data = data[1:]
			// A tick copies the discussion list and every discussion it
			// grows, so the previous source stays as it was.
			ns := &webgen.Source{Discussions: slices.Clone(s.Discussions)}
			for ; ops > 0 && len(data) >= 3; ops-- {
				b, author, pick := data[0], int(data[1]%24), int(data[2])
				data = data[3:]
				c := &webgen.Comment{UserID: author, Tags: make([]string, b>>4&3)}
				if b&3 == 0 || len(ns.Discussions) == 0 {
					d := &webgen.Discussion{ID: len(ns.Discussions), Open: b&8 != 0, Opened: opened, Tags: make([]string, b>>6)}
					if pick == 255 {
						d.Opened = time.Time{} // outside ageNanos' range: voids the column
					}
					if b&4 != 0 {
						d.Comments = []*webgen.Comment{c}
					}
					ns.Discussions = append(ns.Discussions, d)
					opened = opened.Add(time.Duration(pick) * time.Hour)
					continue
				}
				i := pick % len(ns.Discussions)
				nd := *ns.Discussions[i]
				nd.Comments = append(slices.Clip(nd.Comments), c)
				ns.Discussions[i] = &nd
			}
			before := *old
			before.Discussions = slices.Clone(old.Discussions)
			before.authors = slices.Clone(old.authors)
			before.opened = slices.Clone(old.opened)
			r := &SourceRecord{}
			r.extendIndex(old, ns)
			want := &SourceRecord{}
			want.indexSource(ns)
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("tick %d: extension differs from a rebuild:\n got  %+v\n want %+v", tick, r, want)
			}
			if !reflect.DeepEqual(old, &before) {
				t.Fatalf("tick %d: extending wrote the previous record:\n now  %+v\n was  %+v", tick, old, &before)
			}
			s, old = ns, r
		}
	})
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
			sum += float64(d.Comments) / age
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
			out[i] = DiscussionStat{Opened: o, Comments: 1 + i%3}
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

// TestContributorAgeClockMatchesSub pins the carried join instant against
// time.Time.Sub, the reference AgeDays used to call: for ordinary
// instants (read from the carried integer) and for every case that must
// fall back to Sub — a zero or year-2300 join instant, a zero, year-1 or
// monotonic observation instant, and a record assembled by hand. AgeDays
// and every time-sensitive contributor measure equal the Sub reference
// bit for bit.
func TestContributorAgeClockMatchesSub(t *testing.T) {
	subAge := func(r *ContributorRecord) float64 {
		if r.Joined.IsZero() || r.ObservedAt.IsZero() {
			return 0
		}
		return max(r.ObservedAt.Sub(r.Joined).Hours()/24, 0)
	}
	obs := time.Date(2012, 6, 30, 23, 59, 59, 987654321, time.UTC)
	now := time.Now() // carries a monotonic reading
	for _, tc := range []struct {
		name             string
		joined, observed time.Time
		carry, fast      bool
	}{
		{"ordinary", obs.AddDate(-2, -3, -7).Add(123456789), obs, true, true},
		{"joined after observation", obs.Add(90 * time.Minute), obs, true, true},
		{"monotonic joined", now.Add(-50 * time.Hour), now.Round(0), true, true},
		{"monotonic observation", now.Add(-50 * time.Hour), now, true, false},
		{"zero joined", time.Time{}, obs, true, false},
		{"year-2300 joined", time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), obs, true, false},
		{"zero observation", obs.AddDate(-1, 0, 0), time.Time{}, true, false},
		{"year-1 observation", obs.AddDate(-1, 0, 0), time.Date(1, 3, 1, 0, 0, 0, 0, time.UTC), true, false},
		{"assembled by hand", obs.AddDate(-1, 0, 0), obs, false, false},
	} {
		r := &ContributorRecord{Joined: tc.joined, ObservedAt: tc.observed, Interactions: 7, DiscussionsTouched: 3}
		if tc.carry {
			r.carryJoined()
		}
		if _, fast := r.ageClock(); fast != tc.fast {
			t.Fatalf("%s: ageClock fast = %v, want %v", tc.name, fast, tc.fast)
		}
		if got, want := r.AgeDays(), subAge(r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: AgeDays %v, Sub gives %v", tc.name, got, want)
		}
		ref := *r
		ref.clocked = false
		for _, m := range contributorMeasures {
			if !m.TimeSensitive {
				continue
			}
			got, gok := m.Eval(r, &DomainOfInterest{})
			want, wok := m.Eval(&ref, &DomainOfInterest{})
			if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %s = %v (%v), Sub gives %v (%v)", tc.name, m.ID, got, gok, want, wok)
			}
		}
	}
	// The constructors carry the instant.
	w := webgen.Generate(webgen.Config{Seed: 1607, NumSources: 20, NumUsers: 60})
	for _, r := range ContributorRecordsFromWorld(w) {
		if _, fast := r.ageClock(); !fast {
			t.Fatalf("contributor %d: a world record must age from its carried join instant", r.ID)
		}
	}
}
