package quality

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

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
		panel = panel.Refresh(w)
		var dirty []int
		records, dirty = UpdateSourceRecordsFromWorld(prev, w, panel, delta.DirtySourceIDs())
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

// TestExtendIndexCases covers the carried-statistics edge cases directly:
// a record without comments, a dirty row whose new comments all come from
// authors already in its set (the set is shared, not copied), and a new
// author merged into a copy that leaves the previous set untouched.
func TestExtendIndexCases(t *testing.T) {
	byAuthors := func(authors ...int) []CommentStat {
		out := make([]CommentStat, len(authors))
		for i, a := range authors {
			out[i] = CommentStat{AuthorID: a}
		}
		return out
	}

	empty := &SourceRecord{Discussions: []DiscussionStat{{Open: true}, {}}}
	empty.IndexDiscussions()
	grown := &SourceRecord{Discussions: []DiscussionStat{{Open: true}, {}, {Open: true}}}
	grown.extendIndex(empty)
	if empty.authors != nil || grown.authors != nil || grown.DistinctCommenters() != 0 || grown.OpenDiscussions() != 2 {
		t.Fatalf("zero comments: authors %v / %v, open %d", empty.authors, grown.authors, grown.OpenDiscussions())
	}

	old := &SourceRecord{Discussions: []DiscussionStat{{Open: true, Comments: byAuthors(3, 1)}}}
	old.IndexDiscussions()
	known := &SourceRecord{Discussions: []DiscussionStat{
		{Open: true, Comments: byAuthors(3, 1, 3, 1)},
		{Comments: byAuthors(1)},
	}}
	known.extendIndex(old)
	if !slices.Equal(known.authors, []int32{1, 3}) || known.OpenDiscussions() != 1 {
		t.Fatalf("known authors: %v, open %d", known.authors, known.OpenDiscussions())
	}
	if &known.authors[0] != &old.authors[0] {
		t.Fatal("a delta of known authors copied the set instead of sharing it")
	}

	fresh := &SourceRecord{Discussions: []DiscussionStat{
		{Open: true, Comments: byAuthors(3, 1, 2, 7)},
		{Open: true, Comments: byAuthors(0)},
	}}
	fresh.extendIndex(old)
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
}
