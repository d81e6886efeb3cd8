package quality

import "testing"

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
