package quality

import (
	"slices"
	"time"
)

// CommentStat is the per-comment observation a measure can see.
type CommentStat struct {
	AuthorID  int
	Posted    time.Time
	TagCount  int
	Replies   int
	Feedbacks int
	Reads     int
}

// DiscussionStat is the per-discussion observation.
type DiscussionStat struct {
	Category string // "" = off-topic
	Opened   time.Time
	Open     bool
	TagCount int
	Comments []CommentStat
}

// PanelStat carries the analytics-panel metrics for a source (Table 1's
// "www.alexa.com" and Feedburner cells).
type PanelStat struct {
	TrafficRank          int
	DailyVisitors        float64
	DailyPageViews       float64
	BounceRate           float64
	AvgTimeOnSiteSeconds float64
	PageViewsPerVisitor  float64
	NewDiscussionsPerDay float64
}

// SourceRecord is the raw observation of one Web 2.0 source, assembled from
// crawled content plus the analytics panel. Measures are pure functions of
// this record (plus the DI), so records can come from a live crawl, the
// in-memory world, or any future backend.
type SourceRecord struct {
	ID              int
	Name            string
	Host            string
	Kind            string
	Founded         time.Time
	Discussions     []DiscussionStat
	InboundLinks    int
	FeedSubscribers int
	Panel           PanelStat
	// ObservedAt is the reference instant for age computations.
	ObservedAt time.Time
	// WindowDays is the observation window length for per-day rates.
	WindowDays float64
	// MaxOpenDiscussions is the open-discussion count of the largest
	// source in the corpus, the paper's base for the "compared to largest
	// Web blog/forum" measure.
	MaxOpenDiscussions int
	// CorrelatedComments / DuplicateComments feed src.originality: how
	// many of the source's comments the correlation engine indexed, and
	// how many of those it flagged as near-duplicates of earlier material
	// on other sources. Both zero (measure undefined) when the corpus
	// carries no comment text or no correlation index runs.
	CorrelatedComments int
	DuplicateComments  int

	// authors is the ascending set of distinct comment authors and open
	// the number of open discussions: statistics carried with the record
	// so that a measure reads them instead of re-deriving them from every
	// comment. IndexDiscussions derives both; UpdateSourceRecordsFromWorld
	// extends a dirty row's copies with its new discussions and comments.
	authors []int32
	open    int
}

// IndexDiscussions derives the statistics the record carries — its
// distinct comment authors and its open-discussion count — from
// Discussions. Every record constructor calls it; a record assembled by
// hand must call it once its Discussions are final.
func (r *SourceRecord) IndexDiscussions() {
	ids := make([]int32, 0, r.TotalComments())
	r.open = 0
	for _, d := range r.Discussions {
		if d.Open {
			r.open++
		}
		for _, c := range d.Comments {
			ids = append(ids, int32(c.AuthorID))
		}
	}
	slices.Sort(ids)
	// The merge copies the set out, so the record does not keep the
	// per-comment buffer alive.
	r.authors = mergeAuthors(nil, slices.Compact(ids))
}

// extendIndex derives r's carried statistics from old's, for a record
// whose Discussions extend old's: ticks only append, so every discussion
// old knew keeps its position and its first comments, and only the
// comments past old's per-discussion lengths — plus every discussion past
// old's count — are new. Authors already in old's set cost a binary
// search; the rest merge into a copy, and old's set is never written.
func (r *SourceRecord) extendIndex(old *SourceRecord) {
	r.open = old.open
	var novel []int32
	for i, d := range r.Discussions {
		from := 0
		if i < len(old.Discussions) {
			from = len(old.Discussions[i].Comments)
		} else if d.Open {
			r.open++
		}
		for _, c := range d.Comments[from:] {
			if _, known := slices.BinarySearch(old.authors, int32(c.AuthorID)); !known {
				novel = append(novel, int32(c.AuthorID))
			}
		}
	}
	slices.Sort(novel)
	r.authors = mergeAuthors(old.authors, slices.Compact(novel))
}

// mergeAuthors returns the union of two disjoint ascending author sets: a
// itself when b is empty, otherwise a fresh exactly-sized slice.
func mergeAuthors(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// OpenDiscussions returns the carried count of open discussion threads.
func (r *SourceRecord) OpenDiscussions() int { return r.open }

// TotalComments counts comments across all discussions.
func (r *SourceRecord) TotalComments() int {
	n := 0
	for _, d := range r.Discussions {
		n += len(d.Comments)
	}
	return n
}

// DistinctCommenters returns the size of the carried author set.
func (r *SourceRecord) DistinctCommenters() int { return len(r.authors) }

// ContributorRecord is the raw observation of one contributor, aggregated
// across the sources (or the microblog stream) they participate in.
type ContributorRecord struct {
	ID     int
	Name   string
	Joined time.Time
	// CommentsByCategory counts the user's comments per content category
	// (the empty key collects off-topic comments).
	CommentsByCategory map[string]int
	// DiscussionsOpened counts threads the user started.
	DiscussionsOpened int
	// DiscussionsTouched counts distinct threads the user commented in.
	DiscussionsTouched int
	// Interactions is the user's total contribution count (comments,
	// posts, retweets made — the paper's generic social interaction).
	Interactions int
	// RepliesReceived, FeedbacksReceived and ReadsReceived count the
	// reactions the user's contributions attracted.
	RepliesReceived   int
	FeedbacksReceived int
	ReadsReceived     int
	// TagCount is the total number of tags across the user's posts.
	TagCount int
	// ObservedAt is the reference instant for age computations.
	ObservedAt time.Time
	// Spammer is ground truth carried through for robustness experiments
	// only; no measure reads it.
	Spammer bool
}

// TotalComments sums CommentsByCategory.
func (r *ContributorRecord) TotalComments() int {
	n := 0
	for _, c := range r.CommentsByCategory {
		n += c
	}
	return n
}

// AgeDays returns the account age at observation time, in days.
func (r *ContributorRecord) AgeDays() float64 {
	if r.Joined.IsZero() || r.ObservedAt.IsZero() {
		return 0
	}
	d := r.ObservedAt.Sub(r.Joined).Hours() / 24
	if d < 0 {
		return 0
	}
	return d
}
