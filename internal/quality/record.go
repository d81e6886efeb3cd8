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
}

// OpenDiscussions counts open discussion threads.
func (r *SourceRecord) OpenDiscussions() int {
	n := 0
	for _, d := range r.Discussions {
		if d.Open {
			n++
		}
	}
	return n
}

// TotalComments counts comments across all discussions.
func (r *SourceRecord) TotalComments() int {
	n := 0
	for _, d := range r.Discussions {
		n += len(d.Comments)
	}
	return n
}

// DistinctCommenters counts distinct comment authors: every author ID in
// one slice, sorted, counted by runs.
func (r *SourceRecord) DistinctCommenters() int {
	ids := make([]int, 0, r.TotalComments())
	for _, d := range r.Discussions {
		for _, c := range d.Comments {
			ids = append(ids, c.AuthorID)
		}
	}
	slices.Sort(ids)
	n := 0
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			n++
		}
	}
	return n
}

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
