package quality

import (
	"slices"
	"time"
)

// DiscussionStat is the per-discussion observation: the thread's own
// fields plus the two counts the measures read of its comments. A record
// keeps no per-comment state beyond its set of distinct comment authors.
type DiscussionStat struct {
	Category string // "" = off-topic
	Opened   time.Time
	Open     bool
	TagCount int
	// Comments is the number of comments, CommentTags the sum of their
	// tag counts.
	Comments    int
	CommentTags int
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

	// authors is the ascending set of distinct comment authors, open the
	// number of open discussions and opened each discussion's opening
	// instant in Unix nanoseconds: statistics carried with the record so
	// that a measure reads them instead of re-deriving them from the
	// world's comments or from every time.Time. IndexDiscussions derives
	// them; UpdateSourceRecordsFromWorld extends a dirty row's copies with
	// its new discussions and comments. opened is nil when some opening
	// instant lies outside the range ageNanos accepts.
	authors []int32
	open    int
	opened  []int64
}

// IndexDiscussions derives the statistics the record carries: its
// distinct comment authors from authors, the author of every comment in
// any order and with repeats, and its open-discussion count and opening-
// instant column from Discussions. Every record
// constructor calls it; a record assembled by hand must call it once its
// Discussions are final.
func (r *SourceRecord) IndexDiscussions(authors ...int) {
	ids := make([]int32, len(authors))
	for i, a := range authors {
		ids[i] = int32(a)
	}
	r.index(ids)
}

// index is IndexDiscussions over authors already narrowed to int32; it
// sorts ids in place.
func (r *SourceRecord) index(ids []int32) {
	r.open = 0
	r.opened = make([]int64, 0, len(r.Discussions))
	for _, d := range r.Discussions {
		if d.Open {
			r.open++
		}
		r.opened = appendOpened(r.opened, d.Opened)
	}
	slices.Sort(ids)
	// The merge copies the set out, so the record does not keep the
	// per-comment buffer alive.
	r.authors = mergeSorted(nil, slices.Compact(ids))
}

// indexed reports whether the carried per-discussion statistics cover
// every discussion, as they do once IndexDiscussions ran and until
// Discussions is replaced by hand — unless an opening instant lay outside
// ageNanos' range, which voids the opened column for good.
func (r *SourceRecord) indexed() bool { return len(r.opened) == len(r.Discussions) }

// appendOpened extends an opening-instant column with t; the column turns
// nil for good once one instant is out of ageNanos' range.
func appendOpened(col []int64, t time.Time) []int64 {
	if col == nil {
		return nil
	}
	ns, ok := ageNanos(t)
	if !ok {
		return nil
	}
	return append(col, ns)
}

// ageSafeSeconds bounds the instants a thread age is computed from in
// integer nanoseconds: inside ±ageSafeSeconds of the Unix epoch (about
// 146 years, 1824 to 2116) UnixNano is exact and the difference of two
// such instants cannot overflow, so it equals what time.Time.Sub returns
// for them — Sub saturates only past ±292 years.
const ageSafeSeconds = (1<<62)/int64(time.Second) - 1

// ageNanos returns t in Unix nanoseconds when t lies in the safe range.
// The zero Time (year 1) and far-future instants do not.
func ageNanos(t time.Time) (int64, bool) {
	if s := t.Unix(); s < -ageSafeSeconds || s > ageSafeSeconds {
		return 0, false
	}
	return t.UnixNano(), true
}

// ageClock returns ObservedAt in Unix nanoseconds when the opened column
// can stand in for ObservedAt.Sub(d.Opened): the column covers every
// discussion, and ObservedAt is in the safe range and carries no
// monotonic clock reading (Sub would use that reading when Opened carried
// one too). ok false sends the thread-age measures back to Sub — also for
// a record assembled by hand that never called IndexDiscussions.
func (r *SourceRecord) ageClock() (obsNs int64, ok bool) {
	if len(r.opened) != len(r.Discussions) || r.ObservedAt != r.ObservedAt.Round(0) {
		return 0, false // Round(0) strips a monotonic reading, so it differs
	}
	return ageNanos(r.ObservedAt)
}

// ageDays is the age in days of a thread opened at openedNs, at the
// instant obsNs ageClock returned: bitwise what ObservedAt.Sub(Opened)
// gives, hence the same float.
func ageDays(obsNs, openedNs int64) float64 {
	return time.Duration(obsNs-openedNs).Hours() / 24
}

// mergeSorted returns the union of two disjoint ascending ID sets — a
// source's comment authors, a contributor's touched discussions: a itself
// when b is empty, otherwise a fresh exactly-sized slice.
func mergeSorted(a, b []int32) []int32 {
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
		n += d.Comments
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

	// clocked reports that joinedNs holds Joined in Unix nanoseconds, in
	// the range ageNanos accepts: the record constructors carry it so
	// that AgeDays reads an integer instead of calling time.Time.Sub. A
	// record assembled by hand leaves it unset and ages through Sub.
	clocked  bool
	joinedNs int64
}

// carryJoined sets the carried join instant from Joined. Every record
// constructor calls it once Joined is final.
func (r *ContributorRecord) carryJoined() {
	r.joinedNs, r.clocked = ageNanos(r.Joined)
}

// ageClock returns ObservedAt in Unix nanoseconds when the carried join
// instant can stand in for ObservedAt.Sub(Joined): it was carried, and
// ObservedAt is in the safe range with no monotonic clock reading — the
// guard SourceRecord.ageClock applies to thread ages.
func (r *ContributorRecord) ageClock() (obsNs int64, ok bool) {
	if !r.clocked || r.ObservedAt != r.ObservedAt.Round(0) {
		return 0, false
	}
	return ageNanos(r.ObservedAt)
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
	var d float64
	if obsNs, ok := r.ageClock(); ok {
		d = ageDays(obsNs, r.joinedNs)
	} else {
		d = r.ObservedAt.Sub(r.Joined).Hours() / 24
	}
	if d < 0 {
		return 0
	}
	return d
}
