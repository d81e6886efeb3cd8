// Package webgen generates the synthetic Web 2.0 corpus that substitutes
// for the live blogs and forums crawled in the paper (substitution S1 in
// DESIGN.md). Each source is driven by three latent factors — traffic,
// participation and engagement — whose separation is exactly what the
// paper's factor analysis (Table 3) rediscovered in real data; the
// generator adds heavy-tailed noise so the statistical machinery still has
// work to do.
//
// Everything is deterministic given Config.Seed.
package webgen

import (
	"fmt"
	"time"

	"github.com/informing-observers/informer/internal/textgen"
)

// SourceKind classifies a Web 2.0 source, mirroring the paper's "blogs and
// forums" plus the review sites of Section 6.
type SourceKind int

const (
	Blog SourceKind = iota
	Forum
	ReviewSite
	SocialNetwork
)

// String implements fmt.Stringer.
func (k SourceKind) String() string {
	switch k {
	case Blog:
		return "blog"
	case Forum:
		return "forum"
	case ReviewSite:
		return "review-site"
	case SocialNetwork:
		return "social-network"
	default:
		return fmt.Sprintf("SourceKind(%d)", int(k))
	}
}

// Latent holds the per-source latent factors on a standard-normal scale.
// They are hidden drivers: quality measures must be computed from the
// observable corpus, never from these directly (experiments use them only
// to verify recovery).
type Latent struct {
	Traffic       float64 // drives visitors, page views, inbound links, traffic rank
	Participation float64 // drives discussion and comment volume
	Engagement    float64 // drives time-on-site and (inversely) bounce rate
}

// GeoPoint is a WGS84 coordinate used for the geo-localized posts that
// Figure 1's map viewers display.
type GeoPoint struct {
	Lat, Lon float64
}

// Comment is a user contribution inside a discussion. Social feedback
// counters model the paper's generic "interaction" notion (likes, replies,
// reads).
type Comment struct {
	ID        int
	UserID    int
	Posted    time.Time
	Body      string // empty unless Config.CommentText
	Polarity  int    // ground-truth sentiment: -1, 0, +1
	Tags      []string
	Replies   int // replies received from other users
	Feedbacks int // likes / ratings received
	Reads     int // times read by other users
	Geo       *GeoPoint
	// Syndicated marks a comment whose body copies (verbatim or with a
	// short lead-in) an earlier comment on another source; SyndicatedFrom
	// is that source's ID. Ground truth for the correlation engine — the
	// dedup index never reads these fields.
	Syndicated     bool
	SyndicatedFrom int
}

// Discussion is a thread (blog post with comments, forum topic, or review
// page).
type Discussion struct {
	ID       int
	SourceID int
	OpenerID int // user who opened the thread
	Title    string
	Category string // one of the world's categories, or "" when off-topic
	Opened   time.Time
	Open     bool
	Tags     []string
	Comments []*Comment
}

// Source is one Web 2.0 site.
type Source struct {
	ID          int
	Name        string
	Host        string // stable virtual hostname, e.g. "src0042.web20.test"
	Kind        SourceKind
	Description string
	Founded     time.Time
	Latent      Latent
	// FeedSubscribers substitutes the paper's Feedburner subscription count.
	FeedSubscribers int
	// Outbound is the list of source IDs this source links to; Inbound is
	// the reverse adjacency, filled by the generator.
	Outbound []int
	Inbound  []int
	// Locations the source focuses on (used by domain-of-interest checks).
	Locations   []string
	Discussions []*Discussion
}

// User is a member of the global contributor pool shared by all sources.
type User struct {
	ID      int
	Name    string
	Joined  time.Time
	Spammer bool
	// Latent drivers for contributor-level behaviour.
	Activity  float64 // volume of contributions
	Influence float64 // replies/feedback attracted per contribution
	Breadth   float64 // number of categories the user touches
}

// World is the full synthetic corpus. Worlds come from Generate or a tick
// (Advance, AdvanceSameDay, AdvanceSource); a World assembled by hand
// lacks the tick state below and must not be ticked.
//
//informer:snapshot
type World struct {
	Config     Config
	Categories []string
	Sources    []*Source
	Users      []*User
	// MaxOpenDiscussions is the open-discussion count of the largest
	// source, the paper's normalisation base for "number of open
	// discussions compared to largest Web blog/forum".
	MaxOpenDiscussions int

	// Tick state, set by Generate and carried by every tick so no tick
	// re-derives it from the whole world: the ID frontier (one past the
	// highest discussion and comment ID) and the activity-weighted user
	// table authors are drawn from.
	ids   IDCursor
	users *cumulative
}

// Config controls world generation.
type Config struct {
	Seed       int64
	NumSources int
	NumUsers   int
	// Categories defaults to the six Anholt tourism categories.
	Categories []string
	// Locations defaults to a small set of city names; the first is the
	// "home" location most content refers to.
	Locations []string
	// Start and End bound the content timeline. Zero values default to a
	// 180-day window ending 2011-10-01 (the paper's era).
	Start, End time.Time
	// CommentText controls whether full comment bodies are generated.
	// Counting-based measures need no text; sentiment and crawling
	// experiments do.
	CommentText bool
	// SpamRate is the fraction of users behaving as spammers/bots
	// (high absolute activity, near-zero attracted interaction), used by
	// the influencer-robustness ablation.
	SpamRate float64
	// MeanDiscussions scales discussion volume per source (default 12).
	MeanDiscussions float64
	// MeanComments scales comments per discussion (default 5).
	MeanComments float64
	// ChurnScale scales the per-day activity intensity of Advance ticks
	// without touching the initial corpus volume (default 1). Monitoring
	// benchmarks use small values to model slow daily churn over a large
	// corpus.
	ChurnScale float64
	// SyndicationRate is the probability that a generated comment body is
	// replaced by a copy of an earlier comment from another source
	// (roughly half verbatim, half prefixed with a short lead-in) —
	// deterministic ground truth for near-duplicate detection. Requires
	// CommentText; 0 disables injection and leaves every existing stream
	// untouched (the gate draws no random numbers when off).
	SyndicationRate float64
}

// withDefaults fills unset Config fields.
func (c Config) withDefaults() Config {
	if c.NumSources == 0 {
		c.NumSources = 100
	}
	if c.NumUsers == 0 {
		c.NumUsers = c.NumSources * 2
	}
	if len(c.Categories) == 0 {
		c.Categories = textgen.Categories()
	}
	if len(c.Locations) == 0 {
		c.Locations = []string{
			"milan", "rome", "florence", "venice", "turin", "naples",
			"bologna", "genoa", "verona", "palermo", "bari", "trieste",
			"padua", "parma", "catania", "cagliari", "perugia", "pisa",
		}
	}
	if c.Start.IsZero() {
		c.End = time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
		c.Start = c.End.AddDate(0, 0, -180)
	} else if c.End.IsZero() {
		c.End = c.Start.AddDate(0, 0, 180)
	}
	if c.MeanDiscussions == 0 {
		c.MeanDiscussions = 12
	}
	if c.MeanComments == 0 {
		c.MeanComments = 5
	}
	return c
}

// Days returns the length of the world's timeline in days.
func (w *World) Days() float64 {
	return w.Config.End.Sub(w.Config.Start).Hours() / 24
}

// Source returns the source with the given ID, or nil.
func (w *World) Source(id int) *Source {
	if id < 0 || id >= len(w.Sources) {
		return nil
	}
	return w.Sources[id]
}

// User returns the user with the given ID, or nil.
func (w *World) User(id int) *User {
	if id < 0 || id >= len(w.Users) {
		return nil
	}
	return w.Users[id]
}

// OpenDiscussions returns the number of open discussions of s.
func (s *Source) OpenDiscussions() int {
	n := 0
	for _, d := range s.Discussions {
		if d.Open {
			n++
		}
	}
	return n
}

// CommentCount returns the total number of comments across discussions.
func (s *Source) CommentCount() int {
	n := 0
	for _, d := range s.Discussions {
		n += len(d.Comments)
	}
	return n
}
