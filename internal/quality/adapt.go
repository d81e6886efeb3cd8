package quality

import (
	"time"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/crawler"
	"github.com/informing-observers/informer/internal/parallel"
	"github.com/informing-observers/informer/internal/social"
	"github.com/informing-observers/informer/internal/webgen"
)

// panelStat converts an analytics metric to the record form.
func panelStat(m analytics.Metrics) PanelStat {
	return PanelStat{
		TrafficRank:          m.TrafficRank,
		DailyVisitors:        m.DailyVisitors,
		DailyPageViews:       m.DailyPageViews,
		BounceRate:           m.BounceRate,
		AvgTimeOnSiteSeconds: m.AvgTimeOnSite,
		PageViewsPerVisitor:  m.PageViewsPerVisitor,
		NewDiscussionsPerDay: m.NewDiscussionsPerDay,
	}
}

// SourceRecordsFromWorld builds assessment records directly from an
// in-memory world plus its analytics panel. The paper's large statistical
// experiments use this path ("manual inspection or automated crawling");
// SourceRecordsFromSnapshot is the genuinely crawled equivalent.
// Records are built in parallel, each into its own position, so the result
// does not depend on scheduling.
func SourceRecordsFromWorld(w *webgen.World, panel *analytics.Panel) []*SourceRecord {
	records := make([]*SourceRecord, len(w.Sources))
	parallel.ForEachChunk(len(records), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			records[i] = buildSourceRecord(w.Sources[i], w, panel)
		}
	})
	return records
}

// buildSourceRecord assembles the full observation record of one source —
// the shared builder behind the from-scratch and incremental paths, so
// both produce identical values.
func buildSourceRecord(s *webgen.Source, w *webgen.World, panel *analytics.Panel) *SourceRecord {
	m, _ := panel.BySource(s.ID)
	r := &SourceRecord{
		ID:                 s.ID,
		Name:               s.Name,
		Host:               s.Host,
		Kind:               s.Kind.String(),
		Founded:            s.Founded,
		InboundLinks:       len(s.Inbound),
		FeedSubscribers:    s.FeedSubscribers,
		Panel:              panelStat(m),
		ObservedAt:         w.Config.End,
		WindowDays:         w.Days(),
		MaxOpenDiscussions: w.MaxOpenDiscussions,
	}
	r.Discussions = buildDiscussionStats(s)
	r.IndexDiscussions()
	return r
}

// buildDiscussionStats allocates one flat slice for all of a source's
// comment stats; each discussion gets a full-capped sub-slice of it, so an
// append can never bleed into a neighbour.
func buildDiscussionStats(s *webgen.Source) []DiscussionStat {
	out := make([]DiscussionStat, 0, len(s.Discussions))
	flat := make([]CommentStat, 0, s.CommentCount())
	for _, d := range s.Discussions {
		ds := DiscussionStat{
			Category: d.Category,
			Opened:   d.Opened,
			Open:     d.Open,
			TagCount: len(d.Tags),
		}
		lo := len(flat)
		for _, c := range d.Comments {
			flat = append(flat, CommentStat{
				AuthorID:  c.UserID,
				Posted:    c.Posted,
				TagCount:  len(c.Tags),
				Replies:   c.Replies,
				Feedbacks: c.Feedbacks,
				Reads:     c.Reads,
			})
		}
		if hi := len(flat); hi > lo {
			ds.Comments = flat[lo:hi:hi]
		}
		out = append(out, ds)
	}
	return out
}

// UpdateSourceRecordsFromWorld refreshes observation records after an
// Advance tick without re-walking the whole corpus. Every record is
// shallow-copied (the pre-advance slice stays immutable for concurrent
// readers) with its observation metadata refreshed — ObservedAt,
// WindowDays, MaxOpenDiscussions and the panel join, the inputs that move
// with the timeline for every source — while only the records of dirty
// sources rebuild their discussion statistics and extend their carried
// author sets with the comments past the old record's. The result is
// bit-identical to SourceRecordsFromWorld over the advanced world; the
// second return value lists the row indices of the dirty records, ready
// for SourceAssessor.UpdateRows.
func UpdateSourceRecordsFromWorld(old []*SourceRecord, w *webgen.World, panel *analytics.Panel, dirtySourceIDs []int) ([]*SourceRecord, []int) {
	rowByID := make(map[int]int, len(old))
	for i, r := range old {
		rowByID[r.ID] = i
	}
	records := make([]*SourceRecord, len(old))
	slab := make([]SourceRecord, len(old)) // one allocation for every copy
	for i, r := range old {
		nr := &slab[i]
		*nr = *r
		m, _ := panel.BySource(nr.ID)
		nr.Panel = panelStat(m)
		nr.ObservedAt = w.Config.End
		nr.WindowDays = w.Days()
		nr.MaxOpenDiscussions = w.MaxOpenDiscussions
		records[i] = nr
	}
	dirtyRows := make([]int, 0, len(dirtySourceIDs))
	for _, id := range dirtySourceIDs {
		row, ok := rowByID[id]
		if !ok {
			continue // source unknown to this corpus (defensive)
		}
		r := records[row]
		r.Discussions = buildDiscussionStats(w.Source(id))
		r.extendIndex(old[row])
		dirtyRows = append(dirtyRows, row)
	}
	return records, dirtyRows
}

// SourceRecordsFromSnapshot builds assessment records from a crawl
// snapshot, joining each crawled source with the analytics panel by host.
// observedAt is the crawl instant; windowDays the content window to assume
// for per-day rates.
func SourceRecordsFromSnapshot(snap *crawler.Snapshot, panel *analytics.Panel, observedAt time.Time, windowDays float64) []*SourceRecord {
	maxOpen := 0
	records := make([]*SourceRecord, 0, len(snap.Sources))
	for _, sc := range snap.Sources {
		r := &SourceRecord{
			ID:              sc.Info.ID,
			Name:            sc.Info.Name,
			Host:            sc.Info.Host,
			Kind:            sc.Info.Kind,
			Founded:         sc.Info.Founded,
			InboundLinks:    sc.InboundLinks,
			FeedSubscribers: sc.Info.FeedSubscribers,
			ObservedAt:      observedAt,
			WindowDays:      windowDays,
		}
		if m, ok := panel.ByHost(sc.Info.Host); ok {
			r.Panel = panelStat(m)
		}
		for _, d := range sc.Discussions {
			ds := DiscussionStat{
				Category: d.Category,
				Opened:   d.Opened,
				Open:     d.Open,
				TagCount: len(d.Tags),
			}
			for _, c := range d.Comments {
				ds.Comments = append(ds.Comments, CommentStat{
					AuthorID:  c.AuthorID,
					Posted:    c.Posted,
					TagCount:  len(c.Tags),
					Replies:   c.Replies,
					Feedbacks: c.Feedbacks,
					Reads:     c.Reads,
				})
			}
			r.Discussions = append(r.Discussions, ds)
		}
		r.IndexDiscussions()
		if r.open > maxOpen {
			maxOpen = r.open
		}
		records = append(records, r)
	}
	for _, r := range records {
		r.MaxOpenDiscussions = maxOpen
	}
	return records
}

// ContributorRecordsFromWorld aggregates per-user activity across all
// sources of a world into contributor records.
func ContributorRecordsFromWorld(w *webgen.World) []*ContributorRecord {
	return NewContributorIndex(w).Records()
}

// ContributorIndex holds the contributor records of a world together with
// the per-user touched-discussion sets needed to keep DiscussionsTouched
// exact under incremental advancement. Contributor activity is purely
// additive across Advance ticks (existing comments are immutable), so a
// delta applies as counter increments plus set insertions — no world
// re-walk. An index is immutable once built; Apply returns a new one
// sharing every clean record and set.
type ContributorIndex struct {
	records []*ContributorRecord
	touched []map[int]bool // user row -> set of discussion IDs commented in
}

// NewContributorIndex walks the world once and builds the index.
func NewContributorIndex(w *webgen.World) *ContributorIndex {
	recs := make([]*ContributorRecord, len(w.Users))
	for i, u := range w.Users {
		recs[i] = &ContributorRecord{
			ID:                 u.ID,
			Name:               u.Name,
			Joined:             u.Joined,
			CommentsByCategory: map[string]int{},
			ObservedAt:         w.Config.End,
			Spammer:            u.Spammer,
		}
	}
	touched := make([]map[int]bool, len(w.Users))
	for _, s := range w.Sources {
		for _, d := range s.Discussions {
			if opener := w.User(d.OpenerID); opener != nil {
				recs[opener.ID].DiscussionsOpened++
			}
			for _, c := range d.Comments {
				r := recs[c.UserID]
				r.CommentsByCategory[d.Category]++
				r.Interactions++
				r.RepliesReceived += c.Replies
				r.FeedbacksReceived += c.Feedbacks
				r.ReadsReceived += c.Reads
				r.TagCount += len(c.Tags)
				set := touched[c.UserID]
				if set == nil {
					set = map[int]bool{}
					touched[c.UserID] = set
				}
				set[d.ID] = true
			}
		}
	}
	for uid, set := range touched {
		recs[uid].DiscussionsTouched = len(set)
	}
	return &ContributorIndex{records: recs, touched: touched}
}

// Records exposes the contributor records, ordered by user ID.
func (ix *ContributorIndex) Records() []*ContributorRecord { return ix.records }

// Apply folds an Advance delta into the index: every record is
// shallow-copied with the new observation instant (account ages move for
// everyone) and the records of contributors with fresh activity get their
// counters, category map and touched set updated. Results are bit-identical
// to NewContributorIndex over the advanced world. The returned row indices
// of the dirty contributors feed ContributorAssessor.UpdateRows; the
// receiver stays untouched for concurrent readers.
func (ix *ContributorIndex) Apply(w *webgen.World, delta *webgen.Delta) (*ContributorIndex, []int) {
	dirtyIDs := delta.DirtyContributorIDs()
	nix := &ContributorIndex{
		records: make([]*ContributorRecord, len(ix.records)),
		touched: append([]map[int]bool(nil), ix.touched...),
	}
	slab := make([]ContributorRecord, len(ix.records)) // one allocation for every copy
	for i, r := range ix.records {
		nr := &slab[i]
		*nr = *r
		nr.ObservedAt = w.Config.End
		nix.records[i] = nr
	}
	dirtyRows := make([]int, 0, len(dirtyIDs))
	for _, id := range dirtyIDs {
		if id < 0 || id >= len(nix.records) {
			continue
		}
		dirtyRows = append(dirtyRows, id)
		r := nix.records[id]
		cats := make(map[string]int, len(r.CommentsByCategory)+1)
		for k, v := range r.CommentsByCategory {
			cats[k] = v
		}
		r.CommentsByCategory = cats
		set := make(map[int]bool, len(nix.touched[id])+1)
		for k := range nix.touched[id] {
			set[k] = true
		}
		nix.touched[id] = set
	}
	delta.ForEachNewDiscussion(func(_ int, d *webgen.Discussion) {
		if d.OpenerID >= 0 && d.OpenerID < len(nix.records) {
			nix.records[d.OpenerID].DiscussionsOpened++
		}
	})
	delta.ForEachNewComment(func(_ int, d *webgen.Discussion, c *webgen.Comment) {
		if c.UserID < 0 || c.UserID >= len(nix.records) {
			return
		}
		r := nix.records[c.UserID]
		r.CommentsByCategory[d.Category]++
		r.Interactions++
		r.RepliesReceived += c.Replies
		r.FeedbacksReceived += c.Feedbacks
		r.ReadsReceived += c.Reads
		r.TagCount += len(c.Tags)
		nix.touched[c.UserID][d.ID] = true
		r.DiscussionsTouched = len(nix.touched[c.UserID])
	})
	return nix, dirtyRows
}

// ContributorRecordsFromSocial maps microblog accounts to contributor
// records. Each tweet counts as its own (micro-)discussion, the service-
// agnostic reading of Section 3.2's interaction model.
func ContributorRecordsFromSocial(ds *social.Dataset, observedAt time.Time) []*ContributorRecord {
	recs := make([]*ContributorRecord, 0, len(ds.Accounts))
	for _, a := range ds.Accounts {
		recs = append(recs, &ContributorRecord{
			ID:                 a.ID,
			Name:               a.Handle,
			Joined:             a.Joined,
			CommentsByCategory: map[string]int{"": a.Interactions},
			DiscussionsOpened:  a.Interactions,
			DiscussionsTouched: a.Interactions,
			Interactions:       a.Interactions,
			RepliesReceived:    a.MentionsReceived,
			FeedbacksReceived:  a.RetweetsReceived,
			ObservedAt:         observedAt,
		})
	}
	return recs
}
