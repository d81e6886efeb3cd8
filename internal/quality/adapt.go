package quality

import (
	"maps"
	"math"
	"slices"
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
		MaxOpenDiscussions: w.MaxOpenDiscussions,
	}
	r.indexSource(s)
	return r
}

// indexSource sets r's Discussions from s's and indexes them with the
// author of every comment s holds. It serves from-scratch construction; a
// dirty record extends its predecessor's (extendIndex).
func (r *SourceRecord) indexSource(s *webgen.Source) {
	r.Discussions = make([]DiscussionStat, len(s.Discussions))
	authors := make([]int32, 0, s.CommentCount())
	for i, d := range s.Discussions {
		r.Discussions[i] = discussionStat(d)
		for _, c := range d.Comments {
			authors = append(authors, int32(c.UserID))
		}
	}
	r.index(authors)
}

// discussionStat converts a discussion and counts its comments and their
// tags.
func discussionStat(d *webgen.Discussion) DiscussionStat {
	return DiscussionStat{
		Category: d.Category, Opened: d.Opened, Open: d.Open, TagCount: len(d.Tags),
		Comments: len(d.Comments), CommentTags: commentTags(d.Comments),
	}
}

// commentTags sums the tag counts of cs.
func commentTags(cs []*webgen.Comment) int {
	n := 0
	for _, c := range cs {
		n += len(c.Tags)
	}
	return n
}

// extendIndex derives r's Discussions and carried statistics from old's,
// the record of s before a tick. Ticks only append, so every discussion
// old knew keeps its position, its opening instant and its first
// comments, and only the comments past old's per-discussion counts —
// plus every discussion past old's count — are new. The one walk copies
// old's discussion stats, O(discussions), and is copy-on-write for the
// rest:
//   - a grown discussion gets its new comment count and adds the new
//     comments' tags to its CommentTags;
//   - a new discussion is appended, and its opening instant to a copy of
//     old's column;
//   - an author already in old's set costs a binary search; the rest merge
//     into a copy.
//
// The result equals indexSource over s, and old is never written. An old
// record whose statistics do not cover its discussions (assembled by
// hand, or with a void opened column) is rebuilt that way instead.
func (r *SourceRecord) extendIndex(old *SourceRecord, s *webgen.Source) {
	if !old.indexed() {
		r.indexSource(s)
		return
	}
	r.Discussions = make([]DiscussionStat, len(s.Discussions))
	copy(r.Discussions, old.Discussions)
	r.open = old.open
	r.opened = old.opened
	if len(s.Discussions) > len(old.Discussions) {
		r.opened = slices.Grow(slices.Clip(old.opened), len(s.Discussions)-len(old.Discussions))
	}
	var novel []int32
	for i, d := range s.Discussions {
		from := 0
		if i < len(old.Discussions) {
			ds := &r.Discussions[i]
			if len(d.Comments) == ds.Comments {
				continue
			}
			from = ds.Comments
			ds.Comments = len(d.Comments)
			ds.CommentTags += commentTags(d.Comments[from:])
		} else {
			r.Discussions[i] = discussionStat(d)
			if d.Open {
				r.open++
			}
			r.opened = appendOpened(r.opened, d.Opened)
		}
		for _, c := range d.Comments[from:] {
			if _, known := slices.BinarySearch(old.authors, int32(c.UserID)); !known {
				novel = append(novel, int32(c.UserID))
			}
		}
	}
	slices.Sort(novel)
	r.authors = mergeSorted(old.authors, slices.Compact(novel))
}

// UpdateSourceRecordsFromWorld refreshes observation records after an
// Advance tick without re-walking the whole corpus; oldPanel is the panel
// old was built against (nil when unknown). A clean record whose
// refreshed inputs — the observation metadata every record shares
// (ObservedAt, MaxOpenDiscussions) and its panel join — are
// bitwise unchanged is shared by pointer: when the metadata held and
// panel is oldPanel, that is every clean record, and only dirty rows are
// touched. Any other clean record is a fresh copy, from one slab when the
// metadata moved. A dirty record is a fresh copy extending its
// predecessor's statistics with what the tick appended (extendIndex),
// which copies the discussion stats and counts the new comments, so a
// dirty row costs its discussions, never its comment history. No record
// of old is written. The result is bit-identical to
// SourceRecordsFromWorld over the advanced world; the second return value
// lists the dirty rows, ready for Assessor.UpdateRows.
func UpdateSourceRecordsFromWorld(old []*SourceRecord, oldPanel *analytics.Panel, w *webgen.World, panel *analytics.Panel, dirtySourceIDs []int) ([]*SourceRecord, []int) {
	records := slices.Clone(old)
	obs, maxOpen := w.Config.End, w.MaxOpenDiscussions
	refresh := func(r *SourceRecord, m analytics.Metrics) {
		r.Panel = panelStat(m)
		r.ObservedAt, r.MaxOpenDiscussions = obs, maxOpen
	}
	switch {
	case len(old) == 0:
	case old[0].ObservedAt != obs || old[0].MaxOpenDiscussions != maxOpen:
		slab := make([]SourceRecord, len(old)) // one allocation for every copy
		for i, r := range old {
			slab[i] = *r
			m, _ := panel.BySource(r.ID)
			refresh(&slab[i], m)
			records[i] = &slab[i]
		}
	case panel != oldPanel:
		for i, r := range old {
			m, _ := panel.BySource(r.ID)
			if p := panelStat(m); !samePanel(p, r.Panel) {
				nr := *r
				nr.Panel = p
				records[i] = &nr
			}
		}
	}
	dirtyRows := make([]int, 0, len(dirtySourceIDs))
	for _, id := range dirtySourceIDs {
		row := recordRow(old, id)
		s := w.Source(id)
		if row < 0 || s == nil {
			continue // source unknown to this corpus (defensive)
		}
		nr := records[row]
		if nr == old[row] {
			nr = new(SourceRecord)
			*nr = *old[row]
			m, _ := panel.BySource(id)
			refresh(nr, m)
			records[row] = nr
		}
		nr.extendIndex(old[row], s)
		dirtyRows = append(dirtyRows, row)
	}
	return records, dirtyRows
}

// samePanel reports whether two panel joins are bitwise equal; a float
// field compares by bits, so a NaN counts as unchanged and a sign flip of
// zero as moved.
func samePanel(a, b PanelStat) bool {
	bits := math.Float64bits
	return a.TrafficRank == b.TrafficRank &&
		bits(a.DailyVisitors) == bits(b.DailyVisitors) &&
		bits(a.DailyPageViews) == bits(b.DailyPageViews) &&
		bits(a.BounceRate) == bits(b.BounceRate) &&
		bits(a.AvgTimeOnSiteSeconds) == bits(b.AvgTimeOnSiteSeconds) &&
		bits(a.PageViewsPerVisitor) == bits(b.PageViewsPerVisitor) &&
		bits(a.NewDiscussionsPerDay) == bits(b.NewDiscussionsPerDay)
}

// recordRow finds the row of source id: records built from a world sit at
// row = ID, so the search runs only for records laid out otherwise. -1
// when no record has the ID.
func recordRow(records []*SourceRecord, id int) int {
	if id >= 0 && id < len(records) && records[id].ID == id {
		return id
	}
	return slices.IndexFunc(records, func(r *SourceRecord) bool { return r.ID == id })
}

// SourceRecordsFromSnapshot builds assessment records from a crawl
// snapshot, joining each crawled source with the analytics panel by host.
// observedAt is the crawl instant.
func SourceRecordsFromSnapshot(snap *crawler.Snapshot, panel *analytics.Panel, observedAt time.Time) []*SourceRecord {
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
		}
		if m, ok := panel.ByHost(sc.Info.Host); ok {
			r.Panel = panelStat(m)
		}
		var authors []int32
		for _, d := range sc.Discussions {
			ds := DiscussionStat{
				Category: d.Category,
				Opened:   d.Opened,
				Open:     d.Open,
				TagCount: len(d.Tags),
				Comments: len(d.Comments),
			}
			for _, c := range d.Comments {
				ds.CommentTags += len(c.Tags)
				authors = append(authors, int32(c.AuthorID))
			}
			r.Discussions = append(r.Discussions, ds)
		}
		r.index(authors)
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
	// touched.row(u)[0] is user row u's ascending set of the discussion
	// IDs it commented in, kept like a source record's author set, in
	// copy-on-write blocks so that Apply copies the blocks of its dirty
	// users only.
	touched rowBlocks[[]int32]
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
		recs[i].carryJoined()
	}
	touched := make([][]int32, len(w.Users))
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
				touched[c.UserID] = append(touched[c.UserID], int32(d.ID))
			}
		}
	}
	for uid, ids := range touched {
		slices.Sort(ids)
		// The merge copies the set out of the per-comment buffer.
		touched[uid] = mergeSorted(nil, slices.Compact(ids))
		recs[uid].DiscussionsTouched = len(touched[uid])
	}
	return &ContributorIndex{records: recs, touched: blocksOf(touched, 1)}
}

// Records exposes the contributor records, ordered by user ID.
func (ix *ContributorIndex) Records() []*ContributorRecord { return ix.records }

// Apply folds an Advance delta into the index. Its one refreshed input,
// the observation instant, is shared by every record: when the tick held
// it, clean records are shared by pointer; when it moved (account ages
// move for everyone), every record is copied from one slab. Each dirty
// contributor — a new discussion's opener included, comment or not — gets
// a fresh copy with its counters and category map updated. A touched set
// grows by the discussions its old set lacks, found by binary search and
// merged into a copy, in a copy of its block of sets. Results are
// bit-identical to NewContributorIndex over the advanced world; the
// returned dirty rows feed Assessor.UpdateRows; no record or set of the
// receiver is written.
func (ix *ContributorIndex) Apply(w *webgen.World, delta *webgen.Delta) (*ContributorIndex, []int) {
	dirtyIDs := delta.DirtyContributorIDs()
	obs := w.Config.End
	nix := &ContributorIndex{
		records: slices.Clone(ix.records),
		touched: ix.touched.derive(),
	}
	if len(ix.records) > 0 && ix.records[0].ObservedAt != obs {
		slab := make([]ContributorRecord, len(ix.records)) // one allocation for every copy
		for i, r := range ix.records {
			slab[i] = *r
			slab[i].ObservedAt = obs
			nix.records[i] = &slab[i]
		}
	}
	// Every opener and commenter of the delta is among its dirty
	// contributors, so the writes below reach fresh copies only.
	dirtyRows := make([]int, 0, len(dirtyIDs))
	for _, id := range dirtyIDs {
		if id < 0 || id >= len(nix.records) {
			continue
		}
		dirtyRows = append(dirtyRows, id)
		r := nix.records[id]
		if r == ix.records[id] {
			r = new(ContributorRecord)
			*r = *ix.records[id]
			nix.records[id] = r
		}
		r.CommentsByCategory = maps.Clone(r.CommentsByCategory)
	}
	delta.ForEachNewDiscussion(func(_ int, d *webgen.Discussion) {
		if d.OpenerID >= 0 && d.OpenerID < len(nix.records) {
			nix.records[d.OpenerID].DiscussionsOpened++
		}
	})
	// novel holds (user row, discussion ID) pairs, user in the high word,
	// for the discussions a user's old set lacks.
	var novel []int64
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
		if _, known := slices.BinarySearch(ix.touched.row(c.UserID)[0], int32(d.ID)); !known {
			novel = append(novel, int64(c.UserID)<<32|int64(uint32(d.ID)))
		}
	})
	slices.Sort(novel)
	novel = slices.Compact(novel)
	var ids []int32
	for i := 0; i < len(novel); {
		uid := int(novel[i] >> 32)
		ids = ids[:0]
		for ; i < len(novel) && int(novel[i]>>32) == uid; i++ {
			ids = append(ids, int32(novel[i]))
		}
		set := mergeSorted(ix.touched.row(uid)[0], ids)
		nix.touched.own(ix.touched, uid)[0] = set
		nix.records[uid].DiscussionsTouched = len(set)
	}
	return nix, dirtyRows
}

// ContributorRecordsFromSocial maps microblog accounts to contributor
// records. Each tweet counts as its own (micro-)discussion, the service-
// agnostic reading of Section 3.2's interaction model.
func ContributorRecordsFromSocial(ds *social.Dataset, observedAt time.Time) []*ContributorRecord {
	recs := make([]*ContributorRecord, 0, len(ds.Accounts))
	for _, a := range ds.Accounts {
		r := &ContributorRecord{
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
		}
		r.carryJoined()
		recs = append(recs, r)
	}
	return recs
}
