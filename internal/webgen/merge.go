package webgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/informing-observers/informer/internal/textgen"
)

// IDCursor is an ID frontier: the next free discussion and comment IDs.
// Every World carries its own and each tick mints from its input world's,
// so a cursor threaded through AdvanceSource (which writes the advanced
// frontier back) never goes stale, whatever ticks intervene.
type IDCursor struct {
	NextDiscussionID int
	NextCommentID    int
}

// NewIDCursor returns a cursor positioned just past the world's highest
// discussion and comment IDs.
func NewIDCursor(w *World) *IDCursor {
	cur := w.ids
	return &cur
}

// Clone returns an independent copy of the delta: the slices and dirty
// sets are fresh, while the Discussion and Comment pointees — immutable
// once published — stay shared. Use it before Merge when the original
// per-tick delta must stay intact (the accumulator clones its first
// pending delta so later folds never mutate a delta the caller kept).
func (d *Delta) Clone() *Delta {
	nd := &Delta{
		Days:              d.Days,
		OldEnd:            d.OldEnd,
		NewEnd:            d.NewEnd,
		dirtySources:      make(map[int]bool, len(d.dirtySources)),
		dirtyContributors: make(map[int]bool, len(d.dirtyContributors)),
	}
	if len(d.Discussions) > 0 {
		nd.Discussions = append([]*Discussion(nil), d.Discussions...)
		nd.discussionSources = append([]int(nil), d.discussionSources...)
	}
	if len(d.Comments) > 0 {
		nd.Comments = append([]DeltaComment(nil), d.Comments...)
	}
	for id := range d.dirtySources {
		nd.dirtySources[id] = true
	}
	for id := range d.dirtyContributors {
		nd.dirtyContributors[id] = true
	}
	return nd
}

// Merge folds next — the delta of the tick that immediately followed the
// receiver's — into d, leaving d describing the single spanning tick from
// d's old world to next's new world. It is the delta-level analogue of
// internal/deliver's queue coalescing and carries the same
// replay-equivalence proof shape:
//
//   - the timeline composes: Days add, OldEnd stays, NewEnd advances, so
//     EpochMoved() is true iff either operand moved the epoch — a
//     same-day delta folded into a day-moving one (in either order)
//     keeps reporting the movement;
//   - dirty source/contributor sets union (a source dirtied twice is
//     dirtied once);
//   - Discussions and Comments concatenate in tick order. d keeps its own
//     Discussion pointers: when next appended comments to a discussion d
//     opened, those comments appear exactly once — in next's Comments
//     entries (whose Discussion field is next's grown copy) — and never
//     inside d's original pointer, whose comment slice predates them. So
//     ForEachNewComment over the merged delta visits every comment of the
//     span exactly once, and NewCommentCount adds up instead of
//     double-counting.
//
// Consequently every delta consumer (UpdateRows dirty sets,
// ContributorIndex counters, scan staleness) sees the merged delta as
// bit-equivalent to replaying the two ticks back to back; the randomized
// merge-vs-replay suite in advance_test.go pins this.
//
// Merge panics if the deltas are not adjacent (d.NewEnd != next.OldEnd):
// folding non-consecutive ticks has no coherent meaning.
func (d *Delta) Merge(next *Delta) {
	if !d.NewEnd.Equal(next.OldEnd) {
		panic(fmt.Sprintf("webgen: Delta.Merge of non-adjacent deltas: have ...%s, next starts %s",
			d.NewEnd.Format(time.RFC3339), next.OldEnd.Format(time.RFC3339)))
	}
	d.Days += next.Days
	d.NewEnd = next.NewEnd
	d.Discussions = append(d.Discussions, next.Discussions...)
	d.discussionSources = append(d.discussionSources, next.discussionSources...)
	d.Comments = append(d.Comments, next.Comments...)
	if d.dirtySources == nil {
		d.dirtySources = map[int]bool{}
	}
	if d.dirtyContributors == nil {
		d.dirtyContributors = map[int]bool{}
	}
	for id := range next.dirtySources {
		d.dirtySources[id] = true
	}
	for id := range next.dirtyContributors {
		d.dirtyContributors[id] = true
	}
}

// AdvanceSource generates one source's worth of fresh activity WITHOUT
// moving the world's timeline: the chosen source may open new discussions
// (backdated into the final day of the unchanged window) and its existing
// open discussions collect new comments, while every other source — and
// Config.End — stays untouched. This is the per-source poll tick of the
// adaptive ingestion scheduler (internal/ingest): hot sources take many
// AdvanceSource ticks between assessment drains, the quiet tail takes
// none, and Delta.Merge coalesces the per-source deltas into one spanning
// delta for a single UpdateRows repair.
//
// Like Advance it is copy-on-write (the input world keeps serving
// concurrent readers) and deterministic per seed. IDs are minted from the
// input world's frontier; cur, when non-nil, receives the advanced one.
// An unknown sourceID returns the input world unchanged with an empty
// delta.
//
//informer:mutates copy-on-write tick fills the successor world before it is published
func AdvanceSource(w *World, sourceID int, seed int64, cur *IDCursor) (*World, *Delta) {
	end := w.Config.End
	delta := &Delta{
		Days: 0, OldEnd: end, NewEnd: end,
		dirtySources:      map[int]bool{},
		dirtyContributors: map[int]bool{},
	}
	si := -1
	for i, s := range w.Sources {
		if s.ID == sourceID {
			si = i
			break
		}
	}
	if si < 0 {
		return w, delta
	}
	ids := w.ids
	s := w.Sources[si]

	rng := rand.New(rand.NewSource(seed))
	tg := textgen.NewFromRand(rng)
	userTable := w.users
	cats := w.Categories
	churn := w.Config.ChurnScale
	if churn == 0 {
		churn = 1
	}
	// One day's worth of new-discussion intensity, mirroring Advance's
	// participation scaling spread over the original timeline.
	dailyRate := churn * w.Config.MeanDiscussions * math.Exp(0.55*s.Latent.Participation) / w.Days()
	from := end.Add(-24 * time.Hour)
	span := end.Sub(from)

	// New discussions, backdated into the window's final day so timestamps
	// stay ordered without moving the epoch.
	var newDiscs []*Discussion
	nNew := poissonish(rng, dailyRate)
	for i := 0; i < nNew; i++ {
		cat := cats[rng.Intn(len(cats))]
		opened := from.Add(time.Duration(rng.Float64() * float64(span)))
		d := &Discussion{
			ID:       ids.NextDiscussionID,
			SourceID: s.ID,
			OpenerID: userTable.pick(rng),
			Title:    tg.Title(cat),
			Category: cat,
			Opened:   opened,
			Open:     true,
			Tags:     tg.Tags(cat, 1+rng.Intn(3)),
		}
		ids.NextDiscussionID++
		delta.dirtyContributors[d.OpenerID] = true
		nCom := poissonish(rng, churn*w.Config.MeanComments*math.Exp(0.5*s.Latent.Participation)*0.5)
		for c := 0; c < nCom; c++ {
			com := newAdvanceComment(rng, w, userTable, &ids.NextCommentID, opened, end.Sub(opened))
			if w.Config.CommentText {
				com.Body = tg.Comment(cat, com.Polarity, 0)
				maybeSyndicate(w, rng, tg, s.ID, com)
			}
			delta.dirtyContributors[com.UserID] = true
			d.Comments = append(d.Comments, com)
		}
		newDiscs = append(newDiscs, d)
	}

	// Fresh comments on this source's existing open discussions, posted
	// within the final day of the unchanged window (AdvanceSameDay's shape,
	// restricted to one source).
	var grown map[int]*Discussion
	for di, d := range s.Discussions {
		if !d.Open || d.Opened.After(end) {
			continue
		}
		extra := poissonish(rng, churn*0.2*math.Exp(0.5*s.Latent.Participation))
		if extra == 0 {
			continue
		}
		cfrom := from
		if d.Opened.After(cfrom) {
			cfrom = d.Opened
		}
		nd := &Discussion{}
		*nd = *d
		nd.Comments = make([]*Comment, len(d.Comments), len(d.Comments)+extra)
		copy(nd.Comments, d.Comments)
		for c := 0; c < extra; c++ {
			com := newAdvanceComment(rng, w, userTable, &ids.NextCommentID, cfrom, end.Sub(cfrom))
			if w.Config.CommentText && d.Category != "" {
				com.Body = tg.Comment(d.Category, com.Polarity, 0)
				maybeSyndicate(w, rng, tg, s.ID, com)
			}
			nd.Comments = append(nd.Comments, com)
			delta.dirtyContributors[com.UserID] = true
			delta.Comments = append(delta.Comments, DeltaComment{SourceID: s.ID, Discussion: nd, Comment: com})
		}
		if grown == nil {
			grown = map[int]*Discussion{}
		}
		grown[di] = nd
	}

	if cur != nil {
		*cur = ids
	}
	if len(newDiscs) == 0 && len(grown) == 0 {
		return w, delta
	}
	ns := &Source{}
	*ns = *s
	ns.Discussions = make([]*Discussion, 0, len(s.Discussions)+len(newDiscs))
	for di, d := range s.Discussions {
		if nd, ok := grown[di]; ok {
			ns.Discussions = append(ns.Discussions, nd)
		} else {
			ns.Discussions = append(ns.Discussions, d)
		}
	}
	ns.Discussions = append(ns.Discussions, newDiscs...)

	nw := &World{
		Config:             w.Config,
		Categories:         w.Categories,
		Users:              w.Users,
		Sources:            make([]*Source, len(w.Sources)),
		MaxOpenDiscussions: w.MaxOpenDiscussions,
		ids:                ids,
		users:              w.users,
	}
	copy(nw.Sources, w.Sources)
	nw.Sources[si] = ns
	// Discussions never close, so only the polled source can raise the max.
	if n := ns.OpenDiscussions(); n > nw.MaxOpenDiscussions {
		nw.MaxOpenDiscussions = n
	}
	delta.dirtySources[s.ID] = true
	for _, d := range newDiscs {
		delta.Discussions = append(delta.Discussions, d)
		delta.discussionSources = append(delta.discussionSources, s.ID)
	}
	return nw, delta
}
