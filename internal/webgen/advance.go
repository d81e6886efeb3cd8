package webgen

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/informing-observers/informer/internal/textgen"
)

// DeltaComment is one comment appended to a pre-existing discussion during
// an Advance tick.
type DeltaComment struct {
	SourceID int
	// Discussion is the post-tick discussion the comment belongs to (its
	// Category drives contributor accounting).
	Discussion *Discussion
	Comment    *Comment
}

// Delta describes exactly what one Advance tick changed, so downstream
// consumers (record building, quality matrices, facade caches) can update
// incrementally instead of re-deriving the whole corpus. A tick only ever
// appends content — existing discussions, comments, users and the link
// graph are immutable — so a Delta is purely additive.
type Delta struct {
	// Days is the tick length; OldEnd/NewEnd bound the new activity window.
	Days           int
	OldEnd, NewEnd time.Time
	// Discussions lists the discussions opened this tick (their initial
	// comments ride inside them and are NOT repeated in Comments).
	Discussions []*Discussion
	// discussionSources[i] is the source ID of Discussions[i].
	discussionSources []int
	// Comments lists the comments appended to pre-existing discussions.
	Comments []DeltaComment

	dirtySources      map[int]bool
	dirtyContributors map[int]bool
}

// Empty reports whether the tick changed nothing at all — no new content
// and no timeline movement.
func (d *Delta) Empty() bool {
	return len(d.Discussions) == 0 && len(d.Comments) == 0 && d.NewEnd.Equal(d.OldEnd)
}

// EpochMoved reports whether the tick moved the observation instant; when
// true, time-sensitive measures change for every record even if the
// record's own content did not.
func (d *Delta) EpochMoved() bool { return !d.NewEnd.Equal(d.OldEnd) }

// NewCommentCount counts every comment the tick created, including those
// inside newly opened discussions.
func (d *Delta) NewCommentCount() int {
	n := len(d.Comments)
	for _, disc := range d.Discussions {
		n += len(disc.Comments)
	}
	return n
}

// DirtySourceIDs returns the IDs of sources whose content changed,
// ascending.
func (d *Delta) DirtySourceIDs() []int {
	return sortedKeys(d.dirtySources)
}

// DirtyContributorIDs returns the IDs of users who opened a discussion or
// authored a comment this tick, ascending.
func (d *Delta) DirtyContributorIDs() []int {
	return sortedKeys(d.dirtyContributors)
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// ForEachNewDiscussion visits every discussion opened this tick, in
// generation order.
func (d *Delta) ForEachNewDiscussion(fn func(sourceID int, disc *Discussion)) {
	for i, disc := range d.Discussions {
		fn(d.discussionSources[i], disc)
	}
}

// ForEachNewComment visits every comment created this tick — both the
// comments inside newly opened discussions and those appended to existing
// ones — in generation order.
func (d *Delta) ForEachNewComment(fn func(sourceID int, disc *Discussion, c *Comment)) {
	for i, disc := range d.Discussions {
		for _, c := range disc.Comments {
			fn(d.discussionSources[i], disc, c)
		}
	}
	for _, dc := range d.Comments {
		fn(dc.SourceID, dc.Discussion, dc.Comment)
	}
}

// Advance extends the world's timeline by the given number of days,
// generating fresh activity: new discussions open on the more participated
// sources and existing open discussions collect new comments. This is the
// substrate for the paper's monitoring scenario — re-crawling and
// re-assessing sources as "the size of this information base and its pace
// of change" evolve — and for exercising the crawler's conditional
// re-fetch path (only sources with new activity change their pages).
//
// Advance is copy-on-write: it returns a NEW world sharing every untouched
// Source, Discussion and Comment with the input, which stays valid and
// immutable — concurrent readers of the old world are never disturbed (the
// substrate of the facade's snapshot swap). The returned Delta records
// exactly what changed. When days <= 0 the input world is returned as is
// with an empty Delta.
//
// Advance is deterministic given the seed and preserves all generator
// invariants: IDs stay globally unique, timestamps stay ordered within the
// (new) timeline, and MaxOpenDiscussions is recomputed.
//
//informer:mutates copy-on-write tick fills the successor world before it is published
func Advance(w *World, days int, seed int64) (*World, *Delta) {
	if days <= 0 {
		return w, &Delta{OldEnd: w.Config.End, NewEnd: w.Config.End,
			dirtySources: map[int]bool{}, dirtyContributors: map[int]bool{}}
	}
	rng := rand.New(rand.NewSource(seed))
	tg := textgen.NewFromRand(rng)
	oldEnd := w.Config.End
	newEnd := oldEnd.AddDate(0, 0, days)
	span := newEnd.Sub(oldEnd)
	delta := &Delta{
		Days: days, OldEnd: oldEnd, NewEnd: newEnd,
		dirtySources:      map[int]bool{},
		dirtyContributors: map[int]bool{},
	}

	ids := w.ids
	userTable := w.users
	cats := w.Categories
	churn := w.Config.ChurnScale
	if churn == 0 {
		churn = 1
	}

	dailyRate := func(s *Source) float64 {
		// New-discussion intensity mirrors the original generator's
		// participation scaling, spread over the original timeline.
		return churn * w.Config.MeanDiscussions * math.Exp(0.55*s.Latent.Participation) / w.Days()
	}

	nw := &World{
		Config:     w.Config,
		Categories: w.Categories,
		Users:      w.Users,
		Sources:    make([]*Source, len(w.Sources)),
		users:      w.users,
	}
	nw.Config.End = newEnd

	for si, s := range w.Sources {
		// New discussions for this window.
		var newDiscs []*Discussion
		nNew := poissonish(rng, dailyRate(s)*float64(days))
		for i := 0; i < nNew; i++ {
			cat := cats[rng.Intn(len(cats))]
			opened := oldEnd.Add(time.Duration(rng.Float64() * float64(span)))
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
				com := newAdvanceComment(rng, w, userTable, &ids.NextCommentID, opened, newEnd.Sub(opened))
				if w.Config.CommentText {
					com.Body = tg.Comment(cat, com.Polarity, 0)
					// Donors come from the pre-tick world: stable, fully
					// populated, and every donor ID precedes the copy's.
					maybeSyndicate(w, rng, tg, s.ID, com)
				}
				delta.dirtyContributors[com.UserID] = true
				d.Comments = append(d.Comments, com)
			}
			newDiscs = append(newDiscs, d)
		}

		// Fresh comments on existing open discussions, concentrated on
		// lively sources. Touched discussions are copied, never mutated, so
		// the input world keeps serving concurrent readers.
		var grown map[int]*Discussion // index in s.Discussions -> copy
		for di, d := range s.Discussions {
			if !d.Open || d.Opened.After(oldEnd) {
				continue
			}
			extra := poissonish(rng, churn*0.2*math.Exp(0.5*s.Latent.Participation))
			if extra == 0 {
				continue
			}
			nd := &Discussion{}
			*nd = *d
			nd.Comments = make([]*Comment, len(d.Comments), len(d.Comments)+extra)
			copy(nd.Comments, d.Comments)
			for c := 0; c < extra; c++ {
				com := newAdvanceComment(rng, w, userTable, &ids.NextCommentID, oldEnd, span)
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

		if len(newDiscs) == 0 && len(grown) == 0 {
			nw.Sources[si] = s // untouched: share the pointer
			continue
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
		nw.Sources[si] = ns
		delta.dirtySources[s.ID] = true
		for _, d := range newDiscs {
			delta.Discussions = append(delta.Discussions, d)
			delta.discussionSources = append(delta.discussionSources, s.ID)
		}
	}

	nw.MaxOpenDiscussions = 0
	for _, s := range nw.Sources {
		if n := s.OpenDiscussions(); n > nw.MaxOpenDiscussions {
			nw.MaxOpenDiscussions = n
		}
	}
	nw.ids = ids
	return nw, delta
}

// AdvanceSameDay generates fresh comment activity WITHOUT moving the
// world's timeline: existing open discussions collect new comments posted
// inside the last day of the unchanged window, no discussions open or
// close, and Config.End stays put — so the returned delta reports
// EpochMoved() == false and every time-sensitive measure input is
// untouched. This is the sparse-churn tick of the monitoring scenario (a
// re-crawl between daily epochs) and the substrate of the incremental
// spine-repair path, which only engages when the epoch holds still.
//
// onlySources, when non-nil, restricts the churn to the listed source IDs —
// the lever the sharded-corpus tests use to dirty exactly one chosen
// shard. Like Advance it is copy-on-write and deterministic per seed.
//
//informer:mutates copy-on-write tick fills the successor world before it is published
func AdvanceSameDay(w *World, seed int64, onlySources []int) (*World, *Delta) {
	rng := rand.New(rand.NewSource(seed))
	tg := textgen.NewFromRand(rng)
	end := w.Config.End
	delta := &Delta{
		Days: 0, OldEnd: end, NewEnd: end,
		dirtySources:      map[int]bool{},
		dirtyContributors: map[int]bool{},
	}
	var only map[int]bool
	if onlySources != nil {
		only = make(map[int]bool, len(onlySources))
		for _, id := range onlySources {
			only[id] = true
		}
	}

	ids := w.ids
	userTable := w.users
	churn := w.Config.ChurnScale
	if churn == 0 {
		churn = 1
	}

	nw := &World{
		Config:             w.Config,
		Categories:         w.Categories,
		Users:              w.Users,
		Sources:            make([]*Source, len(w.Sources)),
		MaxOpenDiscussions: w.MaxOpenDiscussions, // no discussion opens or closes
		users:              w.users,
	}
	for si, s := range w.Sources {
		if only != nil && !only[s.ID] {
			nw.Sources[si] = s
			continue
		}
		// Fresh comments on existing open discussions, posted within the
		// final day of the unchanged window so timestamps stay ordered.
		var grown map[int]*Discussion
		for di, d := range s.Discussions {
			if !d.Open || d.Opened.After(end) {
				continue
			}
			extra := poissonish(rng, churn*0.2*math.Exp(0.5*s.Latent.Participation))
			if extra == 0 {
				continue
			}
			from := end.Add(-24 * time.Hour)
			if d.Opened.After(from) {
				from = d.Opened
			}
			nd := &Discussion{}
			*nd = *d
			nd.Comments = make([]*Comment, len(d.Comments), len(d.Comments)+extra)
			copy(nd.Comments, d.Comments)
			for c := 0; c < extra; c++ {
				com := newAdvanceComment(rng, w, userTable, &ids.NextCommentID, from, end.Sub(from))
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
		if len(grown) == 0 {
			nw.Sources[si] = s
			continue
		}
		ns := &Source{}
		*ns = *s
		ns.Discussions = make([]*Discussion, len(s.Discussions))
		for di, d := range s.Discussions {
			if nd, ok := grown[di]; ok {
				ns.Discussions[di] = nd
			} else {
				ns.Discussions[di] = d
			}
		}
		nw.Sources[si] = ns
		delta.dirtySources[s.ID] = true
	}
	nw.ids = ids
	return nw, delta
}

// newAdvanceComment draws one fresh comment, posted uniformly inside
// [from, from+window].
func newAdvanceComment(rng *rand.Rand, w *World, userTable *cumulative, nextComID *int, from time.Time, window time.Duration) *Comment {
	author := userTable.pick(rng)
	u := w.Users[author]
	com := &Comment{
		ID:        *nextComID,
		UserID:    author,
		Posted:    from.Add(time.Duration(rng.Float64() * float64(window))),
		Polarity:  samplePolarity(rng),
		Replies:   poissonish(rng, 0.8*math.Exp(0.6*u.Influence)),
		Feedbacks: poissonish(rng, 1.2*math.Exp(0.7*u.Influence)),
		Reads:     poissonish(rng, 15*math.Exp(0.5*u.Influence)),
	}
	*nextComID++
	return com
}
