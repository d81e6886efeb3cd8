package correlate

import (
	"sort"
	"time"
)

// Story is one cross-source cluster: at least two distinct sources whose
// comments fall within the story tier of one another. Its identity is the
// minimum member comment ID — stable across fold orders, tick coalescing
// and shard counts, because it depends only on the final near-dup graph.
type Story struct {
	// ID is the minimum member comment ID (the union-find root).
	ID int
	// SourceID and DiscussionID locate the representative discussion: the
	// one carrying the story's earliest (root) comment.
	SourceID     int
	DiscussionID int
	// Sources lists the distinct member source IDs, ascending.
	Sources []int
	// Size is the number of member comments.
	Size int
	// Latest is the freshest member comment's timestamp.
	Latest time.Time
}

// StorySet is an immutable snapshot of the story clusters at one corpus
// version. Sets materialize copy-on-write: stories untouched by a tick
// are shared (by pointer) with the previous set.
//
//informer:snapshot
type StorySet struct {
	ordered []*Story // Latest desc, ID asc
}

func emptyStorySet() *StorySet { return &StorySet{} }

// Len reports the number of stories.
func (ss *StorySet) Len() int {
	if ss == nil {
		return 0
	}
	return len(ss.ordered)
}

// Story returns the story with the given id, if any. It scans the
// listing: the set keeps no by-ID index, since stories are served in
// freshness order and no hot path looks one up by ID.
func (ss *StorySet) Story(id int) (*Story, bool) {
	for _, st := range ss.All() {
		if st.ID == id {
			return st, true
		}
	}
	return nil, false
}

// All returns the stories ordered by freshness (Latest desc, ID asc).
// The returned slice is shared — callers must not mutate it.
func (ss *StorySet) All() []*Story {
	if ss == nil {
		return nil
	}
	return ss.ordered
}

// StoryCursor is a keyset-pagination position: the (Latest, ID) key of
// the last story already served.
type StoryCursor struct {
	LatestNano int64
	ID         int
}

// StoryQuery selects and paginates stories.
type StoryQuery struct {
	// Limit caps the page size; <=0 means 10.
	Limit int
	// MinSources keeps only stories spanning at least this many distinct
	// sources; values below 2 mean 2 (a story is cross-source by
	// definition).
	MinSources int
	// After resumes strictly after a cursor position.
	After *StoryCursor
}

// StoryPage is one page of query results.
type StoryPage struct {
	Stories []*Story
	// Total counts every story matching the filter, not just this page.
	Total int
	// Next resumes after the last story of this page; nil when exhausted.
	Next *StoryCursor
}

// Query pages through the set in freshness order (Latest desc, ID asc)
// with keyset semantics: a cursor names a position, not an offset, so
// pages stay stable as older stories change behind the reader.
func (ss *StorySet) Query(q StoryQuery) *StoryPage {
	limit := q.Limit
	if limit <= 0 {
		limit = 10
	}
	minSources := q.MinSources
	if minSources < 2 {
		minSources = 2
	}
	page := &StoryPage{}
	if ss == nil {
		return page
	}
	started := q.After == nil
	for _, st := range ss.ordered {
		if len(st.Sources) < minSources {
			continue
		}
		page.Total++
		if !started {
			n := st.Latest.UnixNano()
			if n < q.After.LatestNano || (n == q.After.LatestNano && st.ID > q.After.ID) {
				started = true
			} else {
				continue
			}
		}
		if len(page.Stories) < limit {
			page.Stories = append(page.Stories, st)
		} else if page.Next == nil {
			last := page.Stories[len(page.Stories)-1]
			page.Next = &StoryCursor{LatestNano: last.Latest.UnixNano(), ID: last.ID}
		}
	}
	return page
}

// materialize publishes the next StorySet from the index's touched/dead
// root bookkeeping, sharing untouched stories with prev, then resets the
// bookkeeping. Only the touched roots are rendered and sorted; they merge
// into prev's listing minus every dead or touched ID, so a fold costs its
// touched stories plus one linear pass, not a re-sort of every story.
//
//informer:mutates builds the successor snapshot before it is published
func (ix *Index) materialize(prev *StorySet) *StorySet {
	if len(ix.touched) == 0 && len(ix.dead) == 0 {
		return prev
	}
	fresh := make([]*Story, 0, len(ix.touched))
	for r := range ix.touched {
		// Touched but single-source (e.g. a source near-duplicating
		// itself) is a cluster, not a story.
		if cl := ix.clusters[r]; !ix.dead[r] && cl != nil && len(cl.sources) >= 2 {
			fresh = append(fresh, ix.buildStory(r, cl))
		}
	}
	// Map-range order above is scheduling-dependent; storyBefore is a
	// total order, so no map order escapes.
	sort.Slice(fresh, func(i, j int) bool { return storyBefore(fresh[i], fresh[j]) })
	next := &StorySet{ordered: make([]*Story, 0, len(prev.ordered)+len(fresh))}
	for _, st := range prev.ordered {
		if r := int32(st.ID); ix.dead[r] || ix.touched[r] {
			continue
		}
		for len(fresh) > 0 && storyBefore(fresh[0], st) {
			next.ordered = append(next.ordered, fresh[0])
			fresh = fresh[1:]
		}
		next.ordered = append(next.ordered, st)
	}
	next.ordered = append(next.ordered, fresh...)
	ix.touched = map[int32]bool{}
	ix.dead = map[int32]bool{}
	return next
}

// storyBefore is the listing order: Latest desc, then ID asc.
func storyBefore(a, b *Story) bool {
	if !a.Latest.Equal(b.Latest) {
		return a.Latest.After(b.Latest)
	}
	return a.ID < b.ID
}

// buildStory renders a cluster rooted at r as its immutable Story. The
// cluster's source set is already sorted ascending (insertSource keeps it
// so), which the Story inherits.
func (ix *Index) buildStory(r int32, cl *cluster) *Story {
	sources := make([]int, len(cl.sources))
	for i, s := range cl.sources {
		sources[i] = int(s)
	}
	return &Story{
		ID:           int(r),
		SourceID:     int(ix.entries[r].source),
		DiscussionID: int(ix.entries[r].disc),
		Sources:      sources,
		Size:         len(cl.members),
		Latest:       time.Unix(0, cl.latest).UTC(),
	}
}
