package correlate

import (
	"cmp"
	"slices"
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

// materialize publishes the next StorySet from the index's touched-root
// list, sharing untouched stories with prev, then empties the list.
// Touched IDs are sorted and compacted; those still roots are rendered
// and sorted, and they merge into prev's listing minus every
// touched ID, so a fold costs its touched stories plus one linear pass,
// not a re-sort of every story. A listed story that was merged away is
// among the touched IDs: every union records its losing root.
//
//informer:mutates builds the successor snapshot before it is published
func (ix *Index) materialize(prev *StorySet) *StorySet {
	if len(ix.touched) == 0 {
		return prev
	}
	slices.Sort(ix.touched)
	touched := slices.Compact(ix.touched)
	fresh := make([]*Story, 0, len(touched))
	for _, r := range touched {
		// Only roots key clusters, so an ID merged away finds none.
		// Touched but single-source (e.g. a source near-duplicating
		// itself) is a cluster, not a story.
		if cl := ix.clusters[r]; cl != nil && len(cl.sources) >= 2 {
			fresh = append(fresh, ix.buildStory(r, cl))
		}
	}
	slices.SortFunc(fresh, storyCompare)
	next := &StorySet{ordered: make([]*Story, 0, len(prev.ordered)+len(fresh))}
	// mask holds one bit per value of an ID's low 12 bits, set for every
	// touched ID: a listed story whose bit is clear is untouched, which
	// settles most of them without the binary search.
	var mask [64]uint64
	for _, r := range touched {
		mask[r>>6&63] |= 1 << (r & 63)
	}
	for _, st := range prev.ordered {
		r := int32(st.ID)
		if mask[r>>6&63]&(1<<(r&63)) != 0 {
			if _, hit := slices.BinarySearch(touched, r); hit {
				continue
			}
		}
		for len(fresh) > 0 && storyBefore(fresh[0], st) {
			next.ordered = append(next.ordered, fresh[0])
			fresh = fresh[1:]
		}
		next.ordered = append(next.ordered, st)
	}
	next.ordered = append(next.ordered, fresh...)
	ix.touched = ix.touched[:0]
	return next
}

// storyCompare is the listing order: Latest desc, then ID asc.
func storyCompare(a, b *Story) int {
	if c := b.Latest.Compare(a.Latest); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// storyBefore reports whether a lists before b.
func storyBefore(a, b *Story) bool { return storyCompare(a, b) < 0 }

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
