package correlate

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"github.com/informing-observers/informer/internal/webgen"
)

// comEntry is the per-comment state the index keeps beside its signature
// column: provenance and the immutable duplicate verdict. A comment is
// a duplicate iff, at insertion time, some *earlier* (lower-ID) comment
// from a *different* source sits within DupHamming of it — a source
// quoting itself is not syndication. Comment IDs are append-only and
// monotone across Advance/AdvanceSameDay/AdvanceSource (every tick
// allocates past the corpus-wide maximum), so "earlier" is well defined
// and a verdict never changes once written; per-source counters can only
// move for sources the tick dirtied.
type comEntry struct {
	source   int32
	disc     int32
	posted   int64 // UnixNano
	dup      bool
	indexed  bool // carries a signature (has text)
	inserted bool // seen by insert, with or without text
}

// edge is one story-tier candidate pair buffered for the batch merge.
type edge struct{ a, b int32 }

// cluster aggregates one story-tier union-find component with at least
// two members. Members and latest are maintained incrementally;
// sources stays sorted ascending and deduplicated. The member list is an
// unordered set (merges swap small-to-large), so nothing derived from it
// may depend on its order — materialize sorts what it publishes.
type cluster struct {
	members []int32
	sources []int32
	latest  int64
}

// Index is the correlation engine's mutable working state: the banded
// near-duplicate index plus the two-tier union-find clustering over it.
// It is writer-owned — the facade mutates it only under its writer lock,
// exactly like the ingestion accumulator — and publishes immutable
// StorySet snapshots for readers. It is NOT safe for concurrent use.
type Index struct {
	entries []comEntry // indexed by comment ID
	sigs    []uint64   // signature column, indexed by comment ID
	// buckets[b][v] lists the comments whose band b equals v, in
	// insertion order: one flat table of 1<<bandBits buckets per band.
	buckets [numBands][][]int32

	dupParent   []int32 // duplicate-tier union-find (micro-clusters)
	storyParent []int32 // story-tier union-find (stories)
	dupMerges   int

	indexed, duplicates int // Stats counters, maintained by insert

	pending []edge // story-tier-only edges awaiting the batch merge pass

	// coms is Fold's reused batch of the delta's new comments.
	coms []newComment
	// cands is insert's reused scratch: the candidates of every probed
	// bucket, band by band, gathered before any signature is loaded.
	cands []int32

	clusters map[int32]*cluster // story-tier roots with >= 2 members
	// touched lists both roots of every story-tier union since the last
	// materialize, with repeats: the winner changed and the loser was
	// merged away, so neither may ride into the next StorySet as it was.
	touched []int32

	corrBySource []int // indexed comments per source
	dupBySource  []int // duplicate comments per source

	stories *StorySet // last materialized snapshot
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{
		clusters: map[int32]*cluster{},
		stories:  emptyStorySet(),
	}
	for b := range ix.buckets {
		ix.buckets[b] = make([][]int32, 1<<bandBits)
	}
	return ix
}

// Stats summarises the index for tests and dashboards.
type Stats struct {
	Indexed       int // comments carrying a signature
	Duplicates    int // comments flagged as near-duplicates of earlier material elsewhere
	MicroClusters int // duplicate-tier components
	StoryClusters int // story-tier components with >= 2 members
}

// Stats reports the current index statistics in O(1).
func (ix *Index) Stats() Stats {
	return Stats{
		Indexed:       ix.indexed,
		Duplicates:    ix.duplicates,
		MicroClusters: ix.indexed - ix.dupMerges,
		StoryClusters: len(ix.clusters),
	}
}

// Counts reports a source's correlation counters: how many of its
// comments the index carries and how many of those are near-duplicates of
// earlier material on other sources. These are the numerator inputs of
// the src.originality measure.
func (ix *Index) Counts(sourceID int) (correlated, duplicates int) {
	if sourceID < 0 || sourceID >= len(ix.corrBySource) {
		return 0, 0
	}
	return ix.corrBySource[sourceID], ix.dupBySource[sourceID]
}

// Stories returns the StorySet materialized by the last Build/Fold.
func (ix *Index) Stories() *StorySet { return ix.stories }

// newComment is one comment queued for insertion.
type newComment struct {
	id     int32
	source int32
	disc   int32
	posted int64
	body   string
}

// Build indexes an entire world from scratch and materializes its
// StorySet. The index must be empty; incremental maintenance goes through
// Fold. Comments are inserted in ascending ID order — the same order Fold
// sees them over any tick sequence producing the same world — which is
// what makes a Fold-maintained index bit-identical to Build.
func (ix *Index) Build(w *webgen.World) *StorySet {
	if len(ix.entries) != 0 {
		panic("correlate: Build on a non-empty index (use Fold)")
	}
	var coms []newComment
	for _, s := range w.Sources {
		for _, d := range s.Discussions {
			for _, c := range d.Comments {
				coms = append(coms, newComment{
					id: int32(c.ID), source: int32(s.ID), disc: int32(d.ID),
					posted: c.Posted.UnixNano(), body: c.Body,
				})
			}
		}
	}
	return ix.fold(w, coms)
}

// Fold repairs the index for one published tick: only the delta's new
// comments are hashed and inserted, then the buffered story-tier edges
// batch-merge and the StorySet re-materializes copy-on-write (untouched
// stories are shared with the previous set). The delta may span several
// coalesced ticks (webgen.Delta.Merge); ForEachNewComment visits every
// new comment exactly once.
func (ix *Index) Fold(w *webgen.World, delta *webgen.Delta) *StorySet {
	coms := ix.coms[:0]
	delta.ForEachNewComment(func(sourceID int, d *webgen.Discussion, c *webgen.Comment) {
		coms = append(coms, newComment{
			id: int32(c.ID), source: int32(sourceID), disc: int32(d.ID),
			posted: c.Posted.UnixNano(), body: c.Body,
		})
	})
	ix.coms = coms
	return ix.fold(w, coms)
}

// fold inserts a batch of comments in ID order, runs the story-tier batch
// merge, and materializes the next StorySet.
//
//informer:mutates swaps in the successor StorySet before it is published
func (ix *Index) fold(w *webgen.World, coms []newComment) *StorySet {
	// Delta visit order is generation order (new-discussion comments before
	// grown ones), not global ID order; sort so insertion order — and with
	// it every "earlier comment" verdict — matches a from-scratch Build.
	slices.SortFunc(coms, func(a, b newComment) int { return cmp.Compare(a.id, b.id) })
	ix.growSources(len(w.Sources))
	for _, nc := range coms {
		ix.insert(nc)
	}
	// Batch merge pass: fold the buffered loose-tier edges into the story
	// union-find. Union order cannot influence the result — roots are
	// minimum member IDs and member/source aggregates are sets.
	for _, e := range ix.pending {
		ix.storyUnion(e.a, e.b)
	}
	ix.pending = ix.pending[:0]
	ix.stories = ix.materialize(ix.stories)
	return ix.stories
}

// growSources sizes the per-source counters for n sources.
func (ix *Index) growSources(n int) {
	if n > len(ix.corrBySource) {
		ix.corrBySource = append(ix.corrBySource, make([]int, n-len(ix.corrBySource))...)
		ix.dupBySource = append(ix.dupBySource, make([]int, n-len(ix.dupBySource))...)
	}
}

// probesPerBand is how many buckets an insertion reads per band: the
// exact band value and every single-bit variation of it.
const probesPerBand = 1 + bandBits

// insert hashes one comment, probes the banded buckets for candidates,
// writes the duplicate verdict and the union-find edges, and registers
// the comment in the buckets.
//
// The probe runs in three passes so that its cache misses overlap
// instead of queueing: the 68 bucket headers are read into a local array
// (independent loads from four 1.5 MB tables), their contents are copied
// into one scratch list, and only then is each candidate's signature
// loaded and tested, in a loop whose loads do not depend on one another.
// A candidate sits in one bucket per band, so it is met in band b iff its
// signature's band b differs from sig's in at most one bit; metEarlier
// skips candidates an earlier band already met. The visit order — band,
// then probe key (exact value first, then the flipped bit), then
// insertion order — is that of reading bucket by bucket.
func (ix *Index) insert(nc newComment) {
	if int(nc.id) < len(ix.entries) && ix.entries[nc.id].inserted {
		panic(fmt.Sprintf("correlate: comment %d inserted twice", nc.id))
	}
	for int(nc.id) >= len(ix.entries) {
		ix.entries = append(ix.entries, comEntry{})
		ix.sigs = append(ix.sigs, 0)
		ix.dupParent = append(ix.dupParent, int32(len(ix.dupParent)))
		ix.storyParent = append(ix.storyParent, int32(len(ix.storyParent)))
	}
	e := &ix.entries[nc.id]
	e.source, e.disc, e.posted, e.inserted = nc.source, nc.disc, nc.posted, true
	if nc.body == "" {
		return // nothing to correlate; stays un-indexed and uncounted
	}
	sig := Simhash(nc.body)
	ix.sigs[nc.id] = sig
	e.indexed = true

	// Multi-probe: the exact band value plus every single-bit variation.
	// Signatures register only under exact values, so two signatures
	// whose band differs by <= 1 bit still meet — the probe set that
	// makes duplicate-tier recall a pigeonhole guarantee (see the
	// parameter block in simhash.go).
	var heads [numBands * probesPerBand][]int32
	for b := 0; b < numBands; b++ {
		key, table, row := band(sig, b), ix.buckets[b], heads[b*probesPerBand:]
		row[0] = table[key]
		for bit := 0; bit < bandBits; bit++ {
			row[1+bit] = table[key^(1<<uint(bit))]
		}
	}
	var bandEnd [numBands]int
	cands := ix.cands[:0]
	for i, h := range heads {
		cands = append(cands, h...)
		bandEnd[i/probesPerBand] = len(cands)
	}
	ix.cands = cands
	start := 0
	for b, end := range bandEnd {
		for _, cand := range cands[start:end] {
			x := sig ^ ix.sigs[cand]
			h := bits.OnesCount64(x)
			if h > StoryHamming || metEarlier(x, b) {
				continue
			}
			if h <= DupHamming {
				if !e.dup && ix.entries[cand].source != e.source {
					e.dup = true
				}
				ix.dupUnion(nc.id, cand)
				ix.storyUnion(nc.id, cand)
			} else {
				ix.pending = append(ix.pending, edge{nc.id, cand})
			}
		}
		start = end
	}
	for b := 0; b < numBands; b++ {
		key := band(sig, b)
		ix.buckets[b][key] = append(ix.buckets[b][key], nc.id)
	}
	ix.indexed++
	ix.corrBySource[nc.source]++
	if e.dup {
		ix.duplicates++
		ix.dupBySource[nc.source]++
	}
}

// metEarlier reports whether two signatures differing in x meet in some
// band before b: that band of x has at most one bit set.
func metEarlier(x uint64, b int) bool {
	for i := 0; i < b; i++ {
		if bits.OnesCount16(band(x, i)) <= 1 {
			return true
		}
	}
	return false
}

// find resolves a union-find root with path compression. The root of any
// component is always its minimum member ID (see union), so roots — and
// everything derived from them — are invariant under union order.
func find(parent []int32, x int32) int32 {
	root := x
	for parent[root] != root {
		root = parent[root]
	}
	for parent[x] != root {
		parent[x], x = root, parent[x]
	}
	return root
}

// dupUnion merges two duplicate-tier components.
func (ix *Index) dupUnion(a, b int32) {
	ra, rb := find(ix.dupParent, a), find(ix.dupParent, b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	ix.dupParent[rb] = ra
	ix.dupMerges++
}

// storyUnion merges two story-tier components, keeping the minimum ID as
// root and folding the loser's aggregates into the winner's cluster.
func (ix *Index) storyUnion(a, b int32) {
	ra, rb := find(ix.storyParent, a), find(ix.storyParent, b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra // ra wins: component roots are minimum member IDs
	}
	ix.storyParent[rb] = ra
	win, lose := ix.clusters[ra], ix.clusters[rb]
	switch {
	case win == nil && lose == nil:
		win = &cluster{members: []int32{ra, rb}}
		win.latest = maxI64(ix.entries[ra].posted, ix.entries[rb].posted)
		win.sources = insertSource(insertSource(nil, ix.entries[ra].source), ix.entries[rb].source)
		ix.clusters[ra] = win
	case lose == nil: // singleton rb joins ra's cluster
		win.members = append(win.members, rb)
		win.sources = insertSource(win.sources, ix.entries[rb].source)
		win.latest = maxI64(win.latest, ix.entries[rb].posted)
	case win == nil: // singleton ra absorbs rb's cluster (ra keeps the root)
		lose.members = append(lose.members, ra)
		lose.sources = insertSource(lose.sources, ix.entries[ra].source)
		lose.latest = maxI64(lose.latest, ix.entries[ra].posted)
		ix.clusters[ra] = lose
		delete(ix.clusters, rb)
	default: // two real clusters: small-to-large member merge
		if len(lose.members) > len(win.members) {
			win.members, lose.members = lose.members, win.members
		}
		win.members = append(win.members, lose.members...)
		for _, s := range lose.sources {
			win.sources = insertSource(win.sources, s)
		}
		win.latest = maxI64(win.latest, lose.latest)
		delete(ix.clusters, rb)
	}
	ix.touched = append(ix.touched, ra, rb)
}

// insertSource adds a source ID to a sorted-unique set.
func insertSource(set []int32, s int32) []int32 {
	i := sort.Search(len(set), func(i int) bool { return set[i] >= s })
	if i < len(set) && set[i] == s {
		return set
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = s
	return set
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
