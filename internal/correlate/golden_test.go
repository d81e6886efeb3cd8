package correlate

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/informing-observers/informer/internal/webgen"
)

// goldenStoryDigests are the FNV-64a digests of the index after Build on
// the golden world and after the golden fold sequence. They pin the
// candidate set itself: a change to which pairs the bands surface would
// still fold bit-identically to a rebuild (both sides run the same
// code), so only a fixed digest catches it. Change them only with a
// deliberate change to the signature, the bands or the tiers.
const (
	goldenBuildDigest uint64 = 0xfe7a2095ba3ba499
	goldenFoldDigest  uint64 = 0x447d0e227be65f1a
)

// storyDigest hashes every story in listing order, every source's
// counters, the index statistics and every comment's dup verdict.
func storyDigest(ix *Index, w *webgen.World) uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	for _, st := range ix.Stories().All() {
		put(int64(st.ID), int64(st.SourceID), int64(st.DiscussionID), int64(len(st.Sources)))
		for _, s := range st.Sources {
			put(int64(s))
		}
		put(int64(st.Size), st.Latest.UnixNano())
	}
	for _, s := range w.Sources {
		c, d := ix.Counts(s.ID)
		put(int64(s.ID), int64(c), int64(d))
	}
	st := ix.Stats()
	put(int64(st.Indexed), int64(st.Duplicates), int64(st.MicroClusters), int64(st.StoryClusters))
	for i := range ix.entries {
		dup := int64(0)
		if ix.entries[i].dup {
			dup = 1
		}
		put(dup)
	}
	return h.Sum64()
}

// TestGoldenStoryDigest builds the index on a syndicating world, then
// folds a day-moving tick, a same-day tick and ten per-source polls
// coalesced into one delta, and pins the digest at both points.
func TestGoldenStoryDigest(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 1701, NumSources: 60, CommentText: true,
		SyndicationRate: 0.25, ChurnScale: 6})
	ix := NewIndex()
	ix.Build(w)
	if got := storyDigest(ix, w); got != goldenBuildDigest {
		t.Errorf("build digest = %#x, want %#x: the candidate set or a verdict changed", got, goldenBuildDigest)
	}

	w, d := webgen.Advance(w, 1, 1711)
	ix.Fold(w, d)
	w, d = webgen.AdvanceSameDay(w, 1712, nil)
	ix.Fold(w, d)
	var merged *webgen.Delta
	for p := 0; p < 10; p++ {
		var pd *webgen.Delta
		w, pd = webgen.AdvanceSource(w, (p*7)%len(w.Sources), int64(1720+p), nil)
		if merged == nil {
			merged = pd
		} else {
			merged.Merge(pd)
		}
	}
	if merged.NewCommentCount() == 0 {
		t.Fatal("the golden polls produced no comments; raise their churn")
	}
	ix.Fold(w, merged)
	if ix.Stories().Len() == 0 {
		t.Fatal("golden world produced no stories")
	}
	if got := storyDigest(ix, w); got != goldenFoldDigest {
		t.Errorf("fold digest = %#x, want %#x: the candidate set or a verdict changed", got, goldenFoldDigest)
	}
}
