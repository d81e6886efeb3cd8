package webgen

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"
)

// goldenTickDigest is the FNV-64a digest of the world and merged delta
// that goldenTickRun produces. It pins the tick's random draw order: a
// tick that consumed its draws in a different order would still build a
// self-consistent world (every rebuild check compares a world with
// itself), so only a fixed digest catches it. Change the constant only
// with a deliberate change to the generator.
const goldenTickDigest uint64 = 0x4f347ad62e3951c0

// goldenTickRun drives a fixed mixed tick sequence: day-moving ticks,
// same-day ticks (corpus-wide and restricted) and per-source polls at a
// churn high enough that polls open discussions, with every delta folded
// into one spanning delta. polled counts the discussions the polls opened.
func goldenTickRun() (w *World, merged *Delta, polled int) {
	w = Generate(Config{Seed: 1601, NumSources: 40, NumUsers: 120, CommentText: true,
		SyndicationRate: 0.1, ChurnScale: 12})
	fold := func(nw *World, d *Delta) {
		w = nw
		if merged == nil {
			merged = d.Clone()
		} else {
			merged.Merge(d)
		}
	}
	cur := NewIDCursor(w)
	for day := 0; day < 4; day++ {
		fold(Advance(w, 1+day%2, int64(1700+day)))
		fold(AdvanceSameDay(w, int64(1800+day), nil))
		fold(AdvanceSameDay(w, int64(1850+day), []int{day, 7 + day}))
		for p := 0; p < 6; p++ {
			nw, d := AdvanceSource(w, (day*11+p*5)%len(w.Sources), int64(1900+day*10+p), cur)
			polled += len(d.Discussions)
			fold(nw, d)
		}
	}
	return w, merged, polled
}

func digestInt(h hash.Hash64, vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

func digestDiscussion(h hash.Hash64, d *Discussion) {
	open := int64(0)
	if d.Open {
		open = 1
	}
	digestInt(h, int64(d.ID), int64(d.SourceID), int64(d.OpenerID), d.Opened.UnixNano(), open,
		int64(len(d.Comments)))
	h.Write([]byte(d.Title + "\x00" + d.Category + "\x00"))
	for _, c := range d.Comments {
		digestComment(h, c)
	}
}

func digestComment(h hash.Hash64, c *Comment) {
	synd := int64(0)
	if c.Syndicated {
		synd = 1
	}
	digestInt(h, int64(c.ID), int64(c.UserID), c.Posted.UnixNano(), int64(c.Polarity),
		int64(c.Replies), int64(c.Feedbacks), int64(c.Reads), synd, int64(c.SyndicatedFrom))
	h.Write([]byte(c.Body + "\x00"))
}

// TestGoldenTickDigest pins every discussion and comment of the ticked
// world — IDs, timestamps, authors, counters, bodies — plus
// MaxOpenDiscussions, the ID frontier and the merged delta's contents.
func TestGoldenTickDigest(t *testing.T) {
	w, merged, polled := goldenTickRun()
	h := fnv.New64a()
	digestInt(h, int64(len(w.Sources)), int64(w.MaxOpenDiscussions), w.Config.End.UnixNano(),
		int64(w.ids.NextDiscussionID), int64(w.ids.NextCommentID))
	for _, s := range w.Sources {
		digestInt(h, int64(s.ID), int64(len(s.Discussions)))
		for _, d := range s.Discussions {
			digestDiscussion(h, d)
		}
	}
	digestInt(h, int64(merged.Days), merged.OldEnd.UnixNano(), merged.NewEnd.UnixNano())
	merged.ForEachNewDiscussion(func(sourceID int, d *Discussion) {
		digestInt(h, int64(sourceID), int64(d.ID))
	})
	merged.ForEachNewComment(func(sourceID int, d *Discussion, c *Comment) {
		digestInt(h, int64(sourceID), int64(d.ID), int64(c.ID))
	})
	for _, id := range merged.DirtySourceIDs() {
		digestInt(h, int64(id))
	}
	for _, id := range merged.DirtyContributorIDs() {
		digestInt(h, int64(id))
	}
	if polled == 0 {
		t.Fatal("no poll of the golden run opened a discussion; raise its churn")
	}
	if got := h.Sum64(); got != goldenTickDigest {
		t.Fatalf("tick digest = %#x, want %#x: the tick's draws or output changed", got, goldenTickDigest)
	}
}
