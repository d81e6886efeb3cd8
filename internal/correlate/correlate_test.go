package correlate

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/informing-observers/informer/internal/webgen"
)

func TestSimhashBasics(t *testing.T) {
	if Simhash("") != 0 {
		t.Error("empty text should hash to 0")
	}
	a := Simhash("the cathedral square fills with tourists every morning")
	if a == 0 {
		t.Fatal("non-empty text hashed to 0")
	}
	if b := Simhash("the cathedral square fills with tourists every morning"); b != a {
		t.Error("identical text must produce identical signatures")
	}
	// Case and punctuation do not change the token stream.
	if b := Simhash("The cathedral square fills, with tourists — every morning!"); b != a {
		t.Errorf("tokenization should ignore case and punctuation: %x vs %x", a, Simhash("The cathedral square fills, with tourists — every morning!"))
	}
	// A single-token lead keeps every original shingle and adds one: the
	// signatures stay within the story tier while a different text does
	// not.
	c := Simhash("rt: the cathedral square fills with tourists every morning")
	if h := hamming(a, c); h > StoryHamming {
		t.Errorf("prefixed copy at hamming %d, want <= %d", h, StoryHamming)
	}
	d := Simhash("flight delays cascade through the northern hub all winter")
	if h := hamming(a, d); h <= StoryHamming {
		t.Errorf("unrelated text at hamming %d, want > %d", h, StoryHamming)
	}
}

func TestBandsCoverSignature(t *testing.T) {
	sig := uint64(0xdeadbeefcafef00d)
	var rebuilt uint64
	for i := 0; i < numBands; i++ {
		rebuilt |= uint64(band(sig, i)) << (uint(i) * bandBits)
	}
	if rebuilt != sig {
		t.Fatalf("bands lose bits: %x != %x", rebuilt, sig)
	}
}

// syndicatedWorld generates a corpus with known cross-source copies.
func syndicatedWorld(seed int64, n int) *webgen.World {
	return webgen.Generate(webgen.Config{
		Seed: seed, NumSources: n, CommentText: true, SyndicationRate: 0.25,
	})
}

// TestVerbatimCopiesFlagged pins the guaranteed-recall tier: every
// comment whose body is an exact copy of an earlier comment on another
// source (hamming 0 <= DupHamming, pigeonhole-covered by the bands) must
// carry the duplicate verdict.
func TestVerbatimCopiesFlagged(t *testing.T) {
	w := syndicatedWorld(1201, 60)
	ix := NewIndex()
	ix.Build(w)

	type first struct {
		source int
		id     int
	}
	firstBody := map[string]first{}
	type com struct {
		id     int
		source int
		body   string
	}
	var all []com
	for _, s := range w.Sources {
		for _, d := range s.Discussions {
			for _, c := range d.Comments {
				all = append(all, com{c.ID, s.ID, c.Body})
			}
		}
	}
	// Ground truth in ID order: the index's "earlier" axis.
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].id < all[i].id {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	wantDups := 0
	for _, c := range all {
		if c.body == "" {
			continue
		}
		if f, ok := firstBody[c.body]; ok {
			if f.source != c.source {
				wantDups++
				if !ix.entries[c.id].dup {
					t.Errorf("comment %d (source %d) is a verbatim copy of earlier material on source %d but carries no dup verdict", c.id, c.source, f.source)
				}
			}
			continue
		}
		firstBody[c.body] = first{c.source, c.id}
	}
	if wantDups == 0 {
		t.Fatal("fixture produced no verbatim cross-source copies; raise SyndicationRate or the world size")
	}
	st := ix.Stats()
	if st.Duplicates < wantDups {
		t.Errorf("Stats().Duplicates = %d, want >= %d verbatim copies", st.Duplicates, wantDups)
	}
	if st.StoryClusters == 0 {
		t.Error("no story clusters over a syndicating corpus")
	}
}

// TestNearDuplicateRecallPinned pins the two tiers on a fixed seed:
// syndicated copies — half verbatim, half lead-prefixed paraphrases —
// are overwhelmingly caught, as a duplicate verdict (guaranteed within
// DupHamming by the multi-probe) or at least as story-cluster membership
// (the approximate story tier). This pins that the fixture's paraphrases
// actually land inside the tiers rather than silently drifting out.
func TestNearDuplicateRecallPinned(t *testing.T) {
	w := syndicatedWorld(1202, 60)
	ix := NewIndex()
	ix.Build(w)
	syndicated, dupFlagged, correlated := 0, 0, 0
	for _, s := range w.Sources {
		for _, d := range s.Discussions {
			for _, c := range d.Comments {
				if !c.Syndicated {
					continue
				}
				syndicated++
				if ix.entries[c.ID].dup {
					dupFlagged++
					correlated++
					continue
				}
				if ix.clusters[find(ix.storyParent, int32(c.ID))] != nil {
					correlated++
				}
			}
		}
	}
	if syndicated == 0 {
		t.Fatal("fixture produced no syndicated comments")
	}
	if ratio := float64(dupFlagged) / float64(syndicated); ratio < 0.6 {
		t.Errorf("dup tier caught %d/%d syndicated comments (%.0f%%), want >= 60%%", dupFlagged, syndicated, 100*ratio)
	}
	if ratio := float64(correlated) / float64(syndicated); ratio < 0.8 {
		t.Errorf("tiers caught %d/%d syndicated comments (%.0f%%), want >= 80%%", correlated, syndicated, 100*ratio)
	}
}

// cloneStories renders a StorySet as comparable data.
func cloneStories(ss *StorySet) []Story {
	out := make([]Story, 0, ss.Len())
	for _, st := range ss.All() {
		out = append(out, *st)
	}
	return out
}

// TestIncrementalFoldMatchesRebuild is the package-level equivalence
// core: folding each tick's delta into a live index yields bit-identical
// stories, stats and per-source counters to rebuilding from scratch on
// the ticked world.
func TestIncrementalFoldMatchesRebuild(t *testing.T) {
	w := syndicatedWorld(1203, 50)
	live := NewIndex()
	live.Build(w)

	for tick := 0; tick < 6; tick++ {
		var delta *webgen.Delta
		if tick%2 == 0 {
			w, delta = webgen.Advance(w, 1, int64(3000+tick))
		} else {
			w, delta = webgen.AdvanceSameDay(w, int64(3000+tick), nil)
		}
		live.Fold(w, delta)

		fresh := NewIndex()
		fresh.Build(w)

		if ls, fs := live.Stats(), fresh.Stats(); ls != fs {
			t.Fatalf("tick %d: stats diverge: fold %+v rebuild %+v", tick, ls, fs)
		}
		if ls, ss := live.Stats(), scanStats(live); ls != ss {
			t.Fatalf("tick %d: maintained stats %+v, a scan finds %+v", tick, ls, ss)
		}
		if !reflect.DeepEqual(cloneStories(live.Stories()), cloneStories(fresh.Stories())) {
			t.Fatalf("tick %d: story sets diverge", tick)
		}
		for _, s := range w.Sources {
			lc, ld := live.Counts(s.ID)
			fc, fd := fresh.Counts(s.ID)
			if lc != fc || ld != fd {
				t.Fatalf("tick %d: source %d counters diverge: fold (%d,%d) rebuild (%d,%d)", tick, s.ID, lc, ld, fc, fd)
			}
		}
	}
}

// scanStats derives Stats by walking every comment and both union-finds,
// the reference for the counters insert maintains.
func scanStats(ix *Index) Stats {
	var s Stats
	size := map[int32]int{}
	for i := range ix.entries {
		size[find(ix.storyParent, int32(i))]++
		if !ix.entries[i].indexed {
			continue
		}
		s.Indexed++
		if ix.entries[i].dup {
			s.Duplicates++
		}
		if find(ix.dupParent, int32(i)) == int32(i) {
			s.MicroClusters++
		}
	}
	for _, n := range size {
		if n >= 2 {
			s.StoryClusters++
		}
	}
	return s
}

// TestDoubleInsertPanics pins the double-insert guard on the comment it
// once missed: a text-less comment of source 0 leaves no signature and a
// zero source, so only an explicit inserted flag can tell its entry is
// occupied. Re-folding a delta of such comments must panic.
func TestDoubleInsertPanics(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 1207, NumSources: 8, ChurnScale: 12})
	ix := NewIndex()
	ix.Build(w)
	var d *webgen.Delta
	for seed := int64(1); d == nil || d.NewCommentCount() == 0; seed++ {
		if seed > 64 {
			t.Fatal("no poll of source 0 produced a comment")
		}
		w, d = webgen.AdvanceSource(w, 0, seed, nil)
	}
	ix.Fold(w, d)
	defer func() {
		if recover() == nil {
			t.Fatal("re-folding a delta of text-less source-0 comments did not panic")
		}
	}()
	ix.Fold(w, d)
}

// TestStorySetCOWSharing pins the copy-on-write contract: a story no
// tick touched rides into the next snapshot by pointer, and the previous
// snapshot is never mutated.
func TestStorySetCOWSharing(t *testing.T) {
	w := syndicatedWorld(1204, 50)
	ix := NewIndex()
	prev := ix.Build(w)
	prevClone := cloneStories(prev)

	w, delta := webgen.AdvanceSameDay(w, 4001, nil)
	next := ix.Fold(w, delta)
	if next == prev {
		t.Skip("tick touched no stories; sharing is trivially total")
	}
	if !reflect.DeepEqual(cloneStories(prev), prevClone) {
		t.Fatal("fold mutated the published previous StorySet")
	}
	shared := 0
	for _, st := range prev.All() {
		if cur, ok := next.Story(st.ID); ok && cur == st {
			shared++
		}
	}
	if prev.Len() > 4 && shared == 0 {
		t.Errorf("no stories shared by pointer across a sparse tick (%d before, %d after)", prev.Len(), next.Len())
	}
}

func TestStoryQueryPagination(t *testing.T) {
	w := syndicatedWorld(1205, 80)
	ix := NewIndex()
	ss := ix.Build(w)
	full := ss.Query(StoryQuery{Limit: ss.Len() + 1})
	if full.Total != len(full.Stories) {
		t.Fatalf("unbounded query: total %d != %d stories", full.Total, len(full.Stories))
	}
	if full.Total < 3 {
		t.Skipf("only %d stories; fixture too small to paginate", full.Total)
	}
	// Ordered: latest desc, ID asc.
	for i := 1; i < len(full.Stories); i++ {
		a, b := full.Stories[i-1], full.Stories[i]
		if a.Latest.Before(b.Latest) || (a.Latest.Equal(b.Latest) && a.ID >= b.ID) {
			t.Fatalf("listing out of order at %d: (%v,%d) then (%v,%d)", i, a.Latest, a.ID, b.Latest, b.ID)
		}
	}
	// A keyset walk in pages of 2 reassembles the full listing.
	var walked []*Story
	q := StoryQuery{Limit: 2}
	for {
		pg := ss.Query(q)
		if pg.Total != full.Total {
			t.Fatalf("page total %d != %d", pg.Total, full.Total)
		}
		walked = append(walked, pg.Stories...)
		if pg.Next == nil {
			break
		}
		q.After = pg.Next
	}
	if !reflect.DeepEqual(walked, full.Stories) {
		t.Fatalf("keyset walk reassembled %d stories, full listing has %d (or order diverges)", len(walked), len(full.Stories))
	}
	// MinSources filters.
	for _, st := range ss.Query(StoryQuery{Limit: 1000, MinSources: 3}).Stories {
		if len(st.Sources) < 3 {
			t.Errorf("story %d has %d sources under MinSources=3", st.ID, len(st.Sources))
		}
	}
	// Nil-safe.
	var nilSet *StorySet
	if pg := nilSet.Query(StoryQuery{}); pg.Total != 0 || len(pg.Stories) != 0 || pg.Next != nil {
		t.Error("nil StorySet should answer an empty page")
	}
}

// TestSyndicationRateZeroDrawsNothing pins the generator gate: with the
// rate off, worlds are byte-identical to pre-correlation streams (the
// gate must not consume randomness).
func TestSyndicationRateZeroDrawsNothing(t *testing.T) {
	a := webgen.Generate(webgen.Config{Seed: 7, NumSources: 30, CommentText: true})
	b := webgen.Generate(webgen.Config{Seed: 7, NumSources: 30, CommentText: true, SyndicationRate: 0})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SyndicationRate 0 changed the generated world")
	}
}

// TestMaterializeMergedRoots drives one fold through every case the
// touched-root list must resolve. Stories A (root 0), B (root 2) and D
// (root 6) exist, with C (root 4) beside them. The fold's first comment
// copies B verbatim, so B's root wins a union; its second sits in the
// duplicate tier of B and the story tier of A, so the batch merge
// bridges the two and B's root loses to A's. Its third sits in the
// duplicate tier of A and the story tier of D, so D's root loses to A's
// without having won. C is untouched.
func TestMaterializeMergedRoots(t *testing.T) {
	const (
		storyA = "the harbour ferry runs late again because the night crew walked off before the storm warning came"
		storyB = "the green ferry runs late again because the night crew walked bridge before the storm warning came"
		bridge = "the green ferry runs late again because the night crew walked off before the storm warning came"
		storyC = "local bakery wins the regional bread prize for the third year running with its rye sourdough loaf"
		storyD = "the night ferry runs late again because the night crew walked off before the long warning came"
		nearA  = "the harbour ferry runs late again because the night crew walked off before the long warning came"
	)
	bodies := []string{storyA, storyA, storyB, storyB, storyC, storyC, storyD, storyD, storyB, bridge, nearA}
	tiers := []struct {
		a, b   string
		lo, hi int
	}{
		{bridge, storyB, 0, DupHamming},
		{bridge, storyA, DupHamming + 1, StoryHamming},
		{nearA, storyA, 0, DupHamming},
		{nearA, storyD, DupHamming + 1, StoryHamming},
	}
	for _, d := range tiers {
		if h := hamming(Simhash(d.a), Simhash(d.b)); h < d.lo || h > d.hi {
			t.Fatalf("%q and %q: distance %d, want [%d, %d]", d.a, d.b, h, d.lo, d.hi)
		}
	}
	// Every other pair of distinct bodies stays outside the story tier.
	for i, a := range bodies {
		for _, b := range bodies[i+1:] {
			inTier := a == b
			for _, d := range tiers {
				inTier = inTier || a == d.a && b == d.b || a == d.b && b == d.a
			}
			if h := hamming(Simhash(a), Simhash(b)); !inTier && h <= StoryHamming {
				t.Fatalf("%q and %q: distance %d, want > %d", a, b, h, StoryHamming)
			}
		}
	}
	// Comment i sits on source srcs[i], in that source's one discussion.
	srcs := []int{0, 1, 2, 3, 6, 7, 8, 9, 4, 5, 10}
	w := &webgen.World{}
	for s := range srcs {
		w.Sources = append(w.Sources, &webgen.Source{ID: s,
			Discussions: []*webgen.Discussion{{ID: 100 + s, SourceID: s}}})
	}
	var coms []newComment
	for i, body := range bodies {
		posted := time.Unix(int64(1000+i), 0).UTC()
		d := w.Sources[srcs[i]].Discussions[0]
		d.Comments = append(d.Comments, &webgen.Comment{ID: i, Posted: posted, Body: body})
		coms = append(coms, newComment{id: int32(i), source: int32(srcs[i]), disc: int32(d.ID),
			posted: posted.UnixNano(), body: body})
	}

	ix := NewIndex()
	before := ix.fold(w, coms[:8])
	ids := func(ss *StorySet) (out []int) {
		for _, st := range ss.All() {
			out = append(out, st.ID)
		}
		return out
	}
	if got := ids(before); !reflect.DeepEqual(got, []int{6, 4, 2, 0}) {
		t.Fatalf("before the fold the listing is %v, want stories D, C, B, A = [6 4 2 0]", got)
	}
	a, _ := before.Story(0)
	c, _ := before.Story(4)
	after := ix.fold(w, coms[8:])

	if got := ids(after); !reflect.DeepEqual(got, []int{0, 4}) {
		t.Fatalf("after the fold the listing is %v, want the merged story and C = [0 4]", got)
	}
	merged, _ := after.Story(0)
	if merged == a {
		t.Error("the winning story rode into the next set unrendered")
	}
	// Every comment but C's two, on every source but C's.
	if want := []int{0, 1, 2, 3, 4, 5, 8, 9, 10}; merged.Size != 9 || !reflect.DeepEqual(merged.Sources, want) {
		t.Errorf("merged story has size %d and sources %v, want 9 and %v", merged.Size, merged.Sources, want)
	}
	if got, _ := after.Story(4); got != c {
		t.Error("the untouched story C was not shared by pointer")
	}

	rebuilt := slices.Clone(NewIndex().Build(w).All())
	sort.Slice(rebuilt, func(i, j int) bool { return storyBefore(rebuilt[i], rebuilt[j]) })
	if got, want := cloneStories(after), cloneStories(&StorySet{ordered: rebuilt}); !reflect.DeepEqual(got, want) {
		t.Errorf("fold listing %+v, a rebuild sorted by storyBefore lists %+v", got, want)
	}
}
