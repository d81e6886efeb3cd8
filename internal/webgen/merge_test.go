package webgen

import (
	"math/rand"
	"testing"
)

// worldCommentIDs collects every comment ID in the world.
func worldCommentIDs(w *World) map[int]bool {
	ids := map[int]bool{}
	for _, s := range w.Sources {
		for _, d := range s.Discussions {
			for _, c := range d.Comments {
				ids[c.ID] = true
			}
		}
	}
	return ids
}

func TestAdvanceSourceTouchesOnlyTarget(t *testing.T) {
	w := Generate(Config{Seed: 81, NumSources: 40, NumUsers: 120})
	end := w.Config.End
	target := w.Sources[7].ID

	var nw *World
	var delta *Delta
	cur := NewIDCursor(w)
	for seed := int64(0); seed < 50; seed++ {
		nw, delta = AdvanceSource(w, target, 9000+seed, cur)
		if !delta.Empty() {
			break
		}
	}
	if delta.Empty() {
		t.Fatal("no seed in 50 produced activity for the target source")
	}
	if delta.EpochMoved() || !nw.Config.End.Equal(end) {
		t.Fatal("AdvanceSource must not move the epoch")
	}
	dirty := delta.DirtySourceIDs()
	if len(dirty) != 1 || dirty[0] != target {
		t.Fatalf("dirty sources = %v, want [%d]", dirty, target)
	}
	for i, s := range nw.Sources {
		if s.ID == target {
			if s == w.Sources[i] {
				t.Fatal("dirty source shares its struct with the input world")
			}
			continue
		}
		if s != w.Sources[i] {
			t.Fatalf("untouched source %d was copied", s.ID)
		}
	}
	// Invariants: unique IDs, ordered timestamps, MaxOpenDiscussions.
	comIDs := map[int]bool{}
	discIDs := map[int]bool{}
	maxOpen := 0
	for _, s := range nw.Sources {
		open := 0
		for _, d := range s.Discussions {
			if discIDs[d.ID] {
				t.Fatalf("duplicate discussion ID %d", d.ID)
			}
			discIDs[d.ID] = true
			if d.Open {
				open++
			}
			if d.Opened.After(end) {
				t.Errorf("discussion %d opened after the unchanged end", d.ID)
			}
			for _, c := range d.Comments {
				if comIDs[c.ID] {
					t.Fatalf("duplicate comment ID %d", c.ID)
				}
				comIDs[c.ID] = true
				if c.Posted.Before(d.Opened) || c.Posted.After(end) {
					t.Errorf("comment %d outside [opened, end]", c.ID)
				}
			}
		}
		if open > maxOpen {
			maxOpen = open
		}
	}
	if nw.MaxOpenDiscussions != maxOpen {
		t.Errorf("MaxOpenDiscussions = %d, want %d", nw.MaxOpenDiscussions, maxOpen)
	}
}

func TestAdvanceSourceUnknownIDIsNoop(t *testing.T) {
	w := Generate(Config{Seed: 82, NumSources: 5})
	nw, delta := AdvanceSource(w, 999, 1, nil)
	if nw != w {
		t.Fatal("unknown source must return the input world")
	}
	if !delta.Empty() || delta.EpochMoved() {
		t.Fatal("unknown source must produce an empty delta")
	}
}

// TestAdvanceSourceCursorMatchesScan pins that threading one IDCursor
// through a run of polls mints exactly the IDs a nil cursor would.
func TestAdvanceSourceCursorMatchesScan(t *testing.T) {
	a := Generate(Config{Seed: 83, NumSources: 20, NumUsers: 60})
	b := Generate(Config{Seed: 83, NumSources: 20, NumUsers: 60})
	cur := NewIDCursor(a)
	for i := 0; i < 8; i++ {
		id := a.Sources[(i*3)%len(a.Sources)].ID
		a, _ = AdvanceSource(a, id, int64(400+i), cur)
		b, _ = AdvanceSource(b, id, int64(400+i), nil)
	}
	aIDs, bIDs := worldCommentIDs(a), worldCommentIDs(b)
	if len(aIDs) != len(bIDs) {
		t.Fatalf("cursor run minted %d comment IDs, scan run %d", len(aIDs), len(bIDs))
	}
	for id := range aIDs {
		if !bIDs[id] {
			t.Fatalf("comment ID %d minted only with the cursor", id)
		}
	}
}

// scanIDFrontier is the reference ID frontier: one past the highest
// discussion and comment ID found by walking the whole world.
func scanIDFrontier(w *World) IDCursor {
	var cur IDCursor
	for _, s := range w.Sources {
		for _, d := range s.Discussions {
			if d.ID >= cur.NextDiscussionID {
				cur.NextDiscussionID = d.ID + 1
			}
			for _, c := range d.Comments {
				if c.ID >= cur.NextCommentID {
					cur.NextCommentID = c.ID + 1
				}
			}
		}
	}
	return cur
}

// TestIDFrontierMatchesScan pins the ID frontier each world carries: after
// Generate and after every kind of tick, NewIDCursor reads exactly what a
// full scan finds, a cursor threaded through AdvanceSource receives the
// same frontier even when other ticks intervened, and every minted ID
// stays unique.
func TestIDFrontierMatchesScan(t *testing.T) {
	w := Generate(Config{Seed: 98, NumSources: 30, NumUsers: 90, CommentText: true, SyndicationRate: 0.2})
	if got, want := *NewIDCursor(w), scanIDFrontier(w); got != want {
		t.Fatalf("generated world: frontier %+v, scan %+v", got, want)
	}
	cur := NewIDCursor(w)
	rng := rand.New(rand.NewSource(98))
	threaded := 0
	for i := 0; i < 40; i++ {
		var step string
		switch i % 5 {
		case 0:
			step = "Advance"
			w, _ = Advance(w, 1+rng.Intn(2), rng.Int63())
		case 1:
			step = "AdvanceSameDay(nil)"
			w, _ = AdvanceSameDay(w, rng.Int63(), nil)
		case 2:
			step = "AdvanceSameDay(restricted)"
			w, _ = AdvanceSameDay(w, rng.Int63(), []int{w.Sources[rng.Intn(len(w.Sources))].ID})
		case 3:
			step = "AdvanceSource(nil)"
			w, _ = AdvanceSource(w, w.Sources[rng.Intn(len(w.Sources))].ID, rng.Int63(), nil)
		case 4:
			step = "AdvanceSource(cursor)"
			var d *Delta
			w, d = AdvanceSource(w, w.Sources[rng.Intn(len(w.Sources))].ID, rng.Int63(), cur)
			if !d.Empty() {
				threaded++
			}
			if want := scanIDFrontier(w); *cur != want {
				t.Fatalf("step %d %s: threaded cursor %+v, scan %+v", i, step, *cur, want)
			}
		}
		if got, want := *NewIDCursor(w), scanIDFrontier(w); got != want {
			t.Fatalf("step %d %s: frontier %+v, scan %+v", i, step, got, want)
		}
	}
	if threaded == 0 {
		t.Fatal("no threaded-cursor poll drew activity; the cursor path went unexercised")
	}
	discIDs, comIDs := map[int]bool{}, map[int]bool{}
	for _, s := range w.Sources {
		for _, d := range s.Discussions {
			if discIDs[d.ID] {
				t.Fatalf("duplicate discussion ID %d", d.ID)
			}
			discIDs[d.ID] = true
			for _, c := range d.Comments {
				if comIDs[c.ID] {
					t.Fatalf("duplicate comment ID %d", c.ID)
				}
				comIDs[c.ID] = true
			}
		}
	}
}

// TestMergeEpochFromEitherOperand is the satellite bugfix pin: a same-day
// delta folded into a day-moving one — in either order — must keep
// reporting the epoch movement, with the span's timeline composed.
func TestMergeEpochFromEitherOperand(t *testing.T) {
	w := Generate(Config{Seed: 84, NumSources: 30, NumUsers: 90})

	// Day-moving then same-day.
	w1, dMove := Advance(w, 3, 85)
	w2, dSame := AdvanceSameDay(w1, 86, nil)
	merged := dMove.Clone()
	merged.Merge(dSame)
	if !merged.EpochMoved() {
		t.Fatal("day-moving + same-day lost EpochMoved")
	}
	if merged.Days != 3 || !merged.OldEnd.Equal(w.Config.End) || !merged.NewEnd.Equal(w2.Config.End) {
		t.Fatalf("merged span = %d days %v..%v", merged.Days, merged.OldEnd, merged.NewEnd)
	}

	// Same-day then day-moving.
	w1b, dSameFirst := AdvanceSameDay(w, 87, nil)
	w2b, dMoveSecond := Advance(w1b, 2, 88)
	merged2 := dSameFirst.Clone()
	merged2.Merge(dMoveSecond)
	if !merged2.EpochMoved() {
		t.Fatal("same-day + day-moving lost EpochMoved")
	}
	if merged2.Days != 2 || !merged2.OldEnd.Equal(w.Config.End) || !merged2.NewEnd.Equal(w2b.Config.End) {
		t.Fatalf("merged span = %d days %v..%v", merged2.Days, merged2.OldEnd, merged2.NewEnd)
	}

	// Same-day + same-day stays unmoved.
	w1c, dA := AdvanceSameDay(w, 89, nil)
	_, dB := AdvanceSameDay(w1c, 90, nil)
	merged3 := dA.Clone()
	merged3.Merge(dB)
	if merged3.EpochMoved() {
		t.Fatal("two same-day deltas must not report EpochMoved")
	}
}

func TestMergeCloneIndependence(t *testing.T) {
	w := Generate(Config{Seed: 91, NumSources: 20, NumUsers: 60})
	w1, d1 := Advance(w, 2, 92)
	_, d2 := AdvanceSameDay(w1, 93, nil)

	beforeDirty := len(d1.DirtySourceIDs())
	beforeComments := d1.NewCommentCount()
	beforeDiscs := len(d1.Discussions)
	merged := d1.Clone()
	merged.Merge(d2)
	if len(d1.DirtySourceIDs()) != beforeDirty || d1.NewCommentCount() != beforeComments ||
		len(d1.Discussions) != beforeDiscs || d1.EpochMoved() != true {
		t.Fatal("Merge through a clone mutated the original delta")
	}
	if merged.NewCommentCount() != beforeComments+d2.NewCommentCount() {
		t.Fatalf("merged comments = %d, want %d", merged.NewCommentCount(), beforeComments+d2.NewCommentCount())
	}
}

func TestMergeNonAdjacentPanics(t *testing.T) {
	w := Generate(Config{Seed: 94, NumSources: 10})
	w1, d1 := Advance(w, 2, 95)
	w2, _ := Advance(w1, 2, 96)
	_, d3 := Advance(w2, 2, 97)
	defer func() {
		if recover() == nil {
			t.Fatal("merging non-adjacent deltas must panic")
		}
	}()
	d1.Merge(d3) // skips the w1->w2 tick
}

// TestMergeMatchesReplay is the randomized merge-vs-replay equivalence
// suite: fold a random run of day-moving, same-day and per-source ticks
// into one spanning delta and cross-check every consumer-visible facet —
// dirty sets, timeline, per-comment/per-discussion visits — against both
// the per-tick replay and a brute-force diff of the two worlds. This is
// the proof obligation behind the ingest accumulator: consumers applying
// the merged delta must see exactly what N sequential applications saw.
func TestMergeMatchesReplay(t *testing.T) {
	for run := 0; run < 12; run++ {
		rng := rand.New(rand.NewSource(int64(1000 + run*17)))
		w0 := Generate(Config{
			Seed:       int64(500 + run),
			NumSources: 25 + rng.Intn(20),
			NumUsers:   80 + rng.Intn(60),
		})
		w := w0
		cur := NewIDCursor(w)

		var merged *Delta
		var deltas []*Delta
		nTicks := 3 + rng.Intn(5)
		for i := 0; i < nTicks; i++ {
			var d *Delta
			switch rng.Intn(4) {
			case 0: // day-moving tick
				w, d = Advance(w, 1+rng.Intn(3), rng.Int63())
			case 1: // same-day world-wide tick
				w, d = AdvanceSameDay(w, rng.Int63(), nil)
			default: // per-source polls, biased hot; the cursor is never re-synced
				id := w.Sources[rng.Intn(1+len(w.Sources)/4)].ID
				w, d = AdvanceSource(w, id, rng.Int63(), cur)
			}
			deltas = append(deltas, d)
			if merged == nil {
				merged = d.Clone()
			} else {
				merged.Merge(d)
			}
		}

		// Timeline composition.
		wantDays, wantMoved := 0, false
		for _, d := range deltas {
			wantDays += d.Days
			wantMoved = wantMoved || d.EpochMoved()
		}
		if merged.Days != wantDays || merged.EpochMoved() != wantMoved {
			t.Fatalf("run %d: merged span %d days moved=%v, want %d/%v",
				run, merged.Days, merged.EpochMoved(), wantDays, wantMoved)
		}
		if !merged.OldEnd.Equal(w0.Config.End) || !merged.NewEnd.Equal(w.Config.End) {
			t.Fatalf("run %d: merged window %v..%v, want %v..%v",
				run, merged.OldEnd, merged.NewEnd, w0.Config.End, w.Config.End)
		}

		// Dirty sets are the union of the per-tick sets.
		wantDirty, wantUsers := map[int]bool{}, map[int]bool{}
		for _, d := range deltas {
			for _, id := range d.DirtySourceIDs() {
				wantDirty[id] = true
			}
			for _, id := range d.DirtyContributorIDs() {
				wantUsers[id] = true
			}
		}
		gotDirty := merged.DirtySourceIDs()
		if len(gotDirty) != len(wantDirty) {
			t.Fatalf("run %d: merged dirty sources = %d, want %d", run, len(gotDirty), len(wantDirty))
		}
		for _, id := range gotDirty {
			if !wantDirty[id] {
				t.Fatalf("run %d: source %d dirty in merge but in no tick", run, id)
			}
		}
		gotUsers := merged.DirtyContributorIDs()
		if len(gotUsers) != len(wantUsers) {
			t.Fatalf("run %d: merged dirty contributors = %d, want %d", run, len(gotUsers), len(wantUsers))
		}

		// Every comment of the span is visited exactly once (the
		// double-counting hazard: a later tick appending to a discussion an
		// earlier merged tick opened), and matches the brute-force world
		// diff.
		wantNew := map[int]bool{}
		for id := range worldCommentIDs(w) {
			wantNew[id] = true
		}
		for id := range worldCommentIDs(w0) {
			delete(wantNew, id)
		}
		seen := map[int]int{}
		merged.ForEachNewComment(func(sourceID int, disc *Discussion, c *Comment) {
			seen[c.ID]++
			if disc == nil || disc.SourceID != sourceID {
				t.Fatalf("run %d: comment %d carries a mismatched discussion", run, c.ID)
			}
		})
		if len(seen) != len(wantNew) {
			t.Fatalf("run %d: merged delta visits %d distinct comments, world diff has %d",
				run, len(seen), len(wantNew))
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("run %d: comment %d visited %d times (double-counted)", run, id, n)
			}
			if !wantNew[id] {
				t.Fatalf("run %d: comment %d visited but not new in the world diff", run, id)
			}
		}
		if merged.NewCommentCount() != len(wantNew) {
			t.Fatalf("run %d: NewCommentCount = %d, want %d", run, merged.NewCommentCount(), len(wantNew))
		}

		// Every discussion opened during the span is visited exactly once.
		wantDiscs := 0
		for _, d := range deltas {
			wantDiscs += len(d.Discussions)
		}
		seenDiscs := map[int]int{}
		merged.ForEachNewDiscussion(func(sourceID int, disc *Discussion) {
			seenDiscs[disc.ID]++
			if disc.SourceID != sourceID {
				t.Fatalf("run %d: discussion %d under wrong source %d", run, disc.ID, sourceID)
			}
		})
		if len(seenDiscs) != wantDiscs {
			t.Fatalf("run %d: merged delta visits %d discussions, ticks opened %d", run, len(seenDiscs), wantDiscs)
		}
		for id, n := range seenDiscs {
			if n != 1 {
				t.Fatalf("run %d: discussion %d visited %d times", run, id, n)
			}
		}
	}
}
