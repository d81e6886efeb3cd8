package webgen

import "testing"

func TestAdvanceGrowsWorld(t *testing.T) {
	w := Generate(Config{Seed: 61, NumSources: 60, NumUsers: 150})
	beforeDisc, beforeCom := 0, 0
	for _, s := range w.Sources {
		beforeDisc += len(s.Discussions)
		beforeCom += s.CommentCount()
	}
	oldEnd := w.Config.End

	nw, delta := Advance(w, 30, 991)

	if !nw.Config.End.Equal(oldEnd.AddDate(0, 0, 30)) {
		t.Fatalf("end = %v", nw.Config.End)
	}
	afterDisc, afterCom := 0, 0
	for _, s := range nw.Sources {
		afterDisc += len(s.Discussions)
		afterCom += s.CommentCount()
	}
	if afterDisc <= beforeDisc {
		t.Errorf("no new discussions: %d -> %d", beforeDisc, afterDisc)
	}
	if afterCom <= beforeCom {
		t.Errorf("no new comments: %d -> %d", beforeCom, afterCom)
	}
	if got := len(delta.Discussions); got != afterDisc-beforeDisc {
		t.Errorf("delta discussions = %d, want %d", got, afterDisc-beforeDisc)
	}
	if got := delta.NewCommentCount(); got != afterCom-beforeCom {
		t.Errorf("delta comments = %d, want %d", got, afterCom-beforeCom)
	}
	if delta.Empty() {
		t.Error("a 30-day tick should not produce an empty delta")
	}
}

// TestAdvanceCopyOnWrite pins the concurrency substrate: the input world is
// never mutated, untouched sources and discussions are shared by pointer,
// and only sources in the delta's dirty set get fresh structs.
func TestAdvanceCopyOnWrite(t *testing.T) {
	w := Generate(Config{Seed: 66, NumSources: 50, NumUsers: 120})
	oldEnd := w.Config.End
	beforeDisc := make([]int, len(w.Sources))
	beforeCom := make([]int, len(w.Sources))
	for i, s := range w.Sources {
		beforeDisc[i] = len(s.Discussions)
		beforeCom[i] = s.CommentCount()
	}

	nw, delta := Advance(w, 15, 67)

	if nw == w {
		t.Fatal("Advance must return a new world for days > 0")
	}
	if !w.Config.End.Equal(oldEnd) {
		t.Fatal("input world's timeline was mutated")
	}
	dirty := map[int]bool{}
	for _, id := range delta.DirtySourceIDs() {
		dirty[id] = true
	}
	for i, s := range w.Sources {
		if len(s.Discussions) != beforeDisc[i] || s.CommentCount() != beforeCom[i] {
			t.Fatalf("input source %d was mutated", s.ID)
		}
		if dirty[s.ID] {
			if nw.Sources[i] == s {
				t.Fatalf("dirty source %d shares its struct with the input world", s.ID)
			}
			continue
		}
		if nw.Sources[i] != s {
			t.Fatalf("clean source %d was copied (ID in dirty set: %v)", s.ID, dirty[s.ID])
		}
	}
	if len(dirty) == 0 {
		t.Fatal("15-day tick dirtied no sources")
	}
	if len(dirty) == len(w.Sources) {
		t.Log("every source dirty; pointer-sharing branch unexercised at this seed")
	}
}

// TestAdvanceDeltaAccounting cross-checks the delta's dirty sets against a
// brute-force diff of the two worlds.
func TestAdvanceDeltaAccounting(t *testing.T) {
	w := Generate(Config{Seed: 68, NumSources: 40, NumUsers: 100})
	oldEnd := w.Config.End
	nw, delta := Advance(w, 20, 69)

	wantDirty := map[int]bool{}
	wantUsers := map[int]bool{}
	for i, s := range nw.Sources {
		for di, d := range s.Discussions {
			if di >= len(w.Sources[i].Discussions) { // newly opened
				wantDirty[s.ID] = true
				wantUsers[d.OpenerID] = true
			}
			for _, c := range d.Comments {
				if c.Posted.After(oldEnd) {
					wantDirty[s.ID] = true
					wantUsers[c.UserID] = true
				}
			}
		}
	}
	gotDirty := delta.DirtySourceIDs()
	if len(gotDirty) != len(wantDirty) {
		t.Fatalf("dirty sources = %d, want %d", len(gotDirty), len(wantDirty))
	}
	for _, id := range gotDirty {
		if !wantDirty[id] {
			t.Errorf("source %d marked dirty but unchanged", id)
		}
	}
	gotUsers := delta.DirtyContributorIDs()
	if len(gotUsers) != len(wantUsers) {
		t.Fatalf("dirty contributors = %d, want %d", len(gotUsers), len(wantUsers))
	}
	seen := 0
	delta.ForEachNewComment(func(sourceID int, disc *Discussion, c *Comment) {
		if c.Posted.Before(oldEnd) {
			t.Errorf("delta comment %d posted before the tick window", c.ID)
		}
		if disc == nil || disc.SourceID != sourceID {
			t.Errorf("delta comment %d carries a mismatched discussion", c.ID)
		}
		seen++
	})
	if seen != delta.NewCommentCount() {
		t.Errorf("ForEachNewComment visited %d, NewCommentCount = %d", seen, delta.NewCommentCount())
	}
}

func TestAdvanceDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 62, NumSources: 20})
	b := Generate(Config{Seed: 62, NumSources: 20})
	na, _ := Advance(a, 14, 7)
	nb, _ := Advance(b, 14, 7)
	for i := range na.Sources {
		if len(na.Sources[i].Discussions) != len(nb.Sources[i].Discussions) {
			t.Fatalf("source %d diverged", i)
		}
	}
}

func TestAdvanceKeepsInvariants(t *testing.T) {
	w := Generate(Config{Seed: 63, NumSources: 40, CommentText: true})
	w, _ = Advance(w, 20, 8)

	// Unique IDs across old and new content.
	discIDs := map[int]bool{}
	comIDs := map[int]bool{}
	maxOpen := 0
	for _, s := range w.Sources {
		open := 0
		for _, d := range s.Discussions {
			if discIDs[d.ID] {
				t.Fatalf("duplicate discussion ID %d", d.ID)
			}
			discIDs[d.ID] = true
			if d.Open {
				open++
			}
			if d.Opened.After(w.Config.End) {
				t.Errorf("discussion %d opened after new end", d.ID)
			}
			for _, c := range d.Comments {
				if comIDs[c.ID] {
					t.Fatalf("duplicate comment ID %d", c.ID)
				}
				comIDs[c.ID] = true
				if c.Posted.Before(d.Opened) || c.Posted.After(w.Config.End) {
					t.Errorf("comment %d outside [opened, end]", c.ID)
				}
			}
		}
		if open > maxOpen {
			maxOpen = open
		}
	}
	if w.MaxOpenDiscussions != maxOpen {
		t.Errorf("MaxOpenDiscussions = %d, want %d", w.MaxOpenDiscussions, maxOpen)
	}
}

func TestAdvanceNoopOnZeroDays(t *testing.T) {
	w := Generate(Config{Seed: 64, NumSources: 5})
	end := w.Config.End
	nw, delta := Advance(w, 0, 1)
	if nw != w {
		t.Fatal("Advance(0) must return the input world unchanged")
	}
	if !delta.Empty() || delta.EpochMoved() {
		t.Error("Advance(0) must produce an empty delta")
	}
	if !w.Config.End.Equal(end) {
		t.Error("Advance(0) must not move the timeline")
	}
}

func TestAdvanceChurnScale(t *testing.T) {
	base := Config{Seed: 71, NumSources: 120, NumUsers: 240}
	slow := base
	slow.ChurnScale = 0.05
	wFast := Generate(base)
	wSlow := Generate(slow)
	_, dFast := Advance(wFast, 5, 72)
	_, dSlow := Advance(wSlow, 5, 72)
	if len(dSlow.DirtySourceIDs()) >= len(dFast.DirtySourceIDs()) {
		t.Errorf("ChurnScale=0.05 should dirty fewer sources: %d vs %d",
			len(dSlow.DirtySourceIDs()), len(dFast.DirtySourceIDs()))
	}
}

func TestAdvanceGeneratesTextWhenConfigured(t *testing.T) {
	w := Generate(Config{Seed: 65, NumSources: 30, CommentText: true})
	oldEnd := w.Config.End
	w, _ = Advance(w, 30, 9)
	fresh := 0
	for _, s := range w.Sources {
		for _, d := range s.Discussions {
			for _, c := range d.Comments {
				if c.Posted.After(oldEnd) {
					fresh++
					if d.Category != "" && c.Body == "" {
						t.Error("fresh on-topic comment lacks body despite CommentText")
					}
				}
			}
		}
	}
	if fresh == 0 {
		t.Fatal("no fresh comments generated")
	}
}

// TestAdvanceSharesCleanDiscussions checks discussion-level copy-on-write:
// inside a dirty source, discussions that only existed before the tick and
// gained nothing are shared by pointer with the input world.
func TestAdvanceSharesCleanDiscussions(t *testing.T) {
	w := Generate(Config{Seed: 73, NumSources: 30})
	nw, delta := Advance(w, 10, 74)
	appended := map[*Discussion]bool{}
	for _, dc := range delta.Comments {
		appended[dc.Discussion] = true
	}
	shared, copied := 0, 0
	for i, s := range nw.Sources {
		old := w.Sources[i]
		if s == old {
			continue
		}
		for di, d := range s.Discussions {
			if di >= len(old.Discussions) {
				continue // newly opened
			}
			if d == old.Discussions[di] {
				shared++
			} else {
				copied++
				if !appended[d] {
					t.Errorf("discussion %d copied without gaining comments", d.ID)
				}
				if len(d.Comments) <= len(old.Discussions[di].Comments) {
					t.Errorf("copied discussion %d gained no comments", d.ID)
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no pre-existing discussion was pointer-shared inside dirty sources")
	}
	if copied == 0 {
		t.Skip("no discussion gained comments at this seed")
	}
}

// BenchmarkWorldTick measures one daily Advance on the daily-watch world
// (2000 sources at ~1% churn): the world-tick layer of a monitoring round
// on its own, without the record refresh and assessment that follow it.
func BenchmarkWorldTick(b *testing.B) {
	w := Generate(Config{Seed: 91, NumSources: 2000, ChurnScale: 0.27})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Advance(w, 1, int64(9100+i))
	}
}
