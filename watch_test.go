package informer

// Acceptance contracts of the watch delta and the per-snapshot query
// cache. The headline pin: across a realistic 1%-daily-churn tick over
// 2000 sources, the watch delta of a top-k window is exactly the set
// difference (plus rank movement) of the two snapshots' windows, computed
// here independently of DiffWindows' own bookkeeping.

import (
	"reflect"
	"testing"

	"github.com/informing-observers/informer/internal/webgen"
)

// TestWatchDeltaMatchesWindowSetDifference advances a 2000-source corpus
// by one ~1%-churn day and checks every claim the watch makes against set
// arithmetic over the two windows: entered = new minus old, left = old
// minus new, moved = intersection at different ranks, holds omitted, and
// the reported ranks are the true window positions.
func TestWatchDeltaMatchesWindowSetDifference(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 91, NumSources: 2000, ChurnScale: 0.27})
	c := FromWorld(world, DomainOfInterest{}, 91)

	q := NewQuery().TopK(50).ScoresOnly().Build()
	before, err := c.QuerySources(q)
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(1, 9191)
	delta := c.LastDelta()
	if delta == nil || len(delta.DirtySourceIDs()) == 0 {
		t.Fatal("the tick changed nothing; pick another seed")
	}
	churn := float64(len(delta.DirtySourceIDs())) / 2000
	if churn > 0.05 {
		t.Fatalf("churn %.3f is not the slow daily regime", churn)
	}
	after, err := c.QuerySources(q)
	if err != nil {
		t.Fatal(err)
	}

	changes := DiffWindows(before.Items, after.Items)

	oldRank := map[int]int{}
	for i, a := range before.Items {
		oldRank[a.ID] = i + 1
	}
	newRank := map[int]int{}
	for i, a := range after.Items {
		newRank[a.ID] = i + 1
	}
	got := map[int]WindowChange{}
	for _, ch := range changes {
		if _, dup := got[ch.ID]; dup {
			t.Fatalf("id %d reported twice", ch.ID)
		}
		got[ch.ID] = ch
	}
	for id, nr := range newRank {
		or := oldRank[id]
		ch, reported := got[id]
		switch {
		case or == 0: // entered = new minus old
			if !reported || ch.Event() != "entered" || ch.NewRank != nr || ch.OldRank != 0 {
				t.Fatalf("id %d entered at %d, reported %+v", id, nr, ch)
			}
		case or != nr: // moved = intersection at different ranks
			if !reported || ch.Event() != "moved" || ch.OldRank != or || ch.NewRank != nr {
				t.Fatalf("id %d moved %d->%d, reported %+v", id, or, nr, ch)
			}
		default: // held its rank: must be omitted
			if reported {
				t.Fatalf("id %d held rank %d but was reported %+v", id, nr, ch)
			}
		}
	}
	for id, or := range oldRank {
		if newRank[id] != 0 {
			continue
		}
		ch, reported := got[id] // left = old minus new
		if !reported || ch.Event() != "left" || ch.OldRank != or || ch.NewRank != 0 {
			t.Fatalf("id %d left from rank %d, reported %+v", id, or, ch)
		}
	}
	// Every reported change is accounted for by the set arithmetic above.
	for id := range got {
		if oldRank[id] == 0 && newRank[id] == 0 {
			t.Fatalf("id %d reported but in neither window", id)
		}
	}
}

// TestQueryCacheHitsWithinSnapshot pins the per-query result cache:
// identical queries during one assessment round share one result (map
// hit), different windows of one query share the underlying ranked spine,
// and an Advance invalidates the round atomically.
func TestQueryCacheHitsWithinSnapshot(t *testing.T) {
	c := New(Config{Seed: 187, NumSources: 40, NumUsers: 100})

	q := NewQuery().MinScore(0.4).TopK(10).Build()
	r1, err := c.QuerySources(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.QuerySources(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical queries within one round must share one cached result")
	}
	// Representation differences canonicalize onto the same entry.
	r3, err := c.QuerySources(Query{MinScore: 0.4, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r3 {
		t.Fatal("builder and literal spellings of one query must share the cache entry")
	}
	// Contributor results are cached independently.
	cq := NewQuery().TopK(5).Build()
	c1, err := c.QueryContributors(cq)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.QueryContributors(cq)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("contributor queries must cache too")
	}

	// Cached or not, results match a fresh uncached execution.
	st := c.state.Load()
	fresh, err := st.env.Sources.Query(st.env.SourceRecords, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Items) != len(r1.Items) || fresh.Total != r1.Total {
		t.Fatal("cached result diverges from direct execution")
	}
	for i := range fresh.Items {
		if fresh.Items[i].ID != r1.Items[i].ID || fresh.Items[i].Score != r1.Items[i].Score {
			t.Fatal("cached item diverges from direct execution")
		}
	}

	// A tick swaps the snapshot and with it the whole cache.
	c.Advance(10, 1870)
	r4, err := c.QuerySources(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r4 {
		t.Fatal("a new assessment round must not serve the previous round's cache")
	}
}

// TestQueryCacheErrorQueries pins that invalid queries keep erroring
// through the cache path (and never poison it for valid ones).
func TestQueryCacheErrorQueries(t *testing.T) {
	c := New(Config{Seed: 189, NumSources: 20, NumUsers: 60})
	bad := Query{MinMeasure: map[string]float64{"no.such.measure": 0.5}}
	if _, err := c.QuerySources(bad); err == nil {
		t.Fatal("unknown measure must error through the cache")
	}
	if _, err := c.QuerySources(bad); err == nil {
		t.Fatal("cached error must stay an error")
	}
	if _, err := c.QuerySources(Query{Offset: 1, After: &Cursor{}}); err == nil {
		t.Fatal("cursor+offset must error through the cache")
	}
	if _, err := c.QuerySources(NewQuery().TopK(3).Build()); err != nil {
		t.Fatalf("valid query after errors: %v", err)
	}
	if _, err := c.QueryContributors(NewQuery().Kinds("blog").Build()); err == nil {
		t.Fatal("kinds on contributors must error through the cache")
	}
}

// TestQueryCacheCursorWalkAcrossFacade pins an in-process cursor walk
// through the cached facade path against the one-shot ranking — the same
// contract the HTTP layer relies on, minus the wire.
func TestQueryCacheCursorWalkAcrossFacade(t *testing.T) {
	c := New(Config{Seed: 191, NumSources: 60, NumUsers: 120})
	full, err := c.QuerySources(NewQuery().MinScore(0.3).Build())
	if err != nil {
		t.Fatal(err)
	}
	var walked []*Assessment
	var cur *Cursor
	for {
		res, err := c.QuerySources(NewQuery().MinScore(0.3).Limit(9).Resume(cur).Build())
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, res.Items...)
		if res.Total != full.Total {
			t.Fatalf("total drifted mid-walk: %d then %d", full.Total, res.Total)
		}
		if res.Next == nil {
			break
		}
		cur = res.Next
	}
	if len(walked) != len(full.Items) {
		t.Fatalf("cursor walk returned %d of %d rows", len(walked), len(full.Items))
	}
	for i := range walked {
		if walked[i].ID != full.Items[i].ID || walked[i].Score != full.Items[i].Score {
			t.Fatalf("cursor walk diverges at %d", i)
		}
	}
}

// TestCursorWalkLargeCorpusEquivalence is the PR's acceptance pin at full
// scale: over 2000 sources, a chained-cursor walk is bit-identical to the
// deprecated offset walk and to filter+slice of the full Rank output.
func TestCursorWalkLargeCorpusEquivalence(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 23, NumSources: 2000})
	c := FromWorld(world, DomainOfInterest{}, 23)

	// Reference: filter the materialized full ranking and keep the slice.
	var want []*Assessment
	for _, a := range allSources(t, c) {
		if a.Score >= 0.5 {
			want = append(want, a)
		}
	}
	if len(want) == 0 || len(want) == 2000 {
		t.Fatalf("predicate not selective: %d of 2000", len(want))
	}

	const limit = 73
	var offsetWalk []*Assessment
	for off := 0; ; off += limit {
		res, err := c.QuerySources(NewQuery().MinScore(0.5).Page(off, limit).Build())
		if err != nil {
			t.Fatal(err)
		}
		offsetWalk = append(offsetWalk, res.Items...)
		if len(res.Items) < limit {
			break
		}
	}
	var cursorWalk []*Assessment
	var cur *Cursor
	for {
		res, err := c.QuerySources(NewQuery().MinScore(0.5).Limit(limit).Resume(cur).Build())
		if err != nil {
			t.Fatal(err)
		}
		cursorWalk = append(cursorWalk, res.Items...)
		if res.Next == nil {
			break
		}
		cur = res.Next
	}

	if len(offsetWalk) != len(want) || len(cursorWalk) != len(want) {
		t.Fatalf("walk lengths: offset %d, cursor %d, want %d", len(offsetWalk), len(cursorWalk), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(offsetWalk[i], want[i]) {
			t.Fatalf("offset walk diverges from filter+slice of Rank at %d", i)
		}
		if !reflect.DeepEqual(cursorWalk[i], want[i]) {
			t.Fatalf("cursor walk diverges from filter+slice of Rank at %d", i)
		}
	}
}
