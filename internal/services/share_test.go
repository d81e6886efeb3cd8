package services

// Pins of the sharing invariant behind Env.Advance: successive
// environments share clean source and contributor records and the score
// slice by pointer, so deriving Env N+1 must never write a value Env N
// serves, and a round that holds the observation inputs copies no more
// records than it dirties.

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

// shareEnv builds the environment the sharing pins start from.
func shareEnv(shards int) *Env {
	w := webgen.Generate(webgen.Config{Seed: 71, NumSources: 48, NumUsers: 160})
	panel := analytics.Build(w, 171)
	return NewEnvOpts(w, panel, quality.DomainOfInterest{Categories: w.Categories}, &quality.AssessorOptions{Shards: shards})
}

// quietOpenerTick finds a per-source poll of w that opens a discussion
// whose opener wrote no comment in the tick: only the opener's
// DiscussionsOpened counter moves.
func quietOpenerTick(t *testing.T, w *webgen.World) (*webgen.World, *webgen.Delta) {
	t.Helper()
	for seed := int64(1); seed <= 500; seed++ {
		nw, delta := webgen.AdvanceSource(w, int(seed)%len(w.Sources), seed, nil)
		authors := map[int]bool{}
		delta.ForEachNewComment(func(_ int, _ *webgen.Discussion, c *webgen.Comment) { authors[c.UserID] = true })
		quiet := false
		delta.ForEachNewDiscussion(func(_ int, d *webgen.Discussion) { quiet = quiet || !authors[d.OpenerID] })
		if quiet {
			return nw, delta
		}
	}
	t.Fatal("no poll in 500 seeds opened a discussion whose opener wrote no comment")
	return nil, nil
}

// assertEnvValues fails unless env serves exactly want's source and
// contributor records and source scores. want is built from scratch, so
// it shares no record, map or slice with env: a deep value snapshot.
func assertEnvValues(t *testing.T, label string, env, want *Env) {
	t.Helper()
	if len(env.SourceRecords) != len(want.SourceRecords) || len(env.ContributorRecords) != len(want.ContributorRecords) {
		t.Fatalf("%s: %d/%d records, want %d/%d", label, len(env.SourceRecords), len(env.ContributorRecords), len(want.SourceRecords), len(want.ContributorRecords))
	}
	for i, r := range want.SourceRecords {
		if !reflect.DeepEqual(env.SourceRecords[i], r) {
			t.Fatalf("%s: source record %d differs:\n got  %+v\n want %+v", label, i, env.SourceRecords[i], r)
		}
		got, ok := env.SourceScore(r.ID)
		if w, _ := want.SourceScore(r.ID); !ok || math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: source %d scores %v, want %v", label, r.ID, got, w)
		}
	}
	for i, r := range want.ContributorRecords {
		if !reflect.DeepEqual(env.ContributorRecords[i], r) {
			t.Fatalf("%s: contributor record %d differs:\n got  %+v\n want %+v", label, i, env.ContributorRecords[i], r)
		}
	}
}

// rebuild is the from-scratch environment over env's world and panel.
func rebuild(env *Env, shards int) *Env {
	return NewEnvOpts(env.World, env.Panel, env.DI, &quality.AssessorOptions{Shards: shards})
}

// TestAdvanceLeavesPreviousEnvUntouched derives Env N+1 by a same-day
// round, by a poll whose new discussion's opener wrote no comment and by
// an epoch move, and checks after each that Env N still serves its own
// records and scores, value for value, and Env N+1 those of a rebuild.
// Writing the opener's counter into the record Env N shares, or skipping
// the copy of a clean record whose panel join moved, fails it.
func TestAdvanceLeavesPreviousEnvUntouched(t *testing.T) {
	for _, shards := range []int{1, 8} {
		env := shareEnv(shards)
		rounds := []struct {
			name string
			tick func(*webgen.World) (*webgen.World, *webgen.Delta)
		}{
			{"same-day", func(w *webgen.World) (*webgen.World, *webgen.Delta) {
				return webgen.AdvanceSameDay(w, 7101, []int{1, 2, 3, 40})
			}},
			{"quiet opener", func(w *webgen.World) (*webgen.World, *webgen.Delta) { return quietOpenerTick(t, w) }},
			{"epoch", func(w *webgen.World) (*webgen.World, *webgen.Delta) { return webgen.Advance(w, 1, 7102) }},
		}
		for _, r := range rounds {
			label := fmt.Sprintf("shards %d, %s", shards, r.name)
			snap := rebuild(env, shards)
			assertEnvValues(t, label+": before", env, snap)
			nw, delta := r.tick(env.World)
			if len(delta.DirtySourceIDs()) == 0 {
				t.Fatalf("%s: the tick dirtied no source", label)
			}
			ne := env.Advance(nw, env.Panel.Refresh(nw), delta)
			assertEnvValues(t, label+": previous env", env, snap)
			assertEnvValues(t, label+": successor", ne, rebuild(ne, shards))
			env = ne
		}
	}
}

// freshPointers counts the rows whose record pointer differs between two
// record slices.
func freshPointers[R any](prev, next []*R) int {
	n := 0
	for i := range next {
		if next[i] != prev[i] {
			n++
		}
	}
	return n
}

// TestAdvanceSharesCleanRecords pins what a round copies: a same-day
// round holds the panel and every observation input, so exactly its dirty
// rows get fresh records and the rest are shared by pointer; a
// content-free round shares every record and the score slice; an epoch
// move refreshes every record.
func TestAdvanceSharesCleanRecords(t *testing.T) {
	for _, shards := range []int{1, 8} {
		env := shareEnv(shards)

		nw, delta := webgen.AdvanceSameDay(env.World, 7201, []int{4, 5, 30})
		np := env.Panel.Refresh(nw)
		if np != env.Panel {
			t.Fatalf("shards %d: a same-day tick moved the panel", shards)
		}
		ne := env.Advance(nw, np, delta)
		ds, dc := delta.DirtySourceIDs(), delta.DirtyContributorIDs()
		if len(ds) == 0 || len(dc) == 0 {
			t.Fatalf("shards %d: the same-day tick dirtied %d sources and %d contributors", shards, len(ds), len(dc))
		}
		if got := freshPointers(env.SourceRecords, ne.SourceRecords); got != len(ds) {
			t.Errorf("shards %d: same-day round made %d fresh source records, want its %d dirty rows", shards, got, len(ds))
		}
		if got := freshPointers(env.ContributorRecords, ne.ContributorRecords); got != len(dc) {
			t.Errorf("shards %d: same-day round made %d fresh contributor records, want its %d dirty rows", shards, got, len(dc))
		}
		for _, id := range ds {
			if ne.SourceRecords[id] == env.SourceRecords[id] {
				t.Errorf("shards %d: dirty source %d shares its predecessor's record", shards, id)
			}
		}

		quiet, qdelta := webgen.AdvanceSameDay(ne.World, 7202, []int{})
		qe := ne.Advance(quiet, ne.Panel.Refresh(quiet), qdelta)
		if freshPointers(ne.SourceRecords, qe.SourceRecords) != 0 || freshPointers(ne.ContributorRecords, qe.ContributorRecords) != 0 {
			t.Errorf("shards %d: a content-free round copied records", shards)
		}
		if &qe.scores[0] != &ne.scores[0] {
			t.Errorf("shards %d: a content-free round copied the score slice", shards)
		}

		ew, edelta := webgen.Advance(qe.World, 1, 7203)
		ee := qe.Advance(ew, qe.Panel.Refresh(ew), edelta)
		if got := freshPointers(qe.SourceRecords, ee.SourceRecords); got != len(ee.SourceRecords) {
			t.Errorf("shards %d: epoch move refreshed %d of %d source records", shards, got, len(ee.SourceRecords))
		}
		if got := freshPointers(qe.ContributorRecords, ee.ContributorRecords); got != len(ee.ContributorRecords) {
			t.Errorf("shards %d: epoch move refreshed %d of %d contributor records", shards, got, len(ee.ContributorRecords))
		}
	}
}

// TestAdvanceConcurrentReadersOfPreviousEnv reads Env N's records and
// source scores on one goroutine while Env N+1, N+2, … are derived from it
// on another — every round kind, each sharing what it can with Env N.
// Under -race any write into a shared record or score slice is reported;
// without it, Env N must still serve its rebuild's values afterwards.
func TestAdvanceConcurrentReadersOfPreviousEnv(t *testing.T) {
	const shards = 8
	base := shareEnv(shards)
	snap := rebuild(base, shards)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sum float64
			for _, r := range base.SourceRecords {
				s, _ := base.SourceScore(r.ID)
				sum += s + r.Panel.NewDiscussionsPerDay + float64(r.OpenDiscussions()+r.DistinctCommenters()+r.TotalComments())
			}
			for _, c := range base.ContributorRecords {
				sum += float64(c.DiscussionsOpened+c.DiscussionsTouched+c.Interactions+c.TotalComments()) + c.AgeDays()
			}
			if math.IsInf(sum, 0) {
				t.Error("reader saw an infinite sum")
				return
			}
		}
	}()
	env := base
	for i := 0; i < 6; i++ {
		var (
			nw    *webgen.World
			delta *webgen.Delta
		)
		switch i % 3 {
		case 0:
			nw, delta = webgen.AdvanceSameDay(env.World, int64(7300+i), nil)
		case 1:
			nw, delta = webgen.AdvanceSource(env.World, i, int64(7300+i), nil)
		default:
			nw, delta = webgen.Advance(env.World, 1, int64(7300+i))
		}
		env = env.Advance(nw, env.Panel.Refresh(nw), delta)
	}
	close(stop)
	wg.Wait()
	assertEnvValues(t, "Env N after six derivations", base, snap)
}
