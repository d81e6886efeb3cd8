package main

import (
	"fmt"
	"math"

	"github.com/informing-observers/informer"
	"github.com/informing-observers/informer/internal/deliver"
	"github.com/informing-observers/informer/internal/subscribe"
)

// topPages are the first pages the correctness gate compares besides
// the standing windows.
var topPages = []string{"limit=50", "limit=50&sort=dim.time", "k=25&min_score=0.4"}

// checkFinal is the correctness gate, run after timing: the final world
// is rebuilt from scratch and every standing window, the top pages and
// (with comment text) the story listing must equal the incrementally
// maintained corpus bit for bit; every subscriber, the SSE stream and the
// webhook sink must end at the published round. Each comparison is one
// attempted operation; a mismatch is a failure.
func checkFinal(sp *spec, h *harness, t *tally) {
	c := h.c
	v := c.SnapshotVersion()
	re := informer.FromWorldSharded(c.World(), c.DI, sp.world.Seed, sp.shards)

	queries := append([]string(nil), topPages...)
	for _, st := range sp.subs {
		queries = append(queries, st.query)
	}
	for _, q := range []string{sp.sse, sp.webhook} {
		if q != "" {
			queries = append(queries, q)
		}
	}
	for _, raw := range queries {
		q, err := bindQuery(raw)
		if err != nil {
			t.fail("check", err.Error())
			continue
		}
		q = subscribe.StandingForm(q)
		got, err1 := c.QuerySources(q)
		want, err2 := re.QuerySources(q)
		t.check("check-window", firstErr(err1, err2, func() error { return sameResult(got, want) }, "sources?"+raw))
	}
	for _, raw := range []string{"limit=50", "k=20&sort=dim.authority"} {
		q, _ := bindQuery(raw)
		got, err1 := c.QueryContributors(q)
		want, err2 := re.QueryContributors(q)
		t.check("check-window", firstErr(err1, err2, func() error { return sameResult(got, want) }, "contributors?"+raw))
	}
	for _, s := range h.subs {
		q, _ := bindQuery(s.query)
		want, err := re.QuerySources(subscribe.StandingForm(q))
		t.check("check-subscriber", firstErr(err, nil, func() error {
			if s.version != v {
				return fmt.Errorf("subscriber ended at round %d, corpus at %d", s.version, v)
			}
			return sameItems(s.window, want.Items)
		}, "subscriber "+s.query))
	}
	if got, want := c.Stories(), re.Stories(); got != nil || want != nil {
		t.check("check-stories", sameStories(got, want))
	}
	if h.sse != nil {
		if last := h.sse.last(); last != v {
			t.fail("check-sse", fmt.Sprintf("stream ended at round %d, corpus at %d", last, v))
		} else {
			t.ok()
		}
	}
	if h.hook != nil {
		st, ok := c.Sinks().Get(h.sinkID)
		_, last, bad := h.hook.received()
		switch {
		case !ok || st.State != deliver.StateHealthy:
			t.fail("check-webhook", fmt.Sprintf("sink not healthy: %+v", st))
		case st.LastDelivered != v || last > v:
			t.fail("check-webhook", fmt.Sprintf("sink delivered round %d (receiver %d), corpus at %d", st.LastDelivered, last, v))
		case bad != "":
			t.fail("check-webhook", "receiver got a malformed envelope: "+bad)
		default:
			t.ok()
		}
	}
}

func firstErr(err1, err2 error, cmp func() error, what string) error {
	err := err1
	if err == nil {
		err = err2
	}
	if err == nil {
		err = cmp()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

func sameResult(got, want *informer.QueryResult) error {
	if got.Total != want.Total {
		return fmt.Errorf("total %d, rebuild %d", got.Total, want.Total)
	}
	return sameItems(got.Items, want.Items)
}

// sameItems compares two ranked windows: order, IDs and every score bit.
func sameItems(got, want []*informer.Assessment) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, rebuild %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.ID != b.ID || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			return fmt.Errorf("rank %d: id %d score %v, rebuild id %d score %v", i+1, a.ID, a.Score, b.ID, b.Score)
		}
		for d, x := range b.DimensionScores {
			if math.Float64bits(a.DimensionScores[d]) != math.Float64bits(x) {
				return fmt.Errorf("rank %d: id %d dimension %v differs from rebuild", i+1, a.ID, d)
			}
		}
	}
	return nil
}

// sameStories compares the story listings' first pages and totals.
func sameStories(got, want *informer.StorySet) error {
	if got == nil || want == nil {
		return fmt.Errorf("story set missing (corpus %v, rebuild %v)", got != nil, want != nil)
	}
	for _, min := range []int{2, 3} {
		a := got.Query(informer.StoryQuery{Limit: 50, MinSources: min})
		b := want.Query(informer.StoryQuery{Limit: 50, MinSources: min})
		if a.Total != b.Total || len(a.Stories) != len(b.Stories) {
			return fmt.Errorf("stories(min_sources=%d): total %d/%d rows, rebuild %d/%d", min, a.Total, len(a.Stories), b.Total, len(b.Stories))
		}
		for i := range a.Stories {
			x, y := a.Stories[i], b.Stories[i]
			if x.ID != y.ID || x.Size != y.Size || !x.Latest.Equal(y.Latest) || len(x.Sources) != len(y.Sources) {
				return fmt.Errorf("story %d: id %d size %d, rebuild id %d size %d", i, x.ID, x.Size, y.ID, y.Size)
			}
		}
	}
	return nil
}
