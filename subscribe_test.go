package informer

// Acceptance contracts of the facade's standing-query subscriptions
// (Corpus.Subscribe): shared one-evaluation-per-tick fan-out across
// subscriber counts and query spellings, subscriber churn racing Advance
// under -race, and slow-consumer resync semantics. The HTTP transports
// over the same registry are pinned by api_test.go, stream_equiv_test.go
// and internal/apiserve.

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestSubscribeSharedEvaluationPerTick pins the fan-out headline: 64
// subscribers of one canonical standing query (spelled three ways) share
// one group, one evaluation and one delta computation per Advance tick,
// and every subscriber receives the delta DiffWindows reports for the
// same two windows.
func TestSubscribeSharedEvaluationPerTick(t *testing.T) {
	c := New(Config{Seed: 193, NumSources: 60, NumUsers: 120})

	spellings := []Query{
		NewQuery().MinScore(0.4).TopK(10).Build(),
		NewQuery().MinScore(0.4).TopK(10).ScoresOnly().Build(), // projection is normalized away
		{MinScore: 0.4, TopK: 10},                              // literal spelling
	}
	win1, err := c.QuerySources(spellings[0])
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	subs := make([]*Subscription, n)
	for i := range subs {
		s, err := c.Subscribe(spellings[i%len(spellings)])
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		subs[i] = s
		if s.Since() != 1 {
			t.Fatalf("subscriber %d baseline %d, want 1", i, s.Since())
		}
	}
	st0 := c.subs.Stats()
	if st0.Groups != 1 || st0.Subscribers != n {
		t.Fatalf("stats %+v, want 1 group / %d subscribers", st0, n)
	}

	c.Advance(7, 1931)
	st1 := c.subs.Stats()
	if evals := st1.Evaluations - st0.Evaluations; evals != 1 {
		t.Fatalf("the tick cost %d standing-query evaluations for %d subscribers, want 1", evals, n)
	}

	win2, err := c.QuerySources(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	want := DiffWindows(win1.Items, win2.Items)
	for i, s := range subs {
		select {
		case ev := <-s.Events():
			if ev.Since != 1 || ev.Snapshot != 2 {
				t.Fatalf("subscriber %d event spans %d->%d, want 1->2", i, ev.Since, ev.Snapshot)
			}
			if !reflect.DeepEqual(ev.Changes, want) {
				t.Fatalf("subscriber %d delta diverges from DiffWindows:\n got  %+v\n want %+v", i, ev.Changes, want)
			}
		default:
			t.Fatalf("subscriber %d received no event for the tick", i)
		}
	}
}

// TestSubscribeBaselineWindowMatchesQuery pins that a subscription's
// baseline is exactly the standing query's current window.
func TestSubscribeBaselineWindowMatchesQuery(t *testing.T) {
	c := New(Config{Seed: 195, NumSources: 40, NumUsers: 100})
	q := NewQuery().MinScore(0.3).TopK(8).ScoresOnly().Build()
	win, err := c.QuerySources(q)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if len(sub.Window()) != len(win.Items) {
		t.Fatalf("baseline window %d rows, want %d", len(sub.Window()), len(win.Items))
	}
	for i := range win.Items {
		if sub.Window()[i].ID != win.Items[i].ID || sub.Window()[i].Score != win.Items[i].Score {
			t.Fatalf("baseline window diverges at %d", i)
		}
	}
	// A resume cursor is rejected at the facade too.
	if _, err := c.Subscribe(NewQuery().Resume(&Cursor{}).Build()); err == nil {
		t.Fatal("cursor subscription must be rejected")
	}
}

// TestSubscribeConcurrentChurnDuringAdvance races subscriber churn —
// Subscribe, drain, Close — against a ticking writer under -race: every
// event chains contiguously from the subscription's own baseline, and
// every delta is non-trivial to verify against the version pair it spans.
func TestSubscribeConcurrentChurnDuringAdvance(t *testing.T) {
	c := New(Config{Seed: 197, NumSources: 30, NumUsers: 80})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := NewQuery().TopK(5 + g%3).Build()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := c.Subscribe(q)
				if err != nil {
					t.Error(err)
					return
				}
				since := sub.Since()
				for drained := 0; drained < 2; drained++ {
					select {
					case ev, ok := <-sub.Events():
						if !ok {
							t.Error("subscription dropped under churn (buffer should absorb two ticks)")
							return
						}
						if ev.Since != since || ev.Snapshot != ev.Since+1 {
							t.Errorf("since chain broke: %d->%d after %d", ev.Since, ev.Snapshot, since)
							return
						}
						since = ev.Snapshot
					case <-time.After(2 * time.Millisecond):
					}
				}
				sub.Close()
			}
		}(g)
	}
	for i := 0; i < 12; i++ {
		c.Advance(2, int64(1970+i))
	}
	close(stop)
	wg.Wait()
}

// TestSubscribeSlowConsumerResync drives a subscriber into overflow by
// never draining it: after the buffer fills, the subscription is dropped
// with ErrSlowConsumer — the in-process 410 Gone — and the observer
// recovers with a fresh read plus a fresh subscription.
func TestSubscribeSlowConsumerResync(t *testing.T) {
	c := New(Config{Seed: 199, NumSources: 30, NumUsers: 80})
	q := NewQuery().TopK(10).Build()
	sub, err := c.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}

	// Tick until the undrained buffer overflows (capacity 16; every
	// effective tick delivers an event, empty delta or not).
	for i := 0; i < 40 && c.subs.Stats().Overflows == 0; i++ {
		c.Advance(2, int64(1990+i))
	}
	if got := c.subs.Stats().Overflows; got != 1 {
		t.Fatalf("overflows = %d after 40 ticks, want 1", got)
	}
	// The buffered prefix stays readable and chains from the baseline;
	// then the channel closes with resync semantics.
	since := sub.Since()
	drained := 0
	for ev := range sub.Events() {
		if ev.Since != since {
			t.Fatalf("buffered chain broke: %d->%d after %d", ev.Since, ev.Snapshot, since)
		}
		since = ev.Snapshot
		drained++
	}
	if drained == 0 {
		t.Fatal("buffered events were lost on overflow")
	}
	if !errors.Is(sub.Err(), ErrSlowConsumer) {
		t.Fatalf("Err = %v, want ErrSlowConsumer", sub.Err())
	}

	// Recovery: one full read of the current round plus a new
	// subscription — exactly the 410 recovery of the HTTP transports.
	if _, err := c.QuerySources(q); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Since() != c.SnapshotVersion() {
		t.Fatalf("fresh subscription baseline %d, want current %d", fresh.Since(), c.SnapshotVersion())
	}
	c.Advance(2, 2099)
	select {
	case ev := <-fresh.Events():
		if ev.Since != fresh.Since() {
			t.Fatalf("recovered chain starts at %d, want %d", ev.Since, fresh.Since())
		}
	default:
		t.Fatal("recovered subscription received nothing")
	}
}
