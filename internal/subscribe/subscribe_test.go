package subscribe

// Unit contracts of the subscription registry: canonical grouping, one
// evaluation per group per tick however many subscribers fan out of it,
// since-token continuity, slow-consumer resync semantics, the rotating
// change channel, and the pump (wake-driven and poll-driven). End-to-end
// behaviour over a real corpus — including HTTP transports — is pinned at
// the repo root and in internal/apiserve.

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/informing-observers/informer/internal/quality"
)

// stubSnap is a Snapshot with a fixed window; evals counts standing-query
// evaluations against it so tests can pin the one-evaluation-per-tick
// fan-out property.
type stubSnap struct {
	version int64
	items   []*quality.Assessment
	evals   atomic.Int64
	failQ   bool
}

func (s *stubSnap) Version() int64 { return s.version }

func (s *stubSnap) QuerySources(q quality.Query) (*quality.QueryResult, error) {
	s.evals.Add(1)
	if s.failQ {
		return nil, errors.New("transient evaluation failure")
	}
	return &quality.QueryResult{Items: s.items, Total: len(s.items)}, nil
}

func window(ids ...int) []*quality.Assessment {
	items := make([]*quality.Assessment, len(ids))
	for i, id := range ids {
		items[i] = &quality.Assessment{ID: id, Name: "src", Score: 1 - float64(i)*0.1}
	}
	return items
}

// swappableSource is a provider stub: a current snapshot plus the rotating
// change channel of the ChangeNotifier contract.
type swappableSource struct {
	mu  sync.Mutex
	cur Snapshot
	ch  chan struct{}
}

func newSource(cur Snapshot) *swappableSource {
	return &swappableSource{cur: cur, ch: make(chan struct{})}
}

func (p *swappableSource) snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

func (p *swappableSource) changed() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ch
}

func (p *swappableSource) swap(next Snapshot) {
	p.mu.Lock()
	old := p.ch
	p.cur, p.ch = next, make(chan struct{})
	p.mu.Unlock()
	close(old)
}

func TestSubscribeGroupsByCanonicalKey(t *testing.T) {
	src := newSource(&stubSnap{version: 1, items: window(1, 2, 3)})
	r := New(src.snapshot, Options{})
	defer r.Close()

	// Three spellings of one standing filter: set order, duplicates, and
	// the projection must all canonicalize onto one group.
	a, err := r.Subscribe(quality.Query{Categories: []string{"place", "pulse"}, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Subscribe(quality.Query{Categories: []string{"pulse", "place", "pulse"}, TopK: 10, Fields: quality.ProjectFull})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Subscribe(quality.Query{Categories: []string{"place"}, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	defer c.Close()
	st := r.Stats()
	if st.Groups != 2 || st.Subscribers != 3 {
		t.Fatalf("stats %+v, want 2 groups / 3 subscribers", st)
	}
	if a.Since() != 1 || b.Since() != 1 {
		t.Fatalf("baselines %d/%d, want 1", a.Since(), b.Since())
	}
	// Shared group: identical baseline window by reference.
	if len(a.Window()) == 0 || &a.Window()[0] != &b.Window()[0] {
		t.Fatal("same standing query must share one baseline window")
	}

	// Pagination positions are rejected; errors at evaluation surface too.
	if _, err := r.Subscribe(quality.Query{After: &quality.Cursor{}}); err == nil {
		t.Fatal("cursor must be rejected")
	}
}

func TestOneEvaluationPerTickFanOut(t *testing.T) {
	snap1 := &stubSnap{version: 1, items: window(1, 2, 3, 4)}
	src := newSource(snap1)
	r := New(src.snapshot, Options{})
	defer r.Close()

	const n = 50
	subs := make([]*Subscription, n)
	for i := range subs {
		s, err := r.Subscribe(quality.Query{TopK: 4})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
		defer s.Close()
	}
	if got := snap1.evals.Load(); got != 1 {
		t.Fatalf("%d baseline evaluations for %d subscribers, want 1", got, n)
	}

	snap2 := &stubSnap{version: 2, items: window(1, 3, 5, 2)}
	src.swap(snap2)
	r.Publish(snap2)
	if got := snap2.evals.Load(); got != 1 {
		t.Fatalf("%d evaluations for the tick with %d subscribers, want 1", got, n)
	}

	want := Event{Since: 1, Snapshot: 2, Changes: quality.DiffWindows(snap1.items, snap2.items), Snap: snap2}
	var first Event
	for i, s := range subs {
		select {
		case ev := <-s.Events():
			if ev.Since != want.Since || ev.Snapshot != want.Snapshot || !reflect.DeepEqual(ev.Changes, want.Changes) {
				t.Fatalf("subscriber %d event %+v, want %+v", i, ev, want)
			}
			if i == 0 {
				first = ev
			} else if len(ev.Changes) > 0 && &ev.Changes[0] != &first.Changes[0] {
				t.Fatal("the delta must be computed once and fanned out by reference")
			}
		default:
			t.Fatalf("subscriber %d received nothing", i)
		}
	}
	if st := r.Stats(); st.Ticks != 1 || st.Evaluations != 2 { // 1 baseline + 1 tick
		t.Fatalf("stats %+v, want 1 tick / 2 evaluations", st)
	}
}

func TestSinceTokenContinuity(t *testing.T) {
	src := newSource(&stubSnap{version: 1, items: window(1, 2)})
	r := New(src.snapshot, Options{})
	defer r.Close()
	s, err := r.Subscribe(quality.Query{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	windows := [][]*quality.Assessment{window(2, 1), window(2, 1), window(1, 3)}
	for i, wdw := range windows {
		next := &stubSnap{version: int64(i + 2), items: wdw}
		src.swap(next)
		r.Publish(next)
	}
	since := s.Since()
	for i := 0; i < len(windows); i++ {
		ev := <-s.Events()
		if ev.Since != since || ev.Snapshot != since+1 {
			t.Fatalf("event %d spans %d->%d, want %d->%d", i, ev.Since, ev.Snapshot, since, since+1)
		}
		since = ev.Snapshot
	}
	// The middle tick held the window: its event still arrived (advancing
	// the token) with an empty delta.
	// (Checked implicitly above: three events for three ticks.)

	// Stale and duplicate publishes are no-ops.
	r.Publish(&stubSnap{version: 2, items: window(9)})
	select {
	case ev := <-s.Events():
		t.Fatalf("stale publish delivered %+v", ev)
	default:
	}
}

func TestSlowConsumerOverflowResync(t *testing.T) {
	src := newSource(&stubSnap{version: 1, items: window(1, 2)})
	r := New(src.snapshot, Options{Buffer: 2})
	defer r.Close()

	slow, err := r.Subscribe(quality.Query{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := r.Subscribe(quality.Query{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	for v := int64(2); v <= 5; v++ {
		next := &stubSnap{version: v, items: window(int(v), 1)}
		src.swap(next)
		r.Publish(next)
		<-fast.Events() // the draining consumer never overflows
	}
	// The slow consumer buffered ticks 2 and 3, overflowed on 4 and was
	// dropped: buffered events stay readable, then the channel closes and
	// Err reports resync semantics.
	if ev := <-slow.Events(); ev.Snapshot != 2 {
		t.Fatalf("first buffered event %+v", ev)
	}
	if ev := <-slow.Events(); ev.Snapshot != 3 {
		t.Fatalf("second buffered event %+v", ev)
	}
	if _, ok := <-slow.Events(); ok {
		t.Fatal("overflowed subscription must close after its buffered events")
	}
	if !errors.Is(slow.Err(), ErrSlowConsumer) {
		t.Fatalf("Err = %v, want ErrSlowConsumer", slow.Err())
	}
	if fast.Err() != nil {
		t.Fatalf("draining subscriber Err = %v, want nil", fast.Err())
	}
	if st := r.Stats(); st.Overflows != 1 || st.Subscribers != 1 {
		t.Fatalf("stats %+v, want 1 overflow / 1 remaining subscriber", st)
	}
	slow.Close() // idempotent after a drop
}

// TestOverflowOfLastSubscriberRetiresGroup pins that dropping a group's
// only subscriber retires the group itself: a dropped subscription's
// Close is a no-op, so the overflow path must do the cleanup, or the
// registry would evaluate an orphaned standing query on every tick
// forever.
func TestOverflowOfLastSubscriberRetiresGroup(t *testing.T) {
	src := newSource(&stubSnap{version: 1, items: window(1, 2)})
	r := New(src.snapshot, Options{Buffer: 1})
	defer r.Close()
	only, err := r.Subscribe(quality.Query{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(2); v <= 3; v++ { // fills the 1-slot buffer, then drops
		next := &stubSnap{version: v, items: window(int(v), 1)}
		src.swap(next)
		r.Publish(next)
	}
	if !errors.Is(only.Err(), ErrSlowConsumer) {
		t.Fatalf("Err = %v, want ErrSlowConsumer", only.Err())
	}
	only.Close() // the post-drop no-op every transport performs
	if st := r.Stats(); st.Groups != 0 || st.Subscribers != 0 {
		t.Fatalf("stats %+v, want the orphaned group retired", st)
	}
	evalsBefore := r.Stats().Evaluations
	next := &stubSnap{version: 4, items: window(4, 1)}
	src.swap(next)
	r.Publish(next)
	if got := r.Stats().Evaluations; got != evalsBefore {
		t.Fatalf("orphaned group still evaluated after its last subscriber was dropped (%d -> %d)", evalsBefore, got)
	}
}

func TestEvaluationErrorKeepsBaseline(t *testing.T) {
	src := newSource(&stubSnap{version: 1, items: window(1, 2)})
	r := New(src.snapshot, Options{})
	defer r.Close()
	s, err := r.Subscribe(quality.Query{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	bad := &stubSnap{version: 2, items: window(2, 1), failQ: true}
	src.swap(bad)
	r.Publish(bad)
	select {
	case ev := <-s.Events():
		t.Fatalf("failed evaluation delivered %+v", ev)
	default:
	}
	// The next good round diffs across the gap: since spans 1 -> 3.
	good := &stubSnap{version: 3, items: window(2, 1)}
	src.swap(good)
	r.Publish(good)
	ev := <-s.Events()
	if ev.Since != 1 || ev.Snapshot != 3 || len(ev.Changes) == 0 {
		t.Fatalf("gap event %+v, want since 1 -> snapshot 3 with changes", ev)
	}
}

func TestPumpWakeDriven(t *testing.T) {
	src := newSource(&stubSnap{version: 1, items: window(1, 2)})
	r := New(src.snapshot, Options{Wake: src.changed})
	defer r.Close()
	s, err := r.Subscribe(quality.Query{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	src.swap(&stubSnap{version: 2, items: window(2, 1)})
	select {
	case ev := <-s.Events():
		if ev.Since != 1 || ev.Snapshot != 2 {
			t.Fatalf("pumped event %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wake-driven pump never published the swap")
	}
}

func TestPumpPollDriven(t *testing.T) {
	src := newSource(&stubSnap{version: 1, items: window(1, 2)})
	r := New(src.snapshot, Options{PollInterval: 5 * time.Millisecond})
	defer r.Close()
	s, err := r.Subscribe(quality.Query{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// No wake source: the swap is picked up by the registry-wide poll.
	src.mu.Lock()
	src.cur = &stubSnap{version: 2, items: window(2, 1)}
	src.mu.Unlock()
	select {
	case ev := <-s.Events():
		if ev.Snapshot != 2 {
			t.Fatalf("polled event %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("poll-driven pump never published the swap")
	}
}

func TestCloseUnblocksSubscribers(t *testing.T) {
	src := newSource(&stubSnap{version: 1, items: window(1)})
	r := New(src.snapshot, Options{})
	s, err := r.Subscribe(quality.Query{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, ok := <-s.Events(); ok {
		t.Fatal("close must close subscription channels")
	}
	if !errors.Is(s.Err(), ErrClosed) {
		t.Fatalf("Err = %v, want ErrClosed", s.Err())
	}
	if _, err := r.Subscribe(quality.Query{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
	r.Close() // idempotent
}

// TestConcurrentSubscribeUnsubscribeDuringPublish races subscriber churn
// against a publishing writer under -race: every event a subscription
// receives must chain contiguously from its own baseline.
func TestConcurrentSubscribeUnsubscribeDuringPublish(t *testing.T) {
	src := newSource(&stubSnap{version: 1, items: window(1, 2, 3)})
	r := New(src.snapshot, Options{})
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := quality.Query{TopK: 2 + g%3}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := r.Subscribe(q)
				if err != nil {
					t.Error(err)
					return
				}
				since := s.Since()
				for drained := 0; drained < 3; drained++ {
					select {
					case ev, ok := <-s.Events():
						if !ok {
							t.Error("unexpected close mid-drain")
							return
						}
						if ev.Since != since {
							t.Errorf("since chain broke: event %d->%d after %d", ev.Since, ev.Snapshot, since)
							return
						}
						since = ev.Snapshot
					case <-time.After(time.Millisecond):
					}
				}
				s.Close()
			}
		}(g)
	}
	for v := int64(2); v < 60; v++ {
		next := &stubSnap{version: v, items: window(int(v%5), int(v%3)+5, 1)}
		src.swap(next)
		r.Publish(next)
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
}

// TestFilterApply pins the per-subscription delta-filter semantics on
// crafted changes: entered-only, rank-jump and score-delta conditions,
// conjunction, entered/left rows always satisfying magnitude conditions,
// and the shared input slice staying untouched.
func TestFilterApply(t *testing.T) {
	old := []*quality.Assessment{
		{ID: 1, Name: "a", Score: 0.90},
		{ID: 2, Name: "b", Score: 0.80},
		{ID: 3, Name: "c", Score: 0.70},
		{ID: 4, Name: "d", Score: 0.60},
	}
	changes := []quality.WindowChange{
		{ID: 5, Name: "e", OldRank: 0, NewRank: 1, Score: 0.95},  // entered
		{ID: 1, Name: "a", OldRank: 1, NewRank: 2, Score: 0.905}, // moved 1, score delta 0.005
		{ID: 3, Name: "c", OldRank: 3, NewRank: 6, Score: 0.40},  // moved 3, score delta 0.30
		{ID: 4, Name: "d", OldRank: 4, NewRank: 0, Score: 0.60},  // left
	}
	ids := func(cs []quality.WindowChange) []int {
		out := make([]int, len(cs))
		for i, c := range cs {
			out[i] = c.ID
		}
		return out
	}

	if got := (Filter{}).Apply(changes, old); &got[0] != &changes[0] {
		t.Fatal("zero filter must return the shared slice as-is")
	}
	if got := ids((Filter{EnteredOnly: true}).Apply(changes, old)); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("entered-only kept %v, want [5]", got)
	}
	if got := ids((Filter{MinRankJump: 2}).Apply(changes, old)); !reflect.DeepEqual(got, []int{5, 3, 4}) {
		t.Fatalf("rank-jump>=2 kept %v, want [5 3 4] (entered/left always qualify)", got)
	}
	if got := ids((Filter{MinScoreDelta: 0.1}).Apply(changes, old)); !reflect.DeepEqual(got, []int{5, 3, 4}) {
		t.Fatalf("score-delta>=0.1 kept %v, want [5 3 4]", got)
	}
	if got := ids((Filter{EnteredOnly: true, MinRankJump: 2}).Apply(changes, old)); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("conjunction kept %v, want [5]", got)
	}
	if got := (Filter{MinRankJump: 100}).Apply(changes[1:3], old); len(got) != 0 {
		t.Fatalf("nothing qualifies, got %v", got)
	}
	// The shared slice was never mutated by any of the above.
	if changes[0].ID != 5 || changes[1].ID != 1 || changes[2].ID != 3 || changes[3].ID != 4 {
		t.Fatal("Apply mutated the shared changes slice")
	}
}

// TestSubscribeWithFilterSharedEvaluation: filtered and unfiltered
// subscribers of one standing query share one group and one evaluation
// per tick; two subscribers with the same filter share one filtered view
// by reference; an all-filtered-out tick still delivers an event (empty
// changes) advancing the since-token; every event carries the new window.
func TestSubscribeWithFilterSharedEvaluation(t *testing.T) {
	snap1 := &stubSnap{version: 1, items: window(1, 2, 3)}
	src := newSource(snap1)
	r := New(src.snapshot, Options{})
	defer r.Close()

	q := quality.Query{TopK: 3}
	plain, err := r.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	f := Filter{EnteredOnly: true}
	fa, err := r.SubscribeWith(q, f)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := r.SubscribeWith(q, f)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	defer fa.Close()
	defer fb.Close()
	if st := r.Stats(); st.Groups != 1 || st.Subscribers != 3 {
		t.Fatalf("stats %+v, want one shared group with 3 subscribers", st)
	}

	// Tick: 4 enters at the top, 3 leaves, 1 and 2 shift down.
	snap2 := &stubSnap{version: 2, items: window(4, 1, 2)}
	r.Publish(snap2)
	if snap2.evals.Load() != 1 {
		t.Fatalf("evaluations = %d, want 1 (filters must not re-evaluate)", snap2.evals.Load())
	}

	pe, fe1, fe2 := <-plain.Events(), <-fa.Events(), <-fb.Events()
	if len(pe.Changes) != 4 {
		t.Fatalf("unfiltered delta has %d changes, want 4", len(pe.Changes))
	}
	if len(fe1.Changes) != 1 || fe1.Changes[0].ID != 4 {
		t.Fatalf("filtered delta %v, want only the entered row 4", fe1.Changes)
	}
	if len(fe1.Changes) == 0 || len(fe2.Changes) == 0 || &fe1.Changes[0] != &fe2.Changes[0] {
		t.Fatal("identical filters must share one filtered view by reference")
	}
	if fe1.Since != 1 || fe1.Snapshot != 2 {
		t.Fatalf("filtered event tokens %d->%d, want 1->2", fe1.Since, fe1.Snapshot)
	}
	if len(pe.Window) != 3 || &pe.Window[0] != &fe1.Window[0] {
		t.Fatal("events must carry the shared new window by reference")
	}

	// Tick with movement that the filter passes nothing of: 1 and 2 swap.
	snap3 := &stubSnap{version: 3, items: window(4, 2, 1)}
	r.Publish(snap3)
	fe3 := <-fa.Events()
	if len(fe3.Changes) != 0 {
		t.Fatalf("filtered delta %v, want empty (nothing entered)", fe3.Changes)
	}
	if fe3.Since != 2 || fe3.Snapshot != 3 {
		t.Fatalf("empty filtered event must still advance the token: %d->%d", fe3.Since, fe3.Snapshot)
	}
}
