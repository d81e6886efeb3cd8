// Package subscribe is the standing-query subscription registry behind
// the watch and stream serving paths (DESIGN.md section 9): observers are
// *standing* consumers — they keep watching one quality-filtered window of
// the corpus as it advances — so the filter should be evaluated once at a
// shared placement point and its output propagated, not re-evaluated per
// consumer (the Filter-Placement argument; Lerman's social information
// filtering frames consumption the same way, as subscription to filtered
// update streams).
//
// A Registry multiplexes any number of subscribers onto a set of *groups*,
// one per distinct standing query (keyed by Query.CanonicalKey over the
// standing form — pagination stripped, projection normalized, so every
// spelling of one filter lands in one group). When a new assessment round
// is published, each group's query is evaluated exactly once — against the
// snapshot's own per-round query cache, so even multiple registries share
// the underlying ranking work — its DiffWindows delta is computed once,
// and the same Event value is fanned to every subscriber in the group over
// buffered channels. Per-tick evaluation cost is therefore a function of
// the number of *distinct* standing queries, never of the number of
// subscribers; BenchmarkWatchFanout pins this.
//
// Slow consumers get 410-equivalent semantics: a subscriber that cannot
// drain its buffer before the next fan-out is dropped — its channel is
// closed and Err reports ErrSlowConsumer — and must re-sync from a full
// read of the current round, exactly the recovery an HTTP client performs
// after 410 Gone.
//
// A registry is fed by its owner: the informer facade calls Publish from
// Advance, after the snapshot swap. Subscribe first syncs the registry to
// the owner's current round, read through the source New was given, so a
// subscription never attaches behind a round its caller has already
// observed; nothing else observes the owner.
//
//informer:bounded
package subscribe

import (
	"errors"
	"sync"

	"github.com/informing-observers/informer/internal/quality"
)

// Snapshot is one immutable assessment round as the registry consumes it:
// a monotonic version plus standing-query evaluation. The informer
// facade's snapshot adapter and apiserve's Snapshot both satisfy it.
type Snapshot interface {
	Version() int64
	QuerySources(q quality.Query) (*quality.QueryResult, error)
}

// Event is one tick's delta for a standing query, shared by every
// subscriber of the group: the window's rank movement between the Since
// and Snapshot rounds. Changes is computed once per group per tick and
// fanned out by reference — treat it as read-only; subscriptions carrying
// a delta Filter receive the filtered view (also computed once per
// distinct filter per group per tick and shared). An Event with no
// Changes still advances the since-token (the window did not move that
// tick, or the filter passed nothing). Window is the standing query's
// full ranked window at the Snapshot round, shared by reference — the
// push-delivery engine uses it to coalesce skipped deltas into one
// spanning delta and to cut fresh resync baselines. Snap is the round the
// delta ends at, so transports can retain it for later catch-up diffs.
type Event struct {
	Since    int64
	Snapshot int64
	Changes  []quality.WindowChange
	Window   []*quality.Assessment
	Snap     Snapshot
}

// Filter is a per-subscription delta filter, applied on the shared
// per-group changes at fan-out: subscribers not interested in a class of
// movement receive events with the uninteresting rows already removed —
// zero bytes of change payload when nothing qualifies — while the group
// still evaluates its query exactly once per tick. The zero Filter passes
// everything. Conditions compose conjunctively; rows that entered or left
// the window always satisfy the magnitude conditions (their jump is the
// whole window).
type Filter struct {
	// EnteredOnly keeps only rows that entered the window.
	EnteredOnly bool
	// MinRankJump keeps rows whose rank moved at least this many
	// positions (entered/left rows always qualify). Zero disables.
	MinRankJump int
	// MinScoreDelta keeps rows whose overall score moved at least this
	// much between the two rounds (entered/left rows always qualify).
	// Zero disables.
	MinScoreDelta float64
}

// Zero reports whether the filter passes every change.
func (f Filter) Zero() bool { return f == Filter{} }

// Apply filters one tick's changes. old is the group's window at the
// delta's Since round — the score baseline MinScoreDelta compares
// against. The shared input slice is never mutated; a filter that passes
// everything returns it as-is.
func (f Filter) Apply(changes []quality.WindowChange, old []*quality.Assessment) []quality.WindowChange {
	if f.Zero() || len(changes) == 0 {
		return changes
	}
	var oldScore map[int]float64
	if f.MinScoreDelta > 0 {
		oldScore = make(map[int]float64, len(old))
		for _, a := range old {
			oldScore[a.ID] = a.Score
		}
	}
	kept := changes[:0:0] // fresh backing array: the input is shared
	for _, c := range changes {
		entered := c.OldRank == 0
		left := c.NewRank == 0
		if f.EnteredOnly && !entered {
			continue
		}
		if f.MinRankJump > 0 && !entered && !left {
			jump := c.NewRank - c.OldRank
			if jump < 0 {
				jump = -jump
			}
			if jump < f.MinRankJump {
				continue
			}
		}
		if f.MinScoreDelta > 0 && !entered && !left {
			d := c.Score - oldScore[c.ID]
			if d < 0 {
				d = -d
			}
			if d < f.MinScoreDelta {
				continue
			}
		}
		kept = append(kept, c)
	}
	return kept
}

// Errors a Subscription's Err reports after its channel closes.
var (
	// ErrSlowConsumer means the subscriber overflowed its event buffer and
	// was dropped: its since-chain is broken and it must re-sync from a
	// full read of the current round (the in-process 410 Gone).
	ErrSlowConsumer = errors.New("subscribe: event buffer overflowed; re-sync from the current round")
	// ErrClosed means the registry itself was shut down.
	ErrClosed = errors.New("subscribe: registry closed")
)

// defaultBuffer is the per-subscription event channel capacity: enough for
// a consumer to fall a dozen ticks behind before resync semantics kick in.
const defaultBuffer = 16

// Options tunes a Registry.
type Options struct {
	// Buffer overrides the per-subscription channel capacity
	// (defaultBuffer when zero).
	Buffer int
}

// Stats is a registry's observability counters.
type Stats struct {
	// Ticks counts published rounds; Evaluations counts standing-query
	// evaluations (group baselines at subscribe plus one per group per
	// tick — independent of subscriber count); Overflows counts dropped
	// slow consumers.
	Ticks, Evaluations, Overflows int64
	// Groups and Subscribers size the registry right now.
	Groups, Subscribers int
}

// Registry multiplexes standing-query subscribers; see the package
// comment. The zero value is not usable — construct with New.
type Registry struct {
	source func() Snapshot
	opts   Options

	mu     sync.Mutex
	groups map[string]*group
	last   Snapshot // last published round (nil before the first)
	closed bool

	ticks, evals, overflows int64
}

// group is one distinct standing query and its current window: the shared
// placement point every subscriber of the query fans out of.
type group struct {
	q       quality.Query // standing form (see StandingForm)
	key     string
	window  []*quality.Assessment
	version int64
	subs    map[*Subscription]struct{}
}

// Subscription is one consumer's handle on a standing query: the baseline
// window at attach time plus the stream of per-tick deltas.
type Subscription struct {
	reg    *Registry
	grp    *group
	ch     chan Event
	filter Filter
	since  int64
	window []*quality.Assessment

	// closed and err are guarded by reg.mu.
	closed bool
	err    error
}

// New builds a registry over a snapshot source. source must return the
// owner's current round and be safe for concurrent use; every Subscribe
// syncs the registry to it first, so a subscription always attaches to
// the current round.
func New(source func() Snapshot, opts Options) *Registry {
	return &Registry{source: source, opts: opts, groups: map[string]*group{}}
}

// StandingForm normalizes a query to the form a subscription group is
// keyed and evaluated by: standing windows do not paginate (a cursor is
// stripped — Subscribe rejects one anyway) and the projection
// is folded to ProjectScores, because a window delta only ever reads ID,
// Name and Score. Every spelling of one filter therefore lands in one
// group, whatever fields= its transport asked for.
func StandingForm(q quality.Query) quality.Query {
	q.After = nil
	q.Fields = quality.ProjectScores
	return q
}

// Subscribe attaches a subscriber to q's group, creating the group — and
// evaluating its baseline window against the current round — if q is the
// first subscription of this standing query. The returned subscription's
// Since/Window are the round and window the delta stream starts from.
// Queries carrying a resume cursor (After) are rejected: bound standing
// windows with TopK or Limit.
func (r *Registry) Subscribe(q quality.Query) (*Subscription, error) {
	return r.SubscribeWith(q, Filter{})
}

// SubscribeWith is Subscribe with a per-subscription delta filter: the
// subscriber joins q's group — the filter is NOT part of the group key,
// so filtered and unfiltered subscribers of one standing query share one
// evaluation per tick — and receives each tick's changes with the
// filtered-out rows removed (computed once per distinct filter per group
// per tick). Empty filtered deltas still arrive, advancing the
// since-token.
func (r *Registry) SubscribeWith(q quality.Query, f Filter) (*Subscription, error) {
	if q.After != nil {
		return nil, errors.New("subscribe: standing windows do not paginate; bound them with TopK or Limit")
	}
	sq := StandingForm(q)
	key := sq.CanonicalKey()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	// Sync to the provider's current round first, so the subscription's
	// baseline can never trail a round the caller has already observed.
	r.publishLocked(r.source())
	if r.last == nil {
		return nil, errors.New("subscribe: no snapshot has been published")
	}
	g, ok := r.groups[key]
	if !ok {
		res, err := r.last.QuerySources(sq)
		if err != nil {
			return nil, err
		}
		r.evals++
		g = &group{q: sq, key: key, window: res.Items, version: r.last.Version(), subs: map[*Subscription]struct{}{}}
		r.groups[key] = g
	}
	buf := r.opts.Buffer
	if buf <= 0 {
		buf = defaultBuffer
	}
	s := &Subscription{reg: r, grp: g, ch: make(chan Event, buf), filter: f, since: g.version, window: g.window}
	g.subs[s] = struct{}{}
	return s, nil
}

// Publish feeds one round to the registry: if snap is newer than the last
// published round, every group's standing query is evaluated once against
// it, the window delta is computed once, and the same event is fanned to
// all of the group's subscribers. Older or equal rounds are no-ops, so
// Publish is idempotent per version, and a round Subscribe already synced
// to is not published twice.
func (r *Registry) Publish(snap Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publishLocked(snap)
}

func (r *Registry) publishLocked(snap Snapshot) {
	if snap == nil || r.closed {
		return
	}
	if r.last != nil && snap.Version() <= r.last.Version() {
		return
	}
	first := r.last == nil
	r.last = snap
	if first {
		return // baseline round: groups cannot predate it
	}
	r.ticks++
	for _, g := range r.groups {
		if g.version >= snap.Version() {
			continue
		}
		res, err := snap.QuerySources(g.q)
		if err != nil {
			// Standing queries are validated at Subscribe; an evaluation
			// error here is transient. Keep the group's baseline so the
			// next successful round diffs across the gap — subscribers
			// lose no movement, their since-token just spans two ticks.
			continue
		}
		r.evals++
		changes := quality.DiffWindows(g.window, res.Items)
		// One filtered view per distinct filter per tick, shared by every
		// subscriber carrying that filter (Filter is comparable).
		var filtered map[Filter][]quality.WindowChange
		for s := range g.subs {
			ch := changes
			if !s.filter.Zero() {
				fc, ok := filtered[s.filter]
				if !ok {
					fc = s.filter.Apply(changes, g.window)
					if filtered == nil {
						filtered = map[Filter][]quality.WindowChange{}
					}
					filtered[s.filter] = fc
				}
				ch = fc
			}
			ev := Event{Since: g.version, Snapshot: snap.Version(), Changes: ch, Window: res.Items, Snap: snap}
			select {
			case s.ch <- ev:
			default:
				// Slow consumer: drop it with resync semantics rather
				// than block the tick or grow the buffer without bound.
				r.overflows++
				delete(g.subs, s)
				s.closed = true
				s.err = ErrSlowConsumer
				close(s.ch)
			}
		}
		if len(g.subs) == 0 {
			// Every subscriber was dropped: retire the group now — the
			// dropped subscriptions' Close() is a no-op, so nobody else
			// will.
			delete(r.groups, g.key)
			continue
		}
		g.window, g.version = res.Items, snap.Version()
	}
}

// Stats reports the registry's counters; see Stats.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	subs := 0
	for _, g := range r.groups {
		subs += len(g.subs)
	}
	return Stats{Ticks: r.ticks, Evaluations: r.evals, Overflows: r.overflows, Groups: len(r.groups), Subscribers: subs}
}

// Close shuts the registry down: every subscription's channel is closed
// with ErrClosed, and further Subscribes fail.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for _, g := range r.groups {
		for s := range g.subs {
			s.closed = true
			s.err = ErrClosed
			close(s.ch)
		}
	}
	r.groups = map[string]*group{}
}

// Events is the subscription's delta stream: one Event per published round
// since the subscription attached (empty Changes when the window held).
// The channel closes when the subscription is dropped — check Err to tell
// a clean Close (nil) from resync semantics (ErrSlowConsumer, ErrClosed).
func (s *Subscription) Events() <-chan Event { return s.ch }

// Since is the round the subscription attached at: the delta stream's
// starting since-token. The first event's Since equals it.
func (s *Subscription) Since() int64 { return s.since }

// Window is the standing query's ranked window at the attach round — the
// baseline the first event's delta applies to. Shared and read-only.
func (s *Subscription) Window() []*quality.Assessment { return s.window }

// Err reports why the event channel closed: nil after Close,
// ErrSlowConsumer after a buffer overflow, ErrClosed after registry
// shutdown. Undefined while the channel is open.
func (s *Subscription) Err() error {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	return s.err
}

// Close detaches the subscription and closes its channel. Groups with no
// remaining subscribers are retired, so idle standing queries cost nothing
// at the next tick.
func (s *Subscription) Close() {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.grp.subs, s)
	close(s.ch)
	if len(s.grp.subs) == 0 {
		delete(r.groups, s.grp.key)
	}
}
