package informer

// Concurrency and evaluation-accounting tests for the sharded corpus.
//
// The race-covered half runs snapshot-pinned cursor walks, in-process
// standing-query subscribers and HTTP long-poll watchers concurrently
// with AdvanceSameDay ticks that dirty a single shard, every shard, and
// no shard at all: walks must see no duplicated or missing rows against
// their pinned snapshot's full ranking, and every subscriber delta must
// equal the DiffWindows set arithmetic over the windows the subscriber
// itself observed. The deterministic half pins the per-tick spine
// evaluation counts to the number of dirty shards: a content-free tick
// carries every shard's spine part, a single-dirty-shard tick (under a
// calibrated churn seed whose benchmarks hold) repairs exactly that
// shard and carries the rest, and an every-shard tick falls back to full
// scans. Run with -race in CI (the shard job covers this package).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/shard"
	"github.com/informing-observers/informer/internal/webgen"
)

// raceWorld builds the corpus the concurrency tests share: 80 sources on
// 4 shards, the same configuration the evaluation-count calibration below
// was probed under. The IDs returned are shard 2's.
func raceWorld(seed int64) (*Corpus, []int, shard.Plan) {
	c, p := raceWorldSharded(seed, 4)
	recs := c.SourceRecords()
	lo, hi := p.Bounds(2)
	ids := make([]int, 0, hi-lo)
	for _, r := range recs[lo:hi] {
		ids = append(ids, r.ID)
	}
	return c, ids, p
}

// raceWorldSharded is raceWorld's corpus on the given shard count.
func raceWorldSharded(seed int64, shards int) (*Corpus, shard.Plan) {
	world := webgen.Generate(webgen.Config{Seed: seed, NumSources: 80, NumUsers: 200, CommentText: true})
	c := FromWorldSharded(world, DomainOfInterest{}, seed, shards)
	return c, shard.NewPlan(len(c.SourceRecords()), shards)
}

// pinnedWalk pages through q with keyset cursors against one pinned
// snapshot and requires the concatenation to equal the snapshot's full
// ranking — no duplicated rows, no gaps — however many ticks land while
// the walk is in flight.
func pinnedWalk(t *testing.T, st *assessState, q Query, limit int) bool {
	full, err := st.env.Sources.Query(st.env.SourceRecords, q)
	if err != nil {
		t.Errorf("pinned full query: %v", err)
		return false
	}
	var items []*Assessment
	var cur *Cursor
	for steps := 0; ; steps++ {
		if steps > 200 {
			t.Error("pinned cursor walk did not terminate")
			return false
		}
		qq := q
		qq.Limit, qq.Offset, qq.After = limit, 0, cur
		res, err := st.env.Sources.Query(st.env.SourceRecords, qq)
		if err != nil {
			t.Errorf("pinned cursor page %d: %v", steps, err)
			return false
		}
		items = append(items, res.Items...)
		if res.Next == nil || len(res.Items) == 0 {
			break
		}
		cur = res.Next
	}
	if len(items) != len(full.Items) {
		t.Errorf("pinned walk: %d rows, snapshot ranking has %d (dup or gap)", len(items), len(full.Items))
		return false
	}
	for i := range items {
		if !reflect.DeepEqual(items[i], full.Items[i]) {
			t.Errorf("pinned walk row %d diverged from the snapshot ranking", i)
			return false
		}
	}
	return true
}

// TestShardedConcurrentWalksAndSubscribers is the -race satellite:
// concurrent paginated walks (each pinned to the snapshot it loaded),
// shared-group in-process subscribers and an HTTP /api/v1/watch long-poll
// observer all run while the corpus ticks through every dirty-shard
// shape — one shard's sources, all sources, and a content-free tick.
func TestShardedConcurrentWalksAndSubscribers(t *testing.T) {
	c, shard2IDs, _ := raceWorld(7011)
	const ticks = 12
	// Cycle the three dirty shapes: one shard, every shard, no shard.
	plans := make([][]int, ticks)
	for i := range plans {
		switch i % 3 {
		case 0:
			plans[i] = shard2IDs
		case 1:
			plans[i] = nil
		case 2:
			plans[i] = []int{}
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot-pinned cursor walkers, one query shape each.
	walkQueries := []Query{
		NewQuery().ScoresOnly().Build(),
		NewQuery().MinScore(0.2).SortByDimension(quality.Time).Build(),
		NewQuery().SortByAttribute(quality.Liveliness).TopK(30).Build(),
	}
	for w, q := range walkQueries {
		wg.Add(1)
		go func(w int, q Query) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !pinnedWalk(t, c.state.Load(), q, 1+w*3) {
					return
				}
			}
		}(w, q)
	}

	// Two subscribers of one standing query: they share a group, and each
	// independently recomputes every delta from the windows it observed.
	subQ := NewQuery().TopK(15).Build()
	var subs []*Subscription
	for s := 0; s < 2; s++ {
		sub, err := c.Subscribe(subQ)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		wg.Add(1)
		go func(s int, sub *Subscription) {
			defer wg.Done()
			prev := sub.Window()
			n := 0
			for ev := range sub.Events() {
				want := quality.DiffWindows(prev, ev.Window)
				if len(want) != 0 || len(ev.Changes) != 0 {
					if !reflect.DeepEqual(ev.Changes, want) {
						t.Errorf("subscriber %d tick %d: delta is not DiffWindows of the observed windows\n got  %+v\n want %+v", s, n, ev.Changes, want)
					}
				}
				prev = ev.Window
				n++
			}
			if err := sub.Err(); err != nil {
				t.Errorf("subscriber %d dropped: %v", s, err)
			}
			if n != ticks {
				t.Errorf("subscriber %d: %d events, want one per tick (%d)", s, n, ticks)
			}
		}(s, sub)
	}

	// An HTTP long-poll watcher on the same registry: chained since
	// tokens over /api/v1/watch must observe non-decreasing snapshots.
	srv := httptest.NewServer(c.APIHandler())
	defer srv.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		since := c.SnapshotVersion()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(fmt.Sprintf("%s/api/v1/watch?since=%d&wait=100ms&k=10", srv.URL, since))
			if err != nil {
				t.Errorf("watch poll: %v", err)
				return
			}
			var env struct {
				Since    int64 `json:"since"`
				Snapshot int64 `json:"snapshot"`
				Count    int   `json:"count"`
			}
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode == http.StatusGone {
				// The since round fell behind what the registry can diff
				// against: the documented recovery is a fresh read.
				since = c.SnapshotVersion()
				continue
			}
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Errorf("watch poll: status %d, decode err %v", resp.StatusCode, err)
				return
			}
			if env.Snapshot < since {
				t.Errorf("watch snapshot went backwards: %d after since=%d", env.Snapshot, since)
				return
			}
			since = env.Snapshot
		}
	}()

	for i := 0; i < ticks; i++ {
		c.AdvanceSameDay(int64(9300+i), plans[i])
	}
	close(stop)
	for _, sub := range subs {
		sub.Close()
	}
	wg.Wait()
}

// TestShardedTickEvaluationCounts pins per-tick spine evaluation work to
// the number of dirty shards, via the engine's SpineStats counters (which
// reset on every derived engine, so each read covers exactly one tick's
// standing-query rebuilds):
//
//   - a content-free tick (onlySources=[]) leaves every benchmark
//     bit-identical by construction, so all Q standing spines carry all 4
//     shard parts forward: Carries = Q*4, nothing scanned or repaired;
//   - a tick churning one source in shard 2 — under the calibrated seed
//     9008, whose churn moves no p10/p90 benchmark anchor — repairs
//     exactly that shard's part and carries the other three:
//     Repairs = Q, Carries = Q*3;
//   - a tick churning every source moves benchmark anchors, which forces
//     the bit-identity fallback: every shard of every spine is re-scanned,
//     Scans = Q*4, reading freshly built axis columns: the standing
//     queries rank by score and by the time dimension, so each shard
//     builds exactly those two columns once, Columns = 2*4, however many
//     spines read them. Carries and repairs build none.
//
// The same three ticks run on one shard, where the whole corpus is the
// one part: the content-free tick carries it (Carries = Q), the calibrated
// single-source tick repairs it (Repairs = Q), and the all-churn tick
// re-scans it (Scans = Q, Columns = 2).
//
// The registry side is pinned too: however the shards evaluate, one
// subscriber group costs exactly one standing-query evaluation per tick.
func TestShardedTickEvaluationCounts(t *testing.T) {
	const nq = 2 // standing queries evaluated per round
	for _, tc := range []struct {
		shards                              int
		contentFree, singleSource, allChurn quality.SpineStats
	}{
		{4, quality.SpineStats{Carries: nq * 4}, quality.SpineStats{Repairs: nq * 1, Carries: nq * 3}, quality.SpineStats{Scans: nq * 4, Columns: 2 * 4}},
		{1, quality.SpineStats{Carries: nq}, quality.SpineStats{Repairs: nq}, quality.SpineStats{Scans: nq, Columns: 2}},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			tickEvaluationCounts(t, tc.shards, tc.contentFree, tc.singleSource, tc.allChurn)
		})
	}
}

// tickEvaluationCounts runs TestShardedTickEvaluationCounts' three ticks
// on one shard count.
func tickEvaluationCounts(t *testing.T, shards int, contentFree, singleSource, allChurn quality.SpineStats) {
	// churnRow is the source the calibrated seed 9008 churns: row 7 of
	// shard 2 under the 4-shard plan.
	const churnRow = 80/4*2 + 7
	c, p := raceWorldSharded(7009, shards)
	recs := c.SourceRecords()
	rowOf := make(map[int]int, len(recs))
	for i, r := range recs {
		rowOf[r.ID] = i
	}

	queries := []Query{
		NewQuery().ScoresOnly().Build(),
		NewQuery().SortByDimension(quality.Time).TopK(30).Build(),
	}
	evalAll := func() {
		t.Helper()
		for _, q := range queries {
			if _, err := c.QuerySources(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	sub, err := c.Subscribe(NewQuery().TopK(10).Build())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	go func() {
		for range sub.Events() {
		}
	}()

	tick := func(label string, seed int64, only []int, wantDirtyShards []int, want quality.SpineStats) {
		t.Helper()
		evalAll() // record this round's spines as the next round's repair substrate
		evalsBefore := c.subs.Stats().Evaluations
		c.AdvanceSameDay(seed, only)
		// The subscriber group's standing query is evaluated exactly once
		// per tick, whatever the shard accounting below says.
		if d := c.subs.Stats().Evaluations - evalsBefore; d != 1 {
			t.Errorf("%s: %d standing-query evaluations this tick, want 1", label, d)
		}
		// The tick dirtied exactly the shards the plan says it should.
		dirty := map[int]bool{}
		for _, id := range c.LastDelta().DirtySourceIDs() {
			dirty[p.Of(rowOf[id])] = true
		}
		if len(dirty) != len(wantDirtyShards) {
			t.Fatalf("%s: churn landed on %d shards, want %v", label, len(dirty), wantDirtyShards)
		}
		for _, s := range wantDirtyShards {
			if !dirty[s] {
				t.Fatalf("%s: shard %d not dirtied, want %v", label, s, wantDirtyShards)
			}
		}
		evalAll() // rebuild the standing spines on the new round
		if got := c.state.Load().env.Sources.SpineStats(); got != want {
			t.Errorf("%s: spine work %+v, want %+v", label, got, want)
		}
	}

	every := make([]int, shards)
	for s := range every {
		every[s] = s
	}
	tick("content-free tick", 9100, []int{}, nil, contentFree)
	tick("single-shard tick", 9008, []int{recs[churnRow].ID}, []int{p.Of(churnRow)}, singleSource)
	tick("every-shard tick", 9200, nil, every, allChurn)
}
