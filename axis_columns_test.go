package informer

// Axis-column accounting through the facade: a round's standing queries,
// cold reads and the services score join share one column build per
// shard and ranking axis, and a clean shard whose benchmarks held still
// shares its predecessor's columns instead of rebuilding them.

import (
	"fmt"
	"testing"

	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

// TestEpochRoundBuildsEachAxisOnce pins, at one shard, that an
// epoch-moving Advance under the eight daily-watch standing queries builds
// exactly their five distinct axes — score, time, liveliness, authority,
// dependability — whatever the number of subscribers, and that reading
// the same snapshot again, cached or not, builds nothing more.
func TestEpochRoundBuildsEachAxisOnce(t *testing.T) {
	const axes = 5
	for _, perQuery := range []int{1, 3} {
		t.Run(fmt.Sprintf("subscribers=%d", perQuery), func(t *testing.T) {
			world := webgen.Generate(webgen.Config{Seed: 91, NumSources: 150, ChurnScale: 0.27})
			c := FromWorld(world, DomainOfInterest{}, 91)
			for _, q := range dailyWatchQueries() {
				for i := 0; i < perQuery; i++ {
					sub, err := c.Subscribe(q)
					if err != nil {
						t.Fatal(err)
					}
					defer sub.Close()
					go func() {
						for range sub.Events() {
						}
					}()
				}
			}
			c.Advance(1, 9101)
			if !c.LastDelta().EpochMoved() {
				t.Fatal("a one-day advance must move the epoch")
			}
			st := c.state.Load()
			got := st.env.Sources.SpineStats()
			if got.Columns != axes {
				t.Fatalf("epoch round built %d axis columns, want %d (%+v)", got.Columns, axes, got)
			}
			for _, q := range dailyWatchQueries() {
				if _, err := c.QuerySources(q); err != nil {
					t.Fatal(err)
				}
				if _, err := st.env.Sources.Spine(st.env.SourceRecords, q); err != nil {
					t.Fatal(err)
				}
			}
			again := st.env.Sources.SpineStats()
			if again.Columns != axes || again.Scans <= got.Scans {
				t.Fatalf("re-reading the snapshot: %+v, want %d columns and more scans than %+v", again, axes, got)
			}
		})
	}
}

// TestSameDayColdQueryBuildsOnlyDirtyShard pins, at 7 shards, that after
// an AdvanceSameDay dirtying one shard without moving any benchmark, a
// cold score-ranked query scans all seven shards but builds the score
// column only on the dirty one: the six clean shards share the columns
// of the previous round.
func TestSameDayColdQueryBuildsOnlyDirtyShard(t *testing.T) {
	// churnRow is the source the calibrated seed 9008 churns without
	// moving a benchmark anchor (see TestShardedTickEvaluationCounts).
	const shards, churnRow = 7, 80/4*2 + 7
	c, p := raceWorldSharded(7009, shards)
	recs := c.SourceRecords()
	// The score join of construction built every shard's score column.
	if got := c.state.Load().env.Sources.SpineStats().Columns; got != shards {
		t.Fatalf("construction built %d score columns, want %d", got, shards)
	}
	prev := c.state.Load().env.Sources
	c.AdvanceSameDay(9008, []int{recs[churnRow].ID})
	dirty := map[int]bool{}
	for _, id := range c.LastDelta().DirtySourceIDs() {
		for row, r := range recs {
			if r.ID == id {
				dirty[p.Of(row)] = true
			}
		}
	}
	a := c.state.Load().env.Sources
	if len(dirty) != 1 || !a.BenchmarksEqual(prev) {
		t.Fatalf("the calibrated tick dirtied shards %v (want one) or moved a benchmark", dirty)
	}
	if _, err := c.QuerySources(NewQuery().MinScore(0.3).TopK(5).Build()); err != nil {
		t.Fatal(err)
	}
	if got, want := a.SpineStats(), (quality.SpineStats{Scans: shards, Columns: 1}); got != want {
		t.Fatalf("cold query after a one-shard tick: %+v, want %+v", got, want)
	}
}
