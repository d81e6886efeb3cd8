package services

// Satellite pin: at sparse churn Env.Advance re-scores only the dirty rows.
// When the tick kept the epoch still and the repaired engine's benchmarks
// are bitwise unchanged, the previous score join is carried and only dirty
// rows run the score kernel; the result must equal a from-scratch NewEnv
// over the same world and panel, bit for bit. The test scans a fixed seed
// range for a sparse tick whose licence engages and whose dirty rows'
// scores actually move; it fails loudly if no seed qualifies, so the fast
// path cannot silently rot into never firing.

import (
	"math"
	"testing"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

func TestAdvanceCarriesCleanScores(t *testing.T) {
	engaged := false
	for seed := int64(1); seed <= 20 && !engaged; seed++ {
		world := webgen.Generate(webgen.Config{
			Seed: seed, NumSources: 40, NumUsers: 120, CommentText: true,
		})
		panel := analytics.Build(world, seed+100)
		di := quality.DomainOfInterest{Categories: world.Categories}
		env := NewEnv(world, panel, di)

		// A sparse tick: same-day churn restricted to two sources keeps
		// the epoch still and usually leaves the corpus-wide benchmark
		// quantiles untouched.
		w2, delta := webgen.AdvanceSameDay(world, seed+500, []int{0, 1})
		p2 := panel.Refresh(w2)
		ne := env.Advance(w2, p2, delta)

		if delta.EpochMoved() || !ne.Sources.BenchmarksEqual(env.Sources) {
			continue // licence did not engage under this seed; try the next
		}
		if len(delta.DirtySourceIDs()) == len(ne.SourceRecords) {
			continue // no clean row to carry
		}
		fresh := NewEnv(w2, p2, di)
		moved := false
		for _, id := range delta.DirtySourceIDs() {
			moved = moved || fresh.scores[id] != env.scores[id]
		}
		if !moved {
			continue // no dirty row's score moved, so a skipped re-score would pass
		}
		engaged = true

		if len(ne.scores) != len(fresh.scores) {
			t.Fatalf("seed %d: %d advanced scores, %d from scratch", seed, len(ne.scores), len(fresh.scores))
		}
		for id, want := range fresh.scores {
			got, ok := ne.SourceScore(id)
			if !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: source %d scores %v after Advance, %v from scratch", seed, id, got, want)
			}
		}
		// The previous environment keeps serving its own snapshot.
		for id, want := range NewEnv(world, panel, di).scores {
			if got := env.scores[id]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: Advance mutated the previous join at source %d", seed, id)
			}
		}
	}
	if !engaged {
		t.Fatal("no seed in 1..20 produced a sparse tick with equal benchmarks, clean rows and a moved dirty score; the carry path never engaged")
	}
}
