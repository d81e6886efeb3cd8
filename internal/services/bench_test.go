package services

import (
	"math/rand"
	"testing"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

// BenchmarkEnvAdvance measures the services layer of one daily round on
// the daily-watch world (2000 sources, ChurnScale 0.27, about 1% of the
// sources dirty per day): one epoch-moving Env.Advance — record refresh,
// measure-matrix and benchmark-ledger repair, the score join and the
// contributor update — without the world tick, which is built once
// outside the timer. Every iteration advances the same base environment
// by the same tick, so each op does the same work. The base has already
// advanced one round, as every round past the first of a running
// deployment has: a freshly built environment's first round also sorts
// the ledger columns it is the first to batch-repair.
func BenchmarkEnvAdvance(b *testing.B) {
	world := webgen.Generate(webgen.Config{Seed: 91, NumSources: 2000, ChurnScale: 0.27})
	panel := analytics.Build(world, 92)
	env := NewEnv(world, panel, quality.DomainOfInterest{})
	world, delta := webgen.Advance(world, 1, 9100)
	panel = panel.Refresh(world)
	env = env.Advance(world, panel, delta)
	next, delta := webgen.Advance(world, 1, 9101)
	nextPanel := panel.Refresh(next)
	if !delta.EpochMoved() {
		b.Fatal("a daily tick must move the epoch")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Advance(next, nextPanel, delta)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(delta.DirtySourceIDs())), "dirty-sources")
}

// BenchmarkEnvAdvanceSameDay measures the services layer of one
// sparse-serve round: 2000 sources over 8 shards, each round an
// AdvanceSameDay tick churning 20 sources drawn at random, which holds
// the observation instant, the window and the panel. Unlike
// BenchmarkEnvAdvance every op advances the previous op's environment,
// as a running deployment does, so the records, score slice and ledger
// columns a round shares are the ones the round before produced. The
// world ticks and panel refreshes are made before the timer starts.
func BenchmarkEnvAdvanceSameDay(b *testing.B) {
	world := webgen.Generate(webgen.Config{Seed: 93, NumSources: 2000, ChurnScale: 0.27})
	panel := analytics.Build(world, 94)
	env := NewEnvOpts(world, panel, quality.DomainOfInterest{Categories: world.Categories}, &quality.AssessorOptions{Shards: 8})
	rng := rand.New(rand.NewSource(9300))
	type round struct {
		world *webgen.World
		panel *analytics.Panel
		delta *webgen.Delta
	}
	// One warm-up round, as in BenchmarkEnvAdvance, then b.N timed ones.
	rounds := make([]round, b.N+1)
	dirty := 0
	for i := range rounds {
		only := make([]int, 20)
		for j := range only {
			only[j] = rng.Intn(len(world.Sources))
		}
		var delta *webgen.Delta
		world, delta = webgen.AdvanceSameDay(world, rng.Int63(), only)
		panel = panel.Refresh(world)
		rounds[i] = round{world, panel, delta}
		dirty += len(delta.DirtySourceIDs())
	}
	env = env.Advance(rounds[0].world, rounds[0].panel, rounds[0].delta)
	b.ReportAllocs()
	b.ResetTimer()
	for _, r := range rounds[1:] {
		env = env.Advance(r.world, r.panel, r.delta)
	}
	b.StopTimer()
	b.ReportMetric(float64(dirty)/float64(len(rounds)), "dirty-sources")
}
