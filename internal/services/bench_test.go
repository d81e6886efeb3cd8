package services

import (
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
