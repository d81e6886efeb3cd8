package informer

import (
	"testing"

	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

// roundAllocBudget caps the heap allocations of one daily ~1%-churn
// Advance over 2000 sources: 7,282 measured (go1.24, linux/amd64; 7,281
// under -race) plus 25%. The count is deterministic — AllocsPerRun runs at
// GOMAXPROCS 1, so every worker pool sized from it runs one worker — which
// makes it a CI gate where ns/op would be noise. A round that builds a
// full Assessment per source for the score join (about 8,000 maps)
// breaks it.
const roundAllocBudget = 9103

func TestAdvanceRoundAllocBudget(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 91, NumSources: 2000, ChurnScale: 0.27})
	c := FromWorld(world, quality.DomainOfInterest{}, 91)
	seed := int64(9100)
	dirty, rounds := 0, 0
	allocs := testing.AllocsPerRun(4, func() {
		seed++
		c.Advance(1, seed)
		dirty += len(c.LastDelta().DirtySourceIDs())
		rounds++
	})
	if frac := float64(dirty) / float64(rounds*len(world.Sources)); frac < 0.005 || frac > 0.02 {
		t.Fatalf("dirty fraction %.4f per round, want ~1%%", frac)
	}
	if allocs > roundAllocBudget {
		t.Fatalf("one Advance round allocates %.0f times, budget %d", allocs, roundAllocBudget)
	}
}
