package informer

import (
	"runtime"
	"testing"

	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

// roundAllocBudget caps the heap allocations of one daily ~1%-churn
// Advance over 2000 sources: 903 measured (go1.24, linux/amd64; the
// same under -race) plus 25%. The per-row record copies of a round come
// from one slab per round, not one allocation per record. The count is deterministic — AllocsPerRun runs at
// GOMAXPROCS 1, so every worker pool sized from it runs one worker — which
// makes it a CI gate where ns/op would be noise. A round that builds a
// full Assessment per source for the score join (about 8,000 maps)
// breaks it.
const roundAllocBudget = 1129

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

// roundBytesBudget caps the bytes one daily ~1%-churn Advance over 2000
// sources allocates, on the world and ticks of
// TestAdvanceRoundAllocBudget: 3,441,302 measured (go1.24, linux/amd64;
// 3,441,738 under -race) plus 25%. At GOMAXPROCS 1 the figure repeats to
// within a few bytes across runs, so it gates like the count does. It
// guards what the count cannot: a round that rebuilds every comment stat
// of a dirty source (4,820,172 bytes per round) allocates about as often
// but far more.
const roundBytesBudget = 4301628

func TestAdvanceRoundBytesBudget(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 91, NumSources: 2000, ChurnScale: 0.27})
	c := FromWorld(world, quality.DomainOfInterest{}, 91)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The same rounds as the count gate: one warm-up, then four measured.
	const rounds = 4
	seed := int64(9100)
	round := func() {
		seed++
		c.Advance(1, seed)
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("one Advance round allocates %d bytes", perRound)
	if perRound > roundBytesBudget {
		t.Fatalf("one Advance round allocates %d bytes, budget %d", perRound, roundBytesBudget)
	}
}
