package informer

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

// roundAllocBudget caps the heap allocations of one daily ~1%-churn
// Advance over 2000 sources: 865 measured (go1.24, linux/amd64; the
// same under -race) plus 25%. The per-row record copies of a round come
// from one slab per round, not one allocation per record. The count is deterministic — AllocsPerRun runs at
// GOMAXPROCS 1, so every worker pool sized from it runs one worker — which
// makes it a CI gate where ns/op would be noise. A round that builds a
// full Assessment per source for the score join (about 8,000 maps)
// breaks it.
const roundAllocBudget = 1081

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
	t.Logf("one Advance round allocates %.0f times", allocs)
	if allocs > roundAllocBudget {
		t.Fatalf("one Advance round allocates %.0f times, budget %d", allocs, roundAllocBudget)
	}
}

// roundBytesBudget caps the bytes one daily ~1%-churn Advance over 2000
// sources allocates, on the world and ticks of
// TestAdvanceRoundAllocBudget: 3,162,006 measured (go1.24, linux/amd64)
// plus 25%. At GOMAXPROCS 1 the figure repeats to
// within a few bytes across runs, so it gates like the count does. It
// guards what the count cannot: a round that rebuilds every comment stat
// of a dirty source (4,820,172 bytes per round) allocates about as often
// but far more.
const roundBytesBudget = 3952508

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

// epochSpinesBytesBudget caps the bytes one BenchmarkEpochSpines round
// (an epoch-moving UpdateRows over 2000 sources plus the eight
// daily-watch spines) allocates, at GOMAXPROCS 1 like
// TestAdvanceRoundBytesBudget: 832,488 measured (go1.24, linux/amd64)
// plus 25%. It guards the ranking kernel's pooled scratch and the scans'
// exact-size spine parts: ranking with fresh scratch per call costs about
// 220 KB more per round, and keeping each scan's append-grown slice about
// 350 KB more.
const epochSpinesBytesBudget = 1040610

func TestEpochSpinesBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled ranking scratch at random, so the bytes do not repeat")
	}
	round := epochSpinesRound(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 4
	round() // warm-up: fills the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("one epoch spine round allocates %d bytes", perRound)
	if perRound > epochSpinesBytesBudget {
		t.Fatalf("one epoch spine round allocates %d bytes, budget %d", perRound, epochSpinesBytesBudget)
	}
}

// sameDayBytesBudget caps the bytes one sparse-serve round allocates: an
// AdvanceSameDay tick churning 20 of 2000 sources on an 8-shard corpus,
// at GOMAXPROCS 1 like TestAdvanceRoundBytesBudget: 212,258 measured
// (go1.24, linux/amd64) plus 25%. Such a round holds the observation
// instant, the window and the panel, so it shares every clean record and
// the score slice, and copies the contributor touched sets block by
// block; a round that copies every source and contributor record and
// clones a score map allocates 1,945,214 bytes, and one that clones the
// touched-set headers of all 4,000 users 304,650.
const sameDayBytesBudget = 265322

func TestSameDayRoundBytesBudget(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 93, NumSources: 2000, ChurnScale: 0.27})
	c := FromWorldSharded(world, quality.DomainOfInterest{}, 93, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 8
	rng := rand.New(rand.NewSource(9300))
	round := func() {
		only := make([]int, 20)
		for j := range only {
			only[j] = rng.Intn(len(world.Sources))
		}
		c.AdvanceSameDay(rng.Int63(), only)
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("one same-day round allocates %d bytes", perRound)
	if perRound > sameDayBytesBudget {
		t.Fatalf("one same-day round allocates %d bytes, budget %d", perRound, sameDayBytesBudget)
	}
}
