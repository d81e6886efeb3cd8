package informer

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
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
// TestAdvanceRoundAllocBudget: 3,076,390 measured (go1.24, linux/amd64)
// plus 25%. At GOMAXPROCS 1 the figure repeats to
// within a few bytes across runs, so it gates like the count does. It
// guards what the count cannot: a round that allocates about as often but
// far more, as one did that rebuilt a per-comment statistic for every
// comment of a dirty source (4,820,172 bytes per round).
const roundBytesBudget = 3845487

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
// AdvanceSameDay tick over 20 of 2000 sources drawn at random, on an
// 8-shard corpus, at GOMAXPROCS 1 like TestAdvanceRoundBytesBudget:
// 212,258 measured (go1.24, linux/amd64) plus 25%. At ChurnScale 0.27 such
// a tick grows almost none of the 20 — these rounds dirty 0.12 sources
// each, a count the test logs — so the gate measures a same-day round's
// fixed cost, not its churn. Such a round holds the observation instant,
// the window and the panel, so it shares every clean record and the score
// slice, and copies the contributor touched sets block by block; a round
// that copies every source and contributor record and clones a score map
// allocates 1,945,214 bytes, and one that clones the touched-set headers
// of all 4,000 users 304,650.
const sameDayBytesBudget = 265322

func TestSameDayRoundBytesBudget(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 93, NumSources: 2000, ChurnScale: 0.27})
	c := FromWorldSharded(world, quality.DomainOfInterest{}, 93, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 8
	rng := rand.New(rand.NewSource(9300))
	// The rounds' deltas are kept in room made up front and counted once
	// the measurement is over, so counting allocates nothing measured.
	deltas := make([]*Delta, 0, 1+rounds)
	round := func() {
		only := make([]int, 20)
		for j := range only {
			only[j] = rng.Intn(len(world.Sources))
		}
		c.AdvanceSameDay(rng.Int63(), only)
		deltas = append(deltas, c.LastDelta())
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	dirty := 0
	for _, d := range deltas[1:] {
		dirty += len(d.DirtySourceIDs())
	}
	t.Logf("one same-day round allocates %d bytes and dirties %.2f sources", perRound, float64(dirty)/rounds)
	if perRound > sameDayBytesBudget {
		t.Fatalf("one same-day round allocates %d bytes, budget %d", perRound, sameDayBytesBudget)
	}
}

// ingestRoundBytesBudget caps the bytes one ingest-stories round
// allocates: 16 Ingest polls on the 1000-source commenting world, nine in
// ten walking the 5% of sources with the most open discussions and the
// rest on a random one, then one DrainTick, at GOMAXPROCS 1 like
// TestAdvanceRoundBytesBudget: 1,582,595 measured (go1.24, linux/amd64;
// 1,584,221 under -race) plus 25%. The eight rounds measured follow 200
// warm-up rounds, about as many as a 20 s obsbench ingest-stories run
// makes, so the hot discussions have long histories. It guards a round's
// cost against those histories: records that copy a grown discussion's
// per-comment statistics each round it grows allocated 2,253,549 bytes
// per round here, beside a correlation fold that allocated 118,904 bytes
// more per round than the current one. It guards that fold too: hashing
// through token slices and keeping story bookkeeping in maps cost those
// bytes.
const ingestRoundBytesBudget = 1978243

func TestIngestRoundBytesBudget(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 97, NumSources: 1000, CommentText: true, SyndicationRate: 0.1})
	c := FromWorld(world, quality.DomainOfInterest{}, 97)
	ids := make([]int, len(world.Sources))
	for i, s := range world.Sources {
		ids[i] = s.ID
	}
	slices.SortStableFunc(ids, func(x, y int) int {
		return cmp.Compare(world.Source(y).OpenDiscussions(), world.Source(x).OpenDiscussions())
	})
	hot := ids[:1+len(ids)/20]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warmup, rounds = 200, 8
	rng := rand.New(rand.NewSource(9700))
	poll := 0
	round := func() {
		for j := 0; j < 16; j++ {
			id := hot[poll%len(hot)]
			if poll%10 == 9 {
				id = ids[rng.Intn(len(ids))]
			}
			poll++
			c.Ingest(id, rng.Int63())
		}
		c.DrainTick()
	}
	for i := 0; i < warmup; i++ {
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("one ingest round allocates %d bytes", perRound)
	if perRound > ingestRoundBytesBudget {
		t.Fatalf("one ingest round allocates %d bytes, budget %d", perRound, ingestRoundBytesBudget)
	}
}
