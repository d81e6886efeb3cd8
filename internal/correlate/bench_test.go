package correlate

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/informing-observers/informer/internal/webgen"
)

// ingestRound is one pre-generated round of the ingest-shaped benchmarks:
// the world after the round's polls and their coalesced delta.
type ingestRound struct {
	world *webgen.World
	delta *webgen.Delta
}

var (
	ingestOnce   sync.Once
	ingestBase   *webgen.World
	ingestRounds []ingestRound
)

// ingestFixture generates, once per process, the 1000-source commenting
// world of the ingest-stories workload and a ring of rounds over it. Each
// round is 16 AdvanceSource polls merged into one delta: nine polls in
// ten walk the hottest 5% of sources (by open discussions) round-robin,
// every tenth goes to a random source.
func ingestFixture() (*webgen.World, []ingestRound) {
	ingestOnce.Do(func() {
		w := webgen.Generate(webgen.Config{
			Seed: 97, NumSources: 1000, CommentText: true, SyndicationRate: 0.1,
		})
		ingestBase = w
		ids := make([]int, len(w.Sources))
		for i, s := range w.Sources {
			ids[i] = s.ID
		}
		sort.Slice(ids, func(i, j int) bool {
			oi, oj := w.Source(ids[i]).OpenDiscussions(), w.Source(ids[j]).OpenDiscussions()
			if oi != oj {
				return oi > oj
			}
			return ids[i] < ids[j]
		})
		hot := ids[:1+len(ids)/20]
		rng := rand.New(rand.NewSource(97))
		cur := webgen.NewIDCursor(w)
		const ringLen, polls = 32, 16
		poll := 0
		for k := 0; k < ringLen; k++ {
			var merged *webgen.Delta
			for j := 0; j < polls; j++ {
				id := hot[poll%len(hot)]
				if poll%10 == 9 {
					id = ids[rng.Intn(len(ids))]
				}
				poll++
				var d *webgen.Delta
				w, d = webgen.AdvanceSource(w, id, int64(9700_000+k*polls+j), cur)
				if merged == nil {
					merged = d
				} else {
					merged.Merge(d)
				}
			}
			ingestRounds = append(ingestRounds, ingestRound{world: w, delta: merged})
		}
	})
	return ingestBase, ingestRounds
}

// BenchmarkFold times one ingest-shaped round: the coalesced delta of 16
// skewed polls folded into an index built on the base world.
func BenchmarkFold(b *testing.B) {
	base, rounds := ingestFixture()
	ix := NewIndex()
	ix.Build(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(rounds)
		if k == 0 && i > 0 {
			// Ring wrapped: rebuild the pre-ring index off the clock so
			// every timed fold applies its delta to the right prior state.
			b.StopTimer()
			ix = NewIndex()
			ix.Build(base)
			b.StartTimer()
		}
		ix.Fold(rounds[k].world, rounds[k].delta)
	}
	b.StopTimer()
	if ix.Stats().Indexed == 0 {
		b.Fatal("fold indexed no comments")
	}
}

// BenchmarkBuild times indexing the ingest-stories world from scratch,
// the correlation share of its set-up.
func BenchmarkBuild(b *testing.B) {
	base, _ := ingestFixture()
	b.ReportAllocs()
	b.ResetTimer()
	var ix *Index
	for i := 0; i < b.N; i++ {
		ix = NewIndex()
		ix.Build(base)
	}
	b.StopTimer()
	if ix.Stories().Len() == 0 {
		b.Fatal("build found no stories")
	}
}

// Budgets for one BenchmarkFold round: 78,857 bytes in 409 allocations
// measured at GOMAXPROCS 1 over the 32-round ring (go1.24, linux/amd64;
// 80,069 bytes under -race), plus 25%. A fold that hashes through
// per-comment token slices and keeps its touched roots in maps allocates
// 183,993 bytes in 924 allocations per round here.
const (
	foldBytesBudget  = 98571
	foldAllocsBudget = 511
)

// TestFoldAllocBudget gates the bytes and allocations of one
// ingest-shaped fold: a warm ring of rounds on one index, then the same
// ring on a fresh index built on the base world, measured.
func TestFoldAllocBudget(t *testing.T) {
	base, rounds := ingestFixture()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	built := func() *Index {
		ix := NewIndex()
		ix.Build(base)
		return ix
	}
	ix := built()
	for _, r := range rounds {
		ix.Fold(r.world, r.delta)
	}
	ix = built()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range rounds {
		ix.Fold(r.world, r.delta)
	}
	runtime.ReadMemStats(&after)
	n := uint64(len(rounds))
	bytes, allocs := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("one fold allocates %d bytes in %d allocations", bytes, allocs)
	if bytes > foldBytesBudget {
		t.Errorf("one fold allocates %d bytes, budget %d", bytes, foldBytesBudget)
	}
	if allocs > foldAllocsBudget {
		t.Errorf("one fold allocates %d times, budget %d", allocs, foldAllocsBudget)
	}
}
