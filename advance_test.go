package informer

// Facade-level contracts of incremental corpus advancement: an advanced
// corpus must be bit-identical to a full FromWorld rebuild of the same
// world under the corpus' construction seed; a zero-delta tick must be a
// true no-op (pointer-equal snapshot internals); and every reading method
// must stay safe while a writer ticks the world (run under -race in CI).

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

// assertCorpusEquals checks every published number of two corpora over the
// same world: rankings (with all raw/normalised/axis maps), benchmarks,
// source scores, sentiment indicators and trending terms.
func assertCorpusEquals(t *testing.T, inc, full *Corpus) {
	t.Helper()
	ri, rf := allSources(t, inc), allSources(t, full)
	if !reflect.DeepEqual(ri, rf) {
		for i := range ri {
			if !reflect.DeepEqual(ri[i], rf[i]) {
				t.Fatalf("source ranking differs at %d:\n inc  %+v\n full %+v", i, ri[i], rf[i])
			}
		}
		t.Fatalf("source rankings differ in length: %d vs %d", len(ri), len(rf))
	}
	if !reflect.DeepEqual(allContributors(t, inc), allContributors(t, full)) {
		t.Fatal("contributor rankings differ")
	}
	for _, m := range quality.SourceMeasures() {
		bi, iok := inc.state.Load().env.Sources.Benchmark(m.ID)
		bf, fok := full.state.Load().env.Sources.Benchmark(m.ID)
		if iok != fok || bi != bf {
			t.Fatalf("benchmark %s: %+v vs %+v", m.ID, bi, bf)
		}
	}
	ie, fe := inc.state.Load().env, full.state.Load().env
	for _, r := range fe.SourceRecords {
		si, iok := ie.SourceScore(r.ID)
		sf, fok := fe.SourceScore(r.ID)
		if iok != fok || math.Float64bits(si) != math.Float64bits(sf) {
			t.Fatalf("source score joins differ at source %d: %v vs %v", r.ID, si, sf)
		}
	}
	si, sf := inc.SentimentByCategory(), full.SentimentByCategory()
	if !reflect.DeepEqual(si, sf) {
		t.Fatalf("sentiment indicators differ:\n inc  %+v\n full %+v", si, sf)
	}
	for _, cat := range inc.World().Categories {
		if !reflect.DeepEqual(inc.TrendingTerms(cat, 8), full.TrendingTerms(cat, 8)) {
			t.Fatalf("trending terms differ for %q", cat)
		}
	}
}

func TestAdvanceIncrementalMatchesRebuild(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 901, NumSources: 50, NumUsers: 150, CommentText: true})
	c := FromWorld(world, DomainOfInterest{}, 901)
	// Touch the scan before ticking so the per-source invalidation path is
	// exercised (not just a cold rebuild).
	if len(c.SentimentByCategory()) == 0 {
		t.Fatal("corpus has no sentiment to begin with")
	}

	c.Advance(5, 9001)
	c.Advance(3, 9002) // second tick stacks repair on repair

	full := FromWorld(c.World(), c.DI, 901)
	assertCorpusEquals(t, c, full)
}

// TestAdvanceFullyDirtyMatchesRebuild drives a tick big enough to touch
// every source, pinning the threshold (full re-sort) path end to end.
func TestAdvanceFullyDirtyMatchesRebuild(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 903, NumSources: 30, NumUsers: 90, CommentText: true})
	c := FromWorld(world, DomainOfInterest{}, 903)
	c.SentimentByCategory()

	before := c.World()
	c.Advance(120, 9003)
	after := c.World()
	dirty := 0
	for i := range after.Sources {
		if after.Sources[i] != before.Sources[i] {
			dirty++
		}
	}
	if dirty != len(after.Sources) {
		t.Fatalf("tick dirtied %d/%d sources; pick a bigger tick", dirty, len(after.Sources))
	}

	full := FromWorld(after, c.DI, 903)
	assertCorpusEquals(t, c, full)
}

func TestAdvanceZeroDeltaIsNoop(t *testing.T) {
	c := New(Config{Seed: 905, NumSources: 20})
	before := c.state.Load()
	if got := c.Advance(0, 9005); got != c {
		t.Fatal("Advance must return the receiver")
	}
	if c.state.Load() != before {
		t.Fatal("zero-delta tick must keep the snapshot pointer-identical")
	}
	if c.World() != before.world {
		t.Fatal("zero-delta tick must not replace the world")
	}
}

// TestAdvanceNoReevaluationOnZeroDelta pins "no re-evaluation" directly:
// the assessor, records and env survive a zero-day tick untouched.
func TestAdvanceNoReevaluationOnZeroDelta(t *testing.T) {
	c := New(Config{Seed: 907, NumSources: 15})
	env := c.state.Load().env
	c.Advance(0, 9007)
	if c.state.Load().env != env {
		t.Fatal("zero-delta tick rebuilt the environment")
	}
}

// TestAdvanceOldSnapshotStaysValid pins the reader guarantee: a reader
// holding pre-advance results is unaffected by a tick.
func TestAdvanceOldSnapshotStaysValid(t *testing.T) {
	c := New(Config{Seed: 909, NumSources: 25, CommentText: true})
	oldWorld := c.World()
	oldRanked := allSources(t, c)
	oldSenti := c.SentimentByCategory()

	c.Advance(30, 9009)

	// Re-assess the retained old world from scratch: it must be untouched.
	fullOld := FromWorld(oldWorld, c.DI, 909)
	if !reflect.DeepEqual(allSources(t, fullOld), oldRanked) {
		t.Fatal("pre-advance world mutated by the tick")
	}
	if !reflect.DeepEqual(fullOld.SentimentByCategory(), oldSenti) {
		t.Fatal("pre-advance sentiment mutated by the tick")
	}
}

// skewedTicks draws a hot/tail per-source tick schedule: ~90% of the
// polls land on the hottest ~5% of sources (by open discussions, the
// generator's churn capacity), the rest scatter over the tail — the
// bursty-few/quiet-many distribution the adaptive scheduler exploits.
func skewedTicks(rng *rand.Rand, world *webgen.World, n int) []int {
	ids := make([]int, 0, len(world.Sources))
	for _, s := range world.Sources {
		ids = append(ids, s.ID)
	}
	sort.Slice(ids, func(i, j int) bool {
		oi, oj := world.Source(ids[i]).OpenDiscussions(), world.Source(ids[j]).OpenDiscussions()
		if oi != oj {
			return oi > oj
		}
		return ids[i] < ids[j]
	})
	hot := ids[:1+len(ids)/20]
	ticks := make([]int, n)
	for i := range ticks {
		if rng.Intn(10) < 9 {
			ticks[i] = hot[rng.Intn(len(hot))]
		} else {
			ticks[i] = ids[rng.Intn(len(ids))]
		}
	}
	return ticks
}

// TestIngestDrainMatchesSequentialAndRebuild is the tentpole's randomized
// acceptance pin at the facade: a skewed run of per-source Ingest ticks
// followed by ONE DrainTick (one coalesced UpdateRows repair, one
// published round) must be bit-identical both to publishing every tick as
// its own assessment round and to a cold rebuild of the final world — and
// the drain must feed the subscription registry exactly one round.
func TestIngestDrainMatchesSequentialAndRebuild(t *testing.T) {
	for run := 0; run < 3; run++ {
		world := webgen.Generate(webgen.Config{
			Seed: int64(921 + run), NumSources: 40, NumUsers: 120,
			CommentText: true, ChurnScale: 3,
		})
		inc := FromWorld(world, DomainOfInterest{}, 921)
		seq := FromWorld(world, DomainOfInterest{}, 921)
		inc.SentimentByCategory() // warm the scan: exercise per-source invalidation

		sub, err := inc.Subscribe(NewQuery().TopK(10).Build())
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()

		rng := rand.New(rand.NewSource(int64(5200 + run)))
		buffered := 0
		for i, id := range skewedTicks(rng, world, 24) {
			seed := int64(6000 + run*100 + i)
			d := inc.Ingest(id, seed)
			if !d.Empty() {
				buffered++
			}
			// The sequential twin publishes every tick as its own round.
			seq.Ingest(id, seed)
			seq.DrainTick()
		}
		if buffered == 0 {
			t.Fatal("skewed schedule produced no activity; raise ChurnScale")
		}
		ticks, comments := inc.PendingIngest()
		if ticks != buffered || comments == 0 {
			t.Fatalf("PendingIngest = (%d, %d), want (%d, >0)", ticks, comments, buffered)
		}
		if got := inc.SnapshotVersion(); got != 1 {
			t.Fatalf("Ingest published a round: version %d", got)
		}

		n, published := inc.DrainTick()
		if !published || n != buffered {
			t.Fatalf("DrainTick = (%d, %v), want (%d, true)", n, published, buffered)
		}
		if got := inc.SnapshotVersion(); got != 2 {
			t.Fatalf("one drain must publish exactly one round: version %d", got)
		}
		select {
		case ev := <-sub.Events():
			if ev.Snapshot != 2 {
				t.Fatalf("subscriber saw round %d, want 2", ev.Snapshot)
			}
		default:
			t.Fatal("drain published no subscription round")
		}
		select {
		case <-sub.Events():
			t.Fatal("drain fanned out more than one round")
		default:
		}
		if n, p := inc.DrainTick(); n != 0 || p {
			t.Fatal("draining an empty accumulator must publish nothing")
		}

		// Bit-identity: coalesced drain vs per-tick publication vs rebuild.
		assertCorpusEquals(t, inc, seq)
		full := FromWorld(inc.World(), inc.DI, 921)
		assertCorpusEquals(t, inc, full)
	}
}

// TestAdvanceFoldsPendingIngest pins the composition rule: a global tick
// arriving while per-source ingestion is buffered folds the pending span
// into its own round — one publication, nothing abandoned, nothing
// double-applied — and stays bit-identical to a rebuild.
func TestAdvanceFoldsPendingIngest(t *testing.T) {
	world := webgen.Generate(webgen.Config{
		Seed: 931, NumSources: 35, NumUsers: 100, CommentText: true, ChurnScale: 3,
	})
	c := FromWorld(world, DomainOfInterest{}, 931)
	rng := rand.New(rand.NewSource(5300))
	buffered := 0
	for i, id := range skewedTicks(rng, world, 12) {
		if !c.Ingest(id, int64(6500+i)).Empty() {
			buffered++
		}
	}
	if buffered == 0 {
		t.Fatal("no ingestion buffered; raise ChurnScale")
	}

	c.Advance(2, 6600)
	if got := c.SnapshotVersion(); got != 2 {
		t.Fatalf("Advance over pending ingestion published %d rounds, want 1", got-1)
	}
	if ticks, _ := c.PendingIngest(); ticks != 0 {
		t.Fatalf("Advance left %d ticks buffered", ticks)
	}
	if d := c.LastDelta(); d == nil || !d.EpochMoved() {
		t.Fatal("folded round must carry the epoch movement")
	}
	assertCorpusEquals(t, c, FromWorld(c.World(), c.DI, 931))

	// Same-day flavor on top of fresh ingestion.
	for i, id := range skewedTicks(rng, c.World(), 8) {
		c.Ingest(id, int64(6700+i))
	}
	c.AdvanceSameDay(6800, nil)
	if ticks, _ := c.PendingIngest(); ticks != 0 {
		t.Fatal("AdvanceSameDay left ingestion buffered")
	}
	assertCorpusEquals(t, c, FromWorld(c.World(), c.DI, 931))
}

// TestAdvanceConcurrentReaders serves every reading surface while a writer
// ticks the world repeatedly; run with -race this pins the snapshot-swap
// guarantee of the tentpole.
func TestAdvanceConcurrentReaders(t *testing.T) {
	c := New(Config{Seed: 911, NumSources: 25, NumUsers: 80, CommentText: true})
	n := len(allSources(t, c))
	handler := c.Handler()
	panelHandler := c.PanelHandler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	reader(func() {
		if res, err := c.QuerySources(Query{}); err != nil || len(res.Items) != n {
			t.Error("short ranking during advance")
		}
	})
	reader(func() {
		if _, err := c.QueryContributors(Query{}); err != nil {
			t.Error(err)
		}
	})
	reader(func() { c.SentimentByCategory() })
	reader(func() { c.TrendingTerms("prerequisites", 5) })
	reader(func() { c.SourceReport() })
	reader(func() { c.AssessSource(3) })
	reader(func() { c.Search("hotel milan", 5) })
	reader(func() {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sitemap.txt", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("sitemap status %d during advance", rec.Code)
		}
	})
	reader(func() {
		rec := httptest.NewRecorder()
		panelHandler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?host="+c.World().Sources[0].Host, nil))
	})

	for i := 0; i < 6; i++ {
		c.Advance(2, int64(9100+i))
	}
	close(stop)
	wg.Wait()

	full := FromWorld(c.World(), c.DI, 911)
	assertCorpusEquals(t, c, full)
}
