package quality

// Incremental-vs-rebuild equivalence of the delta-aware assessment path:
// UpdateRows must produce numbers bit-identical to a from-scratch assessor
// over the same records — for partial dirt and full dirt (both the
// sorted-column batch repair) and pure time advancement (time-sensitive
// re-evaluation) — and the pre-advance assessor must keep serving its
// original snapshot.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/webgen"
)

// advancedWorldRecords generates a world, advances it, and returns the
// pre-advance records plus everything needed to build the post-advance
// ones.
func advancedWorld(t *testing.T, n int, seed int64, days int) (*webgen.World, *webgen.World, *webgen.Delta, *analytics.Panel, *analytics.Panel) {
	t.Helper()
	w := webgen.Generate(webgen.Config{Seed: seed, NumSources: n})
	panel := analytics.Build(w, seed+1000)
	nw, delta := webgen.Advance(w, days, seed+2000)
	return w, nw, delta, panel, panel.Refresh(nw)
}

func assertAssessorsEqual(t *testing.T, got *SourceAssessor, want *SourceAssessor, records []*SourceRecord) {
	t.Helper()
	for _, m := range SourceMeasures() {
		gb, gok := got.Benchmark(m.ID)
		wb, wok := want.Benchmark(m.ID)
		if gok != wok || gb != wb {
			t.Fatalf("benchmark %s: got %+v, want %+v", m.ID, gb, wb)
		}
	}
	rankedEqual(t, got.Rank(records), want.Rank(records))
	rankedEqual(t, got.AssessAll(records), want.AssessAll(records))
}

func TestUpdateRowsPartialMatchesRebuild(t *testing.T) {
	w, nw, delta, panel, npanel := advancedWorld(t, 80, 501, 7)
	di := defaultDI()
	oldRecords := SourceRecordsFromWorld(w, panel)
	base := NewSourceAssessor(oldRecords, di, nil)

	records, dirtyRows := UpdateSourceRecordsFromWorld(oldRecords, panel, nw, npanel, delta.DirtySourceIDs())
	if len(dirtyRows) == 0 || len(dirtyRows) == len(records) {
		t.Fatalf("want partial dirt for this seed, got %d/%d dirty rows", len(dirtyRows), len(records))
	}
	// The refreshed records must equal a from-scratch walk of the new world.
	wantRecords := SourceRecordsFromWorld(nw, npanel)
	for i := range records {
		if !reflect.DeepEqual(records[i], wantRecords[i]) {
			t.Fatalf("record %d differs from rebuild:\n got  %+v\n want %+v", i, records[i], wantRecords[i])
		}
	}

	inc := base.UpdateRows(records, dirtyRows, delta.EpochMoved())
	fresh := NewSourceAssessor(records, di, nil)
	assertAssessorsEqual(t, inc, fresh, records)
}

func TestUpdateRowsAllDirtyMatchesRebuild(t *testing.T) {
	w, nw, _, panel, npanel := advancedWorld(t, 40, 503, 7)
	di := defaultDI()
	oldRecords := SourceRecordsFromWorld(w, panel)
	base := NewSourceAssessor(oldRecords, di, nil)

	// Force the 100%-dirty path regardless of what the tick touched: every
	// record rebuilt, every row re-evaluated and batch-repaired.
	allIDs := make([]int, len(oldRecords))
	for i, r := range oldRecords {
		allIDs[i] = r.ID
	}
	records, dirtyRows := UpdateSourceRecordsFromWorld(oldRecords, panel, nw, npanel, allIDs)
	if len(dirtyRows) != len(records) {
		t.Fatalf("dirty rows = %d, want all %d", len(dirtyRows), len(records))
	}
	inc := base.UpdateRows(records, dirtyRows, true)
	fresh := NewSourceAssessor(records, di, nil)
	assertAssessorsEqual(t, inc, fresh, records)
}

// TestUpdateRowsTimeOnly pins the epoch semantics: a tick that touched no
// source content still moves the observation instant, so time-sensitive
// measures shift for every record while content measures keep their
// benchmarks bit-for-bit.
func TestUpdateRowsTimeOnly(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 505, NumSources: 50})
	panel := analytics.Build(w, 1505)
	di := defaultDI()
	oldRecords := SourceRecordsFromWorld(w, panel)
	base := NewSourceAssessor(oldRecords, di, nil)

	// Move only the clock: same content, later End.
	nw := &webgen.World{
		Config:             w.Config,
		Categories:         w.Categories,
		Sources:            w.Sources,
		Users:              w.Users,
		MaxOpenDiscussions: w.MaxOpenDiscussions,
	}
	nw.Config.End = w.Config.End.AddDate(0, 0, 30)
	npanel := panel.Refresh(nw)
	records, dirtyRows := UpdateSourceRecordsFromWorld(oldRecords, panel, nw, npanel, nil)
	if len(dirtyRows) != 0 {
		t.Fatalf("no source changed, got %d dirty rows", len(dirtyRows))
	}
	inc := base.UpdateRows(records, nil, true)
	fresh := NewSourceAssessor(records, di, nil)
	assertAssessorsEqual(t, inc, fresh, records)

	// Time-sensitive benchmarks moved; the old assessor still serves the
	// old snapshot.
	ob, _ := base.Benchmark("src.time.breadth")
	nb, _ := inc.Benchmark("src.time.breadth")
	if ob == nb {
		t.Error("30 days should move the thread-age benchmark")
	}
	oldAgain, _ := base.Benchmark("src.time.breadth")
	if oldAgain != ob {
		t.Error("pre-advance assessor mutated by UpdateRows")
	}
}

func TestContributorUpdateRowsMatchesRebuild(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 507, NumSources: 40, NumUsers: 160})
	di := defaultDI()
	ix := NewContributorIndex(w)
	base := NewContributorAssessor(ix.Records(), di, nil)

	nw, delta := webgen.Advance(w, 10, 607)
	nix, dirtyRows := ix.Apply(nw, delta)
	records := nix.Records()

	// Index application must equal a from-scratch world walk.
	want := ContributorRecordsFromWorld(nw)
	for i := range records {
		if !reflect.DeepEqual(records[i], want[i]) {
			t.Fatalf("contributor record %d differs from rebuild:\n got  %+v\n want %+v", i, records[i], want[i])
		}
	}
	if len(dirtyRows) == 0 {
		t.Fatal("10-day tick should dirty some contributors")
	}

	inc := base.UpdateRows(records, dirtyRows, delta.EpochMoved())
	fresh := NewContributorAssessor(records, di, nil)
	rankedEqual(t, inc.Rank(records), fresh.Rank(records))
	for _, m := range ContributorMeasures() {
		gb, gok := inc.Benchmark(m.ID)
		wb, wok := fresh.Benchmark(m.ID)
		if gok != wok || gb != wb {
			t.Fatalf("benchmark %s: got %+v, want %+v", m.ID, gb, wb)
		}
	}
}

// TestUpdateRowsChained pins correctness across consecutive ticks: repair
// over repair must still equal a from-scratch rebuild.
func TestUpdateRowsChained(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 509, NumSources: 60})
	panel := analytics.Build(w, 1509)
	di := defaultDI()
	records := SourceRecordsFromWorld(w, panel)
	assessor := NewSourceAssessor(records, di, nil)

	for tick := 0; tick < 3; tick++ {
		nw, delta := webgen.Advance(w, 4, int64(700+tick))
		npanel := panel.Refresh(nw)
		var dirtyRows []int
		records, dirtyRows = UpdateSourceRecordsFromWorld(records, panel, nw, npanel, delta.DirtySourceIDs())
		assessor = assessor.UpdateRows(records, dirtyRows, delta.EpochMoved())
		w, panel = nw, npanel
	}
	fresh := NewSourceAssessor(records, di, nil)
	assertAssessorsEqual(t, assessor, fresh, records)
}

// TestUpdateRowsPreservesReceiver pins the snapshot contract needed for
// concurrent readers: deriving an updated assessor must not change any
// number served by the original.
func TestUpdateRowsPreservesReceiver(t *testing.T) {
	w, nw, delta, panel, npanel := advancedWorld(t, 50, 511, 7)
	di := defaultDI()
	oldRecords := SourceRecordsFromWorld(w, panel)
	base := NewSourceAssessor(oldRecords, di, nil)
	before := base.Rank(oldRecords)

	records, dirtyRows := UpdateSourceRecordsFromWorld(oldRecords, panel, nw, npanel, delta.DirtySourceIDs())
	base.UpdateRows(records, dirtyRows, delta.EpochMoved())

	rankedEqual(t, base.Rank(oldRecords), before)
}

// nanThirdsMeasure is an extension measure that is NaN on every source
// whose ID is a multiple of three and a plain comment count elsewhere.
func nanThirdsMeasure() SourceMeasure {
	return SourceMeasure{
		ID: "test.nan.thirds", Description: "NaN on every third source",
		Dimension: Accuracy, Attribute: Breadth, HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if r.ID%3 == 0 {
				return math.NaN(), true
			}
			return float64(r.TotalComments()), true
		},
	}
}

// assertSameBenchmarkBits compares every benchmark of two source
// assessors bit for bit (NaN matches NaN) and their score columns, which
// hold NaN wherever a NaN measure is defined.
func assertSameBenchmarkBits(t *testing.T, label string, got, want *SourceAssessor) {
	t.Helper()
	if len(got.benchmarks) != len(want.benchmarks) {
		t.Fatalf("%s: %d benchmarks, want %d", label, len(got.benchmarks), len(want.benchmarks))
	}
	for id, wb := range want.benchmarks {
		if gb, ok := got.benchmarks[id]; !ok || !gb.sameBits(wb) {
			t.Fatalf("%s: benchmark %s: got %+v, want %+v", label, id, gb, wb)
		}
	}
	gs, ws := got.Scores(), want.Scores()
	for i := range ws {
		if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
			t.Fatalf("%s: score of row %d: got %v, want %v", label, i, gs[i], ws[i])
		}
	}
}

// TestUpdateRowsNaNMeasureMatchesRebuild is the regression pin for NaN
// cells in the benchmark ledger: same-day rounds restricted to sources
// where an extension measure is NaN re-evaluate NaN to NaN. That must
// count as no change — not a NaN removal the sorted repair cannot match
// plus a NaN insertion appended past the column's end, which drifted the
// measure's Hi benchmark upward round after round.
func TestUpdateRowsNaNMeasureMatchesRebuild(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 501, NumSources: 80})
	panel := analytics.Build(w, 1501)
	di := defaultDI()
	opts := &AssessorOptions{ExtraSourceMeasures: []SourceMeasure{nanThirdsMeasure()}}
	records := SourceRecordsFromWorld(w, panel)
	a := NewSourceAssessor(records, di, opts)
	// Churn the three NaN sources with the most open discussions.
	var nanIDs []int
	for _, r := range records {
		if r.ID%3 == 0 {
			nanIDs = append(nanIDs, r.ID)
		}
	}
	slices.SortStableFunc(nanIDs, func(x, y int) int { return records[y].OpenDiscussions() - records[x].OpenDiscussions() })
	for round := 0; round < 3; round++ {
		nw, delta := webgen.AdvanceSameDay(w, int64(5100+round), nanIDs[:3])
		npanel := panel.Refresh(nw)
		var dirtyRows []int
		records, dirtyRows = UpdateSourceRecordsFromWorld(records, panel, nw, npanel, delta.DirtySourceIDs())
		if len(dirtyRows) == 0 {
			t.Fatalf("round %d dirtied no source", round)
		}
		a = a.UpdateRows(records, dirtyRows, delta.EpochMoved())
		assertSameBenchmarkBits(t, fmt.Sprintf("round %d", round), a, NewSourceAssessor(records, di, opts))
		w, panel = nw, npanel
	}
}

// TestUpdateRowsEpochSameDayChain pins the ledger's two column states
// across a chain of epoch → same-day → epoch → same-day rounds: an epoch
// move re-gathers the time-sensitive columns and reads their benchmarks
// by selection, leaving them unsorted; the same-day round after it
// batch-repairs such a column from its dirty rows, sorting a copy first.
// After every step benchmarks (bit for bit) and rankings equal a rebuild.
func TestUpdateRowsEpochSameDayChain(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 513, NumSources: 120})
	panel := analytics.Build(w, 1513)
	di := defaultDI()
	records := SourceRecordsFromWorld(w, panel)
	a := NewSourceAssessor(records, di, nil)
	live := a.engine.measurePos("src.dependability.liveliness")
	// Same-day rounds churn the five sources with the most open threads.
	churned := make([]int, len(records))
	for i := range churned {
		churned[i] = i
	}
	slices.SortStableFunc(churned, func(x, y int) int { return records[y].OpenDiscussions() - records[x].OpenDiscussions() })
	churned = churned[:5]
	for step := 0; step < 4; step++ {
		epoch := step%2 == 0
		var nw *webgen.World
		var delta *webgen.Delta
		if epoch {
			nw, delta = webgen.Advance(w, 1, int64(5300+step))
		} else {
			if !a.engine.ledger.unsorted[live] {
				t.Fatalf("step %d: the epoch move left the liveliness column sorted", step)
			}
			nw, delta = webgen.AdvanceSameDay(w, int64(5300+step), churned)
		}
		npanel := panel.Refresh(nw)
		var dirtyRows []int
		records, dirtyRows = UpdateSourceRecordsFromWorld(records, panel, nw, npanel, delta.DirtySourceIDs())
		if !epoch && len(dirtyRows) == 0 {
			t.Fatalf("step %d: %d dirty rows, want sparse dirt for a batch repair", step, len(dirtyRows))
		}
		a = a.UpdateRows(records, dirtyRows, delta.EpochMoved())
		if got := a.engine.ledger.unsorted[live]; got != epoch {
			t.Fatalf("step %d (epoch %v): liveliness column unsorted = %v", step, epoch, got)
		}
		fresh := NewSourceAssessor(records, di, nil)
		assertSameBenchmarkBits(t, fmt.Sprintf("step %d", step), a, fresh)
		assertAssessorsEqual(t, a, fresh, records)
		w, panel = nw, npanel
	}
}

// TestUpdateRowsHeavyDirtKeepsColumnsSorted pins the one ledger repair
// under heavy dirt: a same-day round dirtying far more than an eighth of
// the rows batch-repairs every column it moves like a sparse round does,
// so a column a sparse round sorted stays sorted (and ascending), no
// column is re-gathered, and benchmarks, scores and rankings stay bit for
// bit those of a rebuild, at one shard and at several.
func TestUpdateRowsHeavyDirtKeepsColumnsSorted(t *testing.T) {
	for _, shards := range []int{1, 7} {
		w := webgen.Generate(webgen.Config{Seed: 515, NumSources: 96, ChurnScale: 4})
		panel := analytics.Build(w, 1515)
		di := defaultDI()
		opts := &AssessorOptions{Shards: shards}
		records := SourceRecordsFromWorld(w, panel)
		a := NewSourceAssessor(records, di, opts)
		for round, only := range [][]int{{0, 1, 2, 3}, nil} {
			nw, delta := webgen.AdvanceSameDay(w, int64(5500+round), only)
			npanel := panel.Refresh(nw)
			var dirtyRows []int
			records, dirtyRows = UpdateSourceRecordsFromWorld(records, panel, nw, npanel, delta.DirtySourceIDs())
			heavy := only == nil
			if heavy && len(dirtyRows)*8 <= len(records) {
				t.Fatalf("shards %d: the heavy round dirtied %d of %d rows, want more than an eighth", shards, len(dirtyRows), len(records))
			}
			if !heavy && len(dirtyRows) == 0 {
				t.Fatalf("shards %d: the sparse round dirtied no row", shards)
			}
			sortedBefore := slices.Clone(a.engine.ledger.unsorted)
			a = a.UpdateRows(records, dirtyRows, delta.EpochMoved())
			led := a.engine.ledger
			sorted := 0
			for m, unsorted := range led.unsorted {
				if !sortedBefore[m] && unsorted {
					t.Fatalf("shards %d round %d: measure %d's sorted column came back unsorted", shards, round, m)
				}
				if !unsorted {
					sorted++
					if !slices.IsSortedFunc(led.cols[m], func(x, y float64) int {
						switch {
						case lessNaNFirstTest(x, y):
							return -1
						case lessNaNFirstTest(y, x):
							return 1
						}
						return 0
					}) {
						t.Fatalf("shards %d round %d: measure %d's column is flagged sorted but is not", shards, round, m)
					}
				}
			}
			if heavy && sorted == 0 {
				t.Fatalf("shards %d: no column was sorted by the rounds; the heavy round went unexercised", shards)
			}
			label := fmt.Sprintf("shards %d round %d", shards, round)
			fresh := NewSourceAssessor(records, di, opts)
			assertSameBenchmarkBits(t, label, a, fresh)
			assertAssessorsEqual(t, a, fresh, records)
			w, panel = nw, npanel
		}
	}
}

// lessNaNFirstTest orders floats as the ledger's sorted columns do: NaN
// before every number, numbers ascending.
func lessNaNFirstTest(x, y float64) bool {
	if math.IsNaN(x) {
		return !math.IsNaN(y)
	}
	return !math.IsNaN(y) && x < y
}
