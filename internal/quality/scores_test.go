package quality

// The score kernel (Scores, ScoreAt) must be bitwise equal to the Score of
// the full assessment it replaces on the Advance score join, at any shard
// count, under custom weights, with an out-of-enum extension measure, and
// after an epoch-moving UpdateRows.

import (
	"math"
	"testing"
)

func TestScoresMatchAssessBitwise(t *testing.T) {
	w, nw, delta, panel, npanel := advancedWorld(t, 60, 511, 1)
	if !delta.EpochMoved() {
		t.Fatal("a one-day Advance must move the epoch")
	}
	extra := SourceMeasure{
		ID:             "test.scores.extra",
		Description:    "extension measure on caller-defined axes, undefined on every third record",
		Dimension:      Dimension(numDimensions + 1),
		Attribute:      Attribute(numAttributes + 2),
		HigherIsBetter: false,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			return float64(len(r.Discussions)), r.ID%3 != 0
		},
	}
	// The stock catalogue defines these measures on every record, even an
	// empty one. Weighting them zero leaves the empty record appended
	// below with no weighted measure defined: the 0/0 branch of the score.
	weights := map[string]float64{"test.scores.extra": 2.5, "src.time.breadth": 0.3}
	for _, id := range []string{
		"src.completeness.relevance", "src.time.liveliness",
		"src.authority.relevance.inbound", "src.authority.relevance.subscriptions",
		"src.authority.traffic.visitors", "src.authority.traffic.pageviews",
		"src.authority.traffic.timeonsite", "src.dependability.relevance",
	} {
		weights[id] = 0
	}
	records := append(SourceRecordsFromWorld(w, panel), &SourceRecord{ID: 9999})
	emptyRow := len(records) - 1
	next, dirty := UpdateSourceRecordsFromWorld(records, panel, nw, npanel, delta.DirtySourceIDs())

	check := func(t *testing.T, stage string, a *SourceAssessor, records []*SourceRecord) {
		t.Helper()
		got := a.Scores()
		want := a.AssessAll(records)
		if len(got) != len(want) {
			t.Fatalf("%s: %d scores for %d records", stage, len(got), len(want))
		}
		for row, as := range want {
			if math.Float64bits(got[row]) != math.Float64bits(as.Score) {
				t.Fatalf("%s: row %d: Scores %v, Assess %v", stage, row, got[row], as.Score)
			}
			if at := a.ScoreAt(row); math.Float64bits(at) != math.Float64bits(as.Score) {
				t.Fatalf("%s: row %d: ScoreAt %v, Assess %v", stage, row, at, as.Score)
			}
		}
		if n := testing.AllocsPerRun(5, func() { _ = a.Scores() }); n != 1 {
			t.Errorf("%s: Scores allocates %v times per call, want 1", stage, n)
		}
	}
	for _, shards := range []int{1, 7} {
		opts := &AssessorOptions{Shards: shards, Weights: weights, ExtraSourceMeasures: []SourceMeasure{extra}}
		a := NewSourceAssessor(records, defaultDI(), opts)
		if a.ShardCount() != shards {
			t.Fatalf("shard count %d, want %d", a.ShardCount(), shards)
		}
		check(t, "built", a, records)
		if s := a.Scores()[emptyRow]; s != 0 {
			t.Fatalf("shards=%d: record with no weighted measure scores %v, want 0", shards, s)
		}
		u := a.UpdateRows(next, dirty, true)
		if u.BenchmarksEqual(a) {
			t.Fatalf("shards=%d: the epoch move left every benchmark in place", shards)
		}
		check(t, "updated", u, next)
	}
}
