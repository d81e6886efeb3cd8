package quality

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSourceReportRoundTrip(t *testing.T) {
	records := worldRecords(t, 25, 91)
	a := NewSourceAssessor(records, defaultDI(), nil)
	ranked := a.Rank(records)
	at := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	rep := NewReport(a, ranked, at)

	if rep.Kind != "sources" || len(rep.Entries) != 25 {
		t.Fatalf("report: %s / %d entries", rep.Kind, len(rep.Entries))
	}
	if len(rep.Benchmarks) == 0 {
		t.Fatal("no benchmarks serialised")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != rep.Kind || len(back.Entries) != len(rep.Entries) {
		t.Fatal("round trip lost structure")
	}
	for i := range rep.Entries {
		if back.Entries[i].Rank != rep.Entries[i].Rank ||
			back.Entries[i].Name != rep.Entries[i].Name ||
			back.Entries[i].Score != rep.Entries[i].Score {
			t.Fatalf("entry %d differs", i)
		}
	}
	if !back.GeneratedAt.Equal(at) {
		t.Errorf("timestamp lost: %v", back.GeneratedAt)
	}
}

func TestContributorReport(t *testing.T) {
	recs := influencerFixture()
	a := NewContributorAssessor(recs, DomainOfInterest{}, nil)
	rep := NewReport(a, a.Rank(recs), time.Now())
	if rep.Kind != "contributors" || len(rep.Entries) != len(recs) {
		t.Fatalf("report: %s / %d", rep.Kind, len(rep.Entries))
	}
}

func TestReadReportRejectsGarbage(t *testing.T) {
	if _, err := ReadReport(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadReport(strings.NewReader(`{"kind":"martians"}`)); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestRankShift(t *testing.T) {
	old := &Report{Entries: []ReportEntry{
		{Rank: 1, Name: "a"}, {Rank: 2, Name: "b"}, {Rank: 3, Name: "c"},
	}}
	new_ := &Report{Entries: []ReportEntry{
		{Rank: 1, Name: "b"}, {Rank: 2, Name: "a"}, {Rank: 3, Name: "d"},
	}}
	shift := RankShift(old, new_)
	if shift["b"] != 1 {
		t.Errorf("b shift = %d, want +1", shift["b"])
	}
	if shift["a"] != -1 {
		t.Errorf("a shift = %d, want -1", shift["a"])
	}
	if _, ok := shift["c"]; ok {
		t.Error("dropped item must not appear")
	}
	if _, ok := shift["d"]; ok {
		t.Error("new item must not appear")
	}
}

func TestExtraSourceMeasures(t *testing.T) {
	records := worldRecords(t, 30, 92)
	custom := SourceMeasure{
		ID:             "src.custom.offtopicshare",
		Description:    "share of off-topic discussions (a new dependability angle)",
		Dimension:      Dependability,
		Attribute:      Relevance,
		Provenance:     Crawling,
		HigherIsBetter: false,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if len(r.Discussions) == 0 {
				return 0, false
			}
			off := 0
			for i := range r.Discussions {
				if r.Discussions[i].Category == "" {
					off++
				}
			}
			return float64(off) / float64(len(r.Discussions)), true
		},
	}
	a := NewSourceAssessor(records, defaultDI(), &AssessorOptions{
		ExtraSourceMeasures: []SourceMeasure{custom},
	})
	as := a.Assess(records[0])
	if _, ok := as.Raw["src.custom.offtopicshare"]; !ok {
		t.Fatal("custom measure not evaluated")
	}
	if _, ok := a.Benchmark("src.custom.offtopicshare"); !ok {
		t.Fatal("custom measure has no benchmark")
	}
	// The catalogue itself is untouched.
	if _, ok := SourceMeasureByID("src.custom.offtopicshare"); ok {
		t.Error("custom measure leaked into the global catalogue")
	}
	plain := NewSourceAssessor(records, defaultDI(), nil)
	if _, ok := plain.Assess(records[0]).Raw["src.custom.offtopicshare"]; ok {
		t.Error("custom measure leaked into other assessors")
	}
}

func TestExtraContributorMeasures(t *testing.T) {
	recs := influencerFixture()
	custom := ContributorMeasure{
		ID:             "usr.custom.readrate",
		Description:    "reads per interaction",
		Dimension:      Time,
		Attribute:      Activity,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			if r.Interactions == 0 {
				return 0, false
			}
			return float64(r.ReadsReceived) / float64(r.Interactions), true
		},
	}
	a := NewContributorAssessor(recs, DomainOfInterest{}, &AssessorOptions{
		ExtraContributorMeasures: []ContributorMeasure{custom},
	})
	as := a.Assess(recs[0])
	if _, ok := as.Raw["usr.custom.readrate"]; !ok {
		t.Fatal("custom contributor measure not evaluated")
	}
}
