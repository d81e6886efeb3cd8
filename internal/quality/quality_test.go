package quality

import (
	"testing"
	"time"
)

func TestDimensionStrings(t *testing.T) {
	want := []string{"accuracy", "completeness", "time", "interpretability", "authority", "dependability"}
	for i, d := range Dimensions() {
		if d.String() != want[i] {
			t.Errorf("dimension %d = %q, want %q", i, d.String(), want[i])
		}
	}
	if Dimension(99).String() == "" {
		t.Error("unknown dimension should render")
	}
}

func TestAttributeStrings(t *testing.T) {
	if Relevance.String() != "relevance" || Breadth.String() != "breadth" ||
		Traffic.String() != "traffic" || Activity.String() != "activity" ||
		Liveliness.String() != "liveliness" {
		t.Error("attribute strings wrong")
	}
	if len(SourceAttributes()) != 4 || len(ContributorAttributes()) != 4 {
		t.Error("attribute lists wrong")
	}
	// Table 1 has Traffic; Table 2 replaces it with Activity.
	if SourceAttributes()[2] != Traffic || ContributorAttributes()[2] != Activity {
		t.Error("traffic/activity swap wrong")
	}
}

func TestProvenanceString(t *testing.T) {
	if Crawling.String() != "crawling" || Panel.String() != "panel" {
		t.Error("provenance strings wrong")
	}
}

func TestDomainOfInterestCategory(t *testing.T) {
	di := &DomainOfInterest{Categories: []string{"place", "pulse"}}
	if !di.InCategory("place") || di.InCategory("people") {
		t.Error("category matching wrong")
	}
	if di.InCategory("") {
		t.Error("off-topic must never match")
	}
	open := &DomainOfInterest{}
	if !open.InCategory("anything") || open.InCategory("") {
		t.Error("unrestricted DI wrong")
	}
	set := di.CategorySet()
	if len(set) != 2 || !set["pulse"] {
		t.Errorf("CategorySet = %v", set)
	}
	if open.CategorySet() != nil {
		t.Error("unrestricted set should be nil")
	}
}

func TestDomainOfInterestWindow(t *testing.T) {
	start := time.Date(2011, 5, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC)
	di := &DomainOfInterest{Start: start, End: end}
	if di.InWindow(start.AddDate(0, 0, -1)) {
		t.Error("before start should fail")
	}
	if !di.InWindow(start.AddDate(0, 1, 0)) {
		t.Error("inside window should pass")
	}
	if di.InWindow(end.AddDate(0, 0, 1)) {
		t.Error("after end should fail")
	}
	open := &DomainOfInterest{}
	if !open.InWindow(time.Now()) {
		t.Error("open window should accept everything")
	}
}

func TestMeasureCatalogueSizes(t *testing.T) {
	// Table 1 has 19 non-N/A measures (authority x relevance holds two and
	// authority x traffic three); the correlation engine joins a 20th
	// (src.originality). Table 2 has 15.
	if got := len(SourceMeasures()); got != 20 {
		t.Errorf("source measures = %d, want 20", got)
	}
	if got := len(ContributorMeasures()); got != 15 {
		t.Errorf("contributor measures = %d, want 15", got)
	}
}

func TestMeasureIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range SourceMeasures() {
		if seen[m.ID] {
			t.Errorf("duplicate measure ID %q", m.ID)
		}
		seen[m.ID] = true
		if _, ok := SourceMeasureByID(m.ID); !ok {
			t.Errorf("measure %q not resolvable", m.ID)
		}
		if m.Description == "" {
			t.Errorf("measure %q lacks description", m.ID)
		}
	}
	for _, m := range ContributorMeasures() {
		if seen[m.ID] {
			t.Errorf("duplicate measure ID %q", m.ID)
		}
		seen[m.ID] = true
		if _, ok := ContributorMeasureByID(m.ID); !ok {
			t.Errorf("measure %q not resolvable", m.ID)
		}
	}
	if _, ok := SourceMeasureByID("nope"); ok {
		t.Error("unknown source measure resolved")
	}
	if _, ok := ContributorMeasureByID("nope"); ok {
		t.Error("unknown contributor measure resolved")
	}
}

func TestTableThreeMeasuresAreDomainIndependent(t *testing.T) {
	ids := TableThreeMeasureIDs()
	if len(ids) != 10 {
		t.Fatalf("Table 3 retains 10 measures, got %d", len(ids))
	}
	for _, id := range ids {
		m, ok := SourceMeasureByID(id)
		if !ok {
			t.Errorf("unknown Table 3 measure %q", id)
			continue
		}
		if m.DomainDependent {
			t.Errorf("measure %q is domain-dependent; Table 3 excludes those", id)
		}
	}
}

func TestBenchmarkNormalize(t *testing.T) {
	b := Benchmark{Lo: 10, Hi: 20}
	cases := []struct {
		v      float64
		higher bool
		want   float64
	}{
		{10, true, 0},
		{20, true, 1},
		{15, true, 0.5},
		{5, true, 0},   // clamped below
		{100, true, 1}, // clamped above
		{15, false, 0.5},
		{10, false, 1},
		{20, false, 0},
	}
	for _, c := range cases {
		if got := b.Normalize(c.v, c.higher); got != c.want {
			t.Errorf("Normalize(%v, %v) = %v, want %v", c.v, c.higher, got, c.want)
		}
	}
	// Degenerate benchmark.
	d := Benchmark{Lo: 5, Hi: 5}
	if got := d.Normalize(5, true); got != 0.5 {
		t.Errorf("degenerate Normalize = %v, want 0.5", got)
	}
}

// fixtureSourceRecord builds a hand-computable record:
//   - 2 open discussions in "place" (3 and 1 comments), 1 closed in "pulse"
//     (2 comments), 1 open off-topic (no comments);
//   - the comments carry 2, 2 and 1 tags per discussion, and their
//     authors are users 1, 2, 1 / 3 / 2, 3.
func fixtureSourceRecord() *SourceRecord {
	obs := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	day := func(d int) time.Time { return obs.AddDate(0, 0, -d) }
	r := &SourceRecord{
		ID:   1,
		Name: "fixture",
		Host: "fixture.test",
		Discussions: []DiscussionStat{
			{Category: "place", Opened: day(10), Open: true, TagCount: 2, Comments: 3, CommentTags: 2},
			{Category: "place", Opened: day(20), Open: true, TagCount: 1, Comments: 1, CommentTags: 2},
			{Category: "pulse", Opened: day(40), Open: false, TagCount: 3, Comments: 2, CommentTags: 1},
			{Category: "", Opened: day(5), Open: true, TagCount: 1},
		},
		InboundLinks:    7,
		FeedSubscribers: 40,
		Panel: PanelStat{
			TrafficRank:          3,
			DailyVisitors:        1000,
			DailyPageViews:       2500,
			BounceRate:           0.4,
			AvgTimeOnSiteSeconds: 120,
			PageViewsPerVisitor:  2.5,
			NewDiscussionsPerDay: 0.5,
		},
		ObservedAt:         obs,
		WindowDays:         180,
		MaxOpenDiscussions: 10,
	}
	r.IndexDiscussions(1, 2, 1, 3, 2, 3)
	return r
}

func evalSource(t *testing.T, id string, r *SourceRecord, di *DomainOfInterest) (float64, bool) {
	t.Helper()
	m, ok := SourceMeasureByID(id)
	if !ok {
		t.Fatalf("unknown measure %q", id)
	}
	return m.Eval(r, di)
}

func TestSourceMeasureValues(t *testing.T) {
	r := fixtureSourceRecord()
	di := &DomainOfInterest{Categories: []string{"place", "pulse"}}

	// Accuracy x Relevance: 2 open DI discussions out of 3 open.
	if v, ok := evalSource(t, "src.accuracy.relevance", r, di); !ok || v != 2.0/3.0 {
		t.Errorf("accuracy.relevance = %v, %v; want 2/3", v, ok)
	}
	// Accuracy x Breadth: comments per DI category: place 4, pulse 2 -> 3.
	if v, ok := evalSource(t, "src.accuracy.breadth", r, di); !ok || v != 3 {
		t.Errorf("accuracy.breadth = %v, want 3", v)
	}
	// Completeness x Relevance: centrality = 2 categories covered.
	if v, ok := evalSource(t, "src.completeness.relevance", r, di); !ok || v != 2 {
		t.Errorf("centrality = %v, want 2", v)
	}
	// Completeness x Breadth: open DI discussions per category: place has
	// 2 open, pulse none open -> 2/1 = 2.
	if v, ok := evalSource(t, "src.completeness.breadth", r, di); !ok || v != 2 {
		t.Errorf("completeness.breadth = %v, want 2", v)
	}
	// Completeness x Traffic: 3 open / max 10.
	if v, ok := evalSource(t, "src.completeness.traffic", r, di); !ok || v != 0.3 {
		t.Errorf("completeness.traffic = %v, want 0.3", v)
	}
	// Completeness x Liveliness: 6 comments / 3 distinct users.
	if v, ok := evalSource(t, "src.completeness.liveliness", r, di); !ok || v != 2 {
		t.Errorf("comments per user = %v, want 2", v)
	}
	// Time x Breadth: mean age of (10, 20, 40, 5) = 18.75 days.
	if v, ok := evalSource(t, "src.time.breadth", r, di); !ok || v != 18.75 {
		t.Errorf("thread age = %v, want 18.75", v)
	}
	// Time x Traffic: rank 3.
	if v, ok := evalSource(t, "src.time.traffic", r, di); !ok || v != 3 {
		t.Errorf("traffic rank = %v, want 3", v)
	}
	// Interpretability: tags (2+1+3+1 discussion + 1+0+1+2+0+1 comments) =
	// 12 over 4 discussions + 6 comments = 10 posts.
	if v, ok := evalSource(t, "src.interpretability.breadth", r, di); !ok || v != 1.2 {
		t.Errorf("tags per post = %v, want 1.2", v)
	}
	// Authority measures pass the panel through.
	if v, _ := evalSource(t, "src.authority.relevance.inbound", r, di); v != 7 {
		t.Errorf("inbound = %v", v)
	}
	if v, _ := evalSource(t, "src.authority.relevance.subscriptions", r, di); v != 40 {
		t.Errorf("subscriptions = %v", v)
	}
	if v, _ := evalSource(t, "src.authority.traffic.visitors", r, di); v != 1000 {
		t.Errorf("visitors = %v", v)
	}
	if v, _ := evalSource(t, "src.authority.liveliness", r, di); v != 2.5 {
		t.Errorf("pages per visitor = %v", v)
	}
	// Dependability x Breadth: 6 comments / 4 discussions.
	if v, _ := evalSource(t, "src.dependability.breadth", r, di); v != 1.5 {
		t.Errorf("comments per discussion = %v, want 1.5", v)
	}
	// Dependability x Relevance: bounce rate.
	if v, _ := evalSource(t, "src.dependability.relevance", r, di); v != 0.4 {
		t.Errorf("bounce = %v", v)
	}
	// Dependability x Liveliness: mean of per-thread comments/age:
	// 3/10 + 1/20 + 2/40 + 0/5 = 0.3+0.05+0.05+0 = 0.4 / 4 = 0.1.
	if v, _ := evalSource(t, "src.dependability.liveliness", r, di); v < 0.1-1e-12 || v > 0.1+1e-12 {
		t.Errorf("comments per discussion per day = %v, want 0.1", v)
	}
}

func TestSourceMeasureDIRestriction(t *testing.T) {
	r := fixtureSourceRecord()
	// Restrict DI to pulse only: centrality becomes 1, accuracy.relevance
	// 0/3 (no open pulse discussions).
	di := &DomainOfInterest{Categories: []string{"pulse"}}
	if v, _ := evalSource(t, "src.completeness.relevance", r, di); v != 1 {
		t.Errorf("centrality = %v, want 1", v)
	}
	if v, ok := evalSource(t, "src.accuracy.relevance", r, di); !ok || v != 0 {
		t.Errorf("accuracy.relevance = %v, want 0", v)
	}
	// Time-window restriction: only discussions opened in the last 15
	// days count (place day-10 and off-topic day-5, but off-topic has no
	// category).
	diTime := &DomainOfInterest{Start: r.ObservedAt.AddDate(0, 0, -15)}
	if v, _ := evalSource(t, "src.completeness.relevance", r, diTime); v != 1 {
		t.Errorf("windowed centrality = %v, want 1", v)
	}
}

func TestSourceMeasureNA(t *testing.T) {
	empty := &SourceRecord{ID: 9, ObservedAt: time.Now()}
	di := &DomainOfInterest{}
	for _, id := range []string{
		"src.accuracy.relevance", "src.accuracy.breadth",
		"src.completeness.breadth", "src.completeness.traffic",
		"src.completeness.liveliness", "src.time.breadth",
		"src.time.traffic", "src.interpretability.breadth",
		"src.dependability.breadth", "src.dependability.liveliness",
		"src.authority.liveliness",
	} {
		if _, ok := evalSource(t, id, empty, di); ok {
			t.Errorf("measure %q should be N/A on an empty record", id)
		}
	}
	// Centrality is defined (zero) even on an empty record.
	if v, ok := evalSource(t, "src.completeness.relevance", empty, di); !ok || v != 0 {
		t.Errorf("centrality on empty = %v, %v", v, ok)
	}
}
