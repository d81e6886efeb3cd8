package quality

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

// InfluencerOptions, Influencers, scoreInfluencer, avgOf and
// sortInfluencers are the retired roster read model, kept verbatim as the
// reference the query path must equal: order, ties and InfluenceScore bits
// included.

// InfluencerOptions configures detection.
type InfluencerOptions struct {
	Strategy InfluencerStrategy
	// TopK bounds the result (0 = all, ranked).
	TopK int
	// MinInteractions drops users below a floor of absolute activity
	// before scoring (default 1).
	MinInteractions int
}

// Influencers detects opinion leaders among the contributors using the
// given assessor for normalisation. Results are best-first.
func Influencers(a *ContributorAssessor, records []*ContributorRecord, opts InfluencerOptions) []Influencer {
	minInteractions := opts.MinInteractions
	if minInteractions <= 0 {
		minInteractions = 1
	}
	kept := make([]*ContributorRecord, 0, len(records))
	for _, r := range records {
		if r.Interactions >= minInteractions {
			kept = append(kept, r)
		}
	}
	assessments := a.AssessAll(kept)
	out := make([]Influencer, 0, len(kept))
	for i, r := range kept {
		as := assessments[i]
		out = append(out, Influencer{Record: r, Assessment: as,
			InfluenceScore: scoreInfluencer(as, opts.Strategy)})
	}
	sortInfluencers(out)
	if opts.TopK > 0 && len(out) > opts.TopK {
		out = out[:opts.TopK]
	}
	return out
}

// scoreInfluencer computes the strategy-specific influence score from a
// contributor's assessment — bitwise the influence axis value the query
// engine ranks by.
func scoreInfluencer(as *Assessment, strategy InfluencerStrategy) float64 {
	return influence(strategy,
		avgOf(as.Normalized, absoluteActivityMeasures...),
		avgOf(as.Normalized, relativeReactionMeasures...))
}

// avgOf averages the values present among the given keys.
func avgOf(m map[string]float64, keys ...string) float64 {
	var sum float64
	n := 0
	for _, k := range keys {
		if v, ok := m[k]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func sortInfluencers(out []Influencer) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].InfluenceScore != out[j].InfluenceScore {
			return out[i].InfluenceScore > out[j].InfluenceScore
		}
		return out[i].Record.ID < out[j].Record.ID
	})
}

// influencerQuery is the query-path form of reference options: the
// strategy is the sort key and the floor of 1 the default.
func influencerQuery(opts InfluencerOptions) Query {
	return Query{
		Sort:            SortKey{By: SortByInfluence, Strategy: opts.Strategy},
		TopK:            opts.TopK,
		MinInteractions: max(opts.MinInteractions, 1),
	}
}

// queryInfluencers answers opts on the query path.
func queryInfluencers(t *testing.T, a *ContributorAssessor, records []*ContributorRecord, opts InfluencerOptions) []Influencer {
	t.Helper()
	q := influencerQuery(opts)
	res, err := a.Query(records, q)
	if err != nil {
		t.Fatal(err)
	}
	infs, err := InfluencersOf(q, res, records)
	if err != nil {
		t.Fatal(err)
	}
	return infs
}

// sameInfluencers fails unless got equals want: same records in the same
// order, bitwise-equal influence scores and equal assessments.
func sameInfluencers(t *testing.T, label string, got, want []Influencer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d influencers, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Record != w.Record || math.Float64bits(g.InfluenceScore) != math.Float64bits(w.InfluenceScore) {
			t.Fatalf("%s rank %d: (%d, %v), reference (%d, %v)", label, i, g.Record.ID, g.InfluenceScore, w.Record.ID, w.InfluenceScore)
		}
		if !reflect.DeepEqual(g.Assessment, w.Assessment) {
			t.Fatalf("%s rank %d: assessments diverge", label, i)
		}
	}
}

// influencerFixture builds a population with three behavioural archetypes:
// genuine influencers (high volume, high reactions), spammers (high volume,
// no reactions), and lurkers (low volume).
func influencerFixture() []*ContributorRecord {
	obs := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	mk := func(id, interactions, replies, feedbacks int, spam bool) *ContributorRecord {
		return &ContributorRecord{
			ID:                 id,
			Name:               "u",
			Joined:             obs.AddDate(0, 0, -200),
			CommentsByCategory: map[string]int{"place": interactions},
			DiscussionsTouched: interactions/2 + 1,
			Interactions:       interactions,
			RepliesReceived:    replies,
			FeedbacksReceived:  feedbacks,
			ObservedAt:         obs,
			Spammer:            spam,
		}
	}
	var recs []*ContributorRecord
	// 5 genuine influencers: volume 100, 300 replies, 200 feedbacks.
	for i := 0; i < 5; i++ {
		recs = append(recs, mk(i, 100, 300, 200, false))
	}
	// 5 spammers: volume 500, almost no reactions.
	for i := 5; i < 10; i++ {
		recs = append(recs, mk(i, 500, 2, 1, true))
	}
	// 20 lurkers: volume 3, a couple reactions.
	for i := 10; i < 30; i++ {
		recs = append(recs, mk(i, 3, 2, 1, false))
	}
	return recs
}

func TestInfluencersByActivityPromotesSpam(t *testing.T) {
	recs := influencerFixture()
	a := NewContributorAssessor(recs, DomainOfInterest{}, nil)
	top := queryInfluencers(t, a, recs, InfluencerOptions{Strategy: ByActivity, TopK: 5})
	spam := 0
	for _, inf := range top {
		if inf.Record.Spammer {
			spam++
		}
	}
	// The naive volume ranking is dominated by spammers — the failure mode
	// Section 3.2 warns about.
	if spam < 3 {
		t.Errorf("expected spam-dominated top-5 under ByActivity, got %d spammers", spam)
	}
}

func TestInfluencersCombinedFiltersSpam(t *testing.T) {
	recs := influencerFixture()
	a := NewContributorAssessor(recs, DomainOfInterest{}, nil)
	top := queryInfluencers(t, a, recs, InfluencerOptions{Strategy: Combined, TopK: 5})
	if len(top) != 5 {
		t.Fatalf("top = %d", len(top))
	}
	for _, inf := range top {
		if inf.Record.Spammer {
			t.Errorf("spammer %d survived the combined strategy", inf.Record.ID)
		}
	}
	// All five genuine influencers make the cut.
	ids := map[int]bool{}
	for _, inf := range top {
		ids[inf.Record.ID] = true
	}
	for i := 0; i < 5; i++ {
		if !ids[i] {
			t.Errorf("genuine influencer %d missing from top-5", i)
		}
	}
}

func TestInfluencersSortedAndBounded(t *testing.T) {
	recs := influencerFixture()
	a := NewContributorAssessor(recs, DomainOfInterest{}, nil)
	all := queryInfluencers(t, a, recs, InfluencerOptions{Strategy: Combined})
	if len(all) != len(recs) {
		t.Fatalf("unbounded result = %d, want %d", len(all), len(recs))
	}
	for i := 1; i < len(all); i++ {
		if all[i].InfluenceScore > all[i-1].InfluenceScore {
			t.Fatal("not sorted")
		}
	}
	for _, inf := range all {
		if inf.InfluenceScore < 0 || inf.InfluenceScore > 1 {
			t.Errorf("score %v out of range", inf.InfluenceScore)
		}
		if inf.Assessment == nil {
			t.Error("missing assessment")
		}
	}
}

func TestInfluencersMinInteractions(t *testing.T) {
	recs := influencerFixture()
	a := NewContributorAssessor(recs, DomainOfInterest{}, nil)
	got := queryInfluencers(t, a, recs, InfluencerOptions{Strategy: Combined, MinInteractions: 50})
	for _, inf := range got {
		if inf.Record.Interactions < 50 {
			t.Errorf("record with %d interactions passed the floor", inf.Record.Interactions)
		}
	}
	// Zero-interaction users are always dropped (in place of a lurker,
	// so the query scans it).
	zero := append([]*ContributorRecord(nil), recs...)
	zero[29] = &ContributorRecord{ID: 99, CommentsByCategory: map[string]int{}}
	got = queryInfluencers(t, a, zero, InfluencerOptions{})
	if len(got) != len(recs)-1 {
		t.Errorf("%d influencers, want every record but the zero-interaction one", len(got))
	}
	for _, inf := range got {
		if inf.Record.ID == 99 {
			t.Error("zero-interaction user detected as influencer")
		}
	}
}

// TestInfluencersMatchReference pins the query path to the retired roster
// model across strategies, floors, bounds and shard counts — on the
// engine's own rows (axis columns), on a record set with a foreign row
// (leanEval) and after a repaired spine (RepairSpine re-evaluates the
// dirty rows through leanEval).
func TestInfluencersMatchReference(t *testing.T) {
	recs := influencerFixture()
	// A foreign row: a record the engine was not built over, in place of
	// a lurker.
	foreign := append([]*ContributorRecord(nil), recs...)
	foreign[12] = &ContributorRecord{
		ID: 12, Name: "late", Joined: recs[0].Joined, ObservedAt: recs[0].ObservedAt,
		CommentsByCategory: map[string]int{"place": 80}, DiscussionsTouched: 30,
		Interactions: 80, RepliesReceived: 250, FeedbacksReceived: 90,
	}
	repaired := 0
	for _, shards := range []int{1, 3} {
		a := NewContributorAssessor(recs, DomainOfInterest{}, &AssessorOptions{Shards: shards})
		for _, s := range []InfluencerStrategy{ByActivity, ByRelative, Combined} {
			for _, mi := range []int{0, 1, 50} {
				for _, k := range []int{0, 4} {
					opts := InfluencerOptions{Strategy: s, MinInteractions: mi, TopK: k}
					for name, set := range map[string][]*ContributorRecord{"own": recs, "foreign": foreign} {
						label := fmt.Sprintf("shards=%d %s %+v", shards, name, opts)
						sameInfluencers(t, label, queryInfluencers(t, a, set, opts), Influencers(a, set, opts))
					}
				}
			}
			// Repair: move two rows' activity and re-derive the spine.
			next := append([]*ContributorRecord(nil), recs...)
			for _, row := range []int{2, 7} {
				r := *next[row]
				r.Interactions, r.RepliesReceived = r.Interactions+40, r.RepliesReceived+5
				next[row] = &r
			}
			q := influencerQuery(InfluencerOptions{Strategy: s})
			prev, err := a.Spine(recs, q)
			if err != nil {
				t.Fatal(err)
			}
			na := a.UpdateRows(next, []int{2, 7}, false)
			sp, ok := na.RepairSpine(next, prev, q)
			if !ok {
				// The benchmarks moved: the carry is refused, as it must be.
				continue
			}
			res, err := na.Window(next, sp, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := InfluencersOf(q, res, next)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("shards=%d repaired %v", shards, s)
			sameInfluencers(t, label, got, Influencers(na, next, InfluencerOptions{Strategy: s}))
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatal("no spine repair was licensed; the repair check above is vacuous")
	}
}

// TestInfluencersOfProjectionAndSort: the influence score is the
// candidate's sort key, so a scores-only page carries the reference bits
// too; a page ranked by anything but influence is refused rather than
// labelled with a score it was not ranked by.
func TestInfluencersOfProjectionAndSort(t *testing.T) {
	recs := influencerFixture()
	a := NewContributorAssessor(recs, DomainOfInterest{}, nil)
	for _, s := range []InfluencerStrategy{ByActivity, ByRelative, Combined} {
		opts := InfluencerOptions{Strategy: s}
		q := influencerQuery(opts)
		q.Fields = ProjectScores
		res, err := a.Query(recs, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := InfluencersOf(q, res, recs)
		if err != nil {
			t.Fatal(err)
		}
		want := Influencers(a, recs, opts)
		if len(got) != len(want) {
			t.Fatalf("%v: %d influencers, reference has %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i].Record != want[i].Record || math.Float64bits(got[i].InfluenceScore) != math.Float64bits(want[i].InfluenceScore) {
				t.Fatalf("%v scores-only rank %d: (%d, %v), reference (%d, %v)", s, i,
					got[i].Record.ID, got[i].InfluenceScore, want[i].Record.ID, want[i].InfluenceScore)
			}
		}
	}
	for _, q := range []Query{{}, {Sort: SortKey{By: SortByScore, Strategy: Combined}}} {
		res, err := a.Query(recs, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := InfluencersOf(q, res, recs); err == nil {
			t.Errorf("sort %v: InfluencersOf accepted a page not ranked by influence", q.Sort)
		}
	}
}

func TestInfluencerStrategyString(t *testing.T) {
	if ByActivity.String() != "by-activity" || ByRelative.String() != "by-relative" || Combined.String() != "combined" {
		t.Error("strategy strings wrong")
	}
	if InfluencerStrategy(9).String() != "unknown" {
		t.Error("unknown strategy should say so")
	}
}

func TestAvgOf(t *testing.T) {
	m := map[string]float64{"a": 1, "b": 3}
	if got := avgOf(m, "a", "b"); got != 2 {
		t.Errorf("avgOf = %v", got)
	}
	if got := avgOf(m, "a", "missing"); got != 1 {
		t.Errorf("avgOf with missing = %v", got)
	}
	if got := avgOf(m, "missing"); got != 0 {
		t.Errorf("avgOf all missing = %v", got)
	}
}
