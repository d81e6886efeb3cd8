package informer

// The influencer read is a contributor query ranked by influence, served
// through the same spines, spine repairs and per-snapshot cache as every
// other read. Across mixed rounds — Advance, AdvanceSameDay and Ingest +
// DrainTick — at every equivalence shard count, Corpus.Influencers must
// equal the retired roster model (refInfluencers below) computed on a
// rebuild of the advanced world: same contributors in the same order,
// bitwise-equal influence scores, equal assessments. Each round first
// reads every influencer query, so the next round's reads repair the
// carried spines (dirty rows re-ranked through leanEval) wherever the
// carry is licensed; the suite pins that repairs actually happen.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/informing-observers/informer/internal/webgen"
)

var influencerStrategies = []InfluencerStrategy{ByActivity, ByRelative, Combined}

// refInfluence is the roster model's influence score: the mean of the
// present absolute-activity measures times (Combined), or alone, the mean
// of the present relative-reaction measures, 0 when none is present.
func refInfluence(as *Assessment, s InfluencerStrategy) float64 {
	avg := func(ids ...string) float64 {
		var sum float64
		n := 0
		for _, id := range ids {
			if v, ok := as.Normalized[id]; ok {
				sum += v
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	abs := avg("usr.completeness.activity", "usr.time.activity")
	rel := avg("usr.authority.relevance", "usr.dependability.relevance")
	switch s {
	case ByActivity:
		return abs
	case ByRelative:
		return rel
	}
	return abs * rel
}

// refInfluencers is the roster model: assess every contributor at or
// above the floor, score, sort by (influence desc, ID asc), truncate.
func refInfluencers(c *Corpus, s InfluencerStrategy, minInteractions, topK int) []Influencer {
	env := c.state.Load().env
	var kept []*ContributorRecord
	for _, r := range env.ContributorRecords {
		if r.Interactions >= minInteractions {
			kept = append(kept, r)
		}
	}
	out := make([]Influencer, len(kept))
	for i, as := range env.Contributors.AssessAll(kept) {
		out[i] = Influencer{Record: kept[i], Assessment: as, InfluenceScore: refInfluence(as, s)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InfluenceScore != out[j].InfluenceScore {
			return out[i].InfluenceScore > out[j].InfluenceScore
		}
		return out[i].Record.ID < out[j].Record.ID
	})
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out
}

func influencerQuery(s InfluencerStrategy, minInteractions, topK int) Query {
	return NewQuery().SortByInfluence(s).MinInteractions(minInteractions).TopK(topK).Build()
}

func TestInfluencerRepairMatchesRebuild(t *testing.T) {
	const seed = 311
	world := webgen.Generate(webgen.Config{Seed: seed, NumSources: 50, NumUsers: 220, CommentText: true})
	repairs := int64(0)
	for _, ns := range equivShardCounts {
		c := FromWorldSharded(world, DomainOfInterest{}, seed, ns)
		rng := rand.New(rand.NewSource(seed + int64(ns)))
		for round := 0; round < 6; round++ {
			for _, s := range influencerStrategies {
				for _, mi := range []int{0, 1, 50} {
					if _, err := c.Influencers(influencerQuery(s, mi, 0)); err != nil {
						t.Fatal(err)
					}
				}
			}
			switch round % 3 {
			case 0:
				c.Advance(1, int64(9000+round))
			case 1:
				n := len(c.World().Sources)
				c.AdvanceSameDay(int64(9100+round), []int{round % n, (round + 7) % n})
			case 2:
				for i, id := range skewedTicks(rng, c.World(), 6) {
					c.Ingest(id, int64(9200+round*10+i))
				}
				c.DrainTick()
			}
			fresh := FromWorldSharded(c.World(), DomainOfInterest{}, seed, ns)
			for _, s := range influencerStrategies {
				for _, mi := range []int{0, 1, 50} {
					for _, k := range []int{0, 10} {
						label := fmt.Sprintf("shards %d round %d %v min %d k %d", ns, round, s, mi, k)
						got, err := c.Influencers(influencerQuery(s, mi, k))
						if err != nil {
							t.Fatal(err)
						}
						requireSameInfluencers(t, label, got, refInfluencers(fresh, s, mi, k))
					}
				}
			}
			s := influencerStrategies[round%len(influencerStrategies)]
			walkInfluencers(t, c, s, refInfluencers(fresh, s, 1, 0), fmt.Sprintf("shards %d round %d walk", ns, round))
			repairs += c.state.Load().env.Contributors.SpineStats().Repairs
		}
	}
	if repairs == 0 {
		t.Fatal("no influencer spine was ever repaired; the equivalence above never exercised RepairSpine")
	}
}

// TestCorpusInfluencersScoresOnlyAndSortGuard: the influence score comes
// from the ranking itself, so a scores-only page carries the reference
// bits too, and a query ranked by anything but influence is refused.
func TestCorpusInfluencersScoresOnlyAndSortGuard(t *testing.T) {
	c := New(Config{Seed: 181, NumSources: 40, NumUsers: 150, SpamRate: 0.2})
	for _, s := range influencerStrategies {
		got, err := c.Influencers(NewQuery().SortByInfluence(s).MinInteractions(1).ScoresOnly().Build())
		if err != nil {
			t.Fatal(err)
		}
		want := refInfluencers(c, s, 1, 0)
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
	for _, q := range []Query{{}, NewQuery().MinInteractions(1).Build()} {
		if _, err := c.Influencers(q); err == nil {
			t.Errorf("Influencers accepted a query ranked by %v", q.Sort.By)
		}
	}
}

// requireSameInfluencers fails unless got equals want rank by rank.
func requireSameInfluencers(t *testing.T, label string, got, want []Influencer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d influencers, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Record.ID != w.Record.ID || math.Float64bits(g.InfluenceScore) != math.Float64bits(w.InfluenceScore) {
			t.Fatalf("%s rank %d: (%d, %v), reference (%d, %v)", label, i, g.Record.ID, g.InfluenceScore, w.Record.ID, w.InfluenceScore)
		}
		if !reflect.DeepEqual(g.Record, w.Record) || !reflect.DeepEqual(g.Assessment, w.Assessment) {
			t.Fatalf("%s rank %d: record or assessment diverges", label, i)
		}
	}
}

// walkInfluencers pages through the influence ranking seven rows at a time
// by keyset cursor and requires the concatenated pages to equal want.
func walkInfluencers(t *testing.T, c *Corpus, s InfluencerStrategy, want []Influencer, label string) {
	t.Helper()
	var got []Influencer
	var after *Cursor
	for page := 0; ; page++ {
		q := NewQuery().SortByInfluence(s).MinInteractions(1).Limit(7).Resume(after).Build()
		res, err := c.QueryContributors(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != len(want) {
			t.Fatalf("%s page %d: total %d, reference has %d", label, page, res.Total, len(want))
		}
		infs, err := c.Influencers(q)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, infs...)
		if res.Next == nil {
			break
		}
		if last := infs[len(infs)-1]; res.Next.ID != last.Record.ID || res.Next.Key != last.InfluenceScore {
			t.Fatalf("%s page %d: cursor %+v does not name the last row", label, page, res.Next)
		}
		after = res.Next
	}
	requireSameInfluencers(t, label, got, want)
}
