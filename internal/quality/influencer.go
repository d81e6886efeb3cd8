package quality

import "fmt"

// InfluencerStrategy selects how influence is scored. Section 3.2 argues
// that distinguishing absolute interaction volumes from relative (per-
// contribution) reaction rates both identifies users who trigger reactions
// efficiently and filters spammers and bots, whose absolute volume is high
// but whose relative reactions are near zero.
type InfluencerStrategy int

const (
	// ByActivity ranks by absolute interaction volume only (the naive
	// baseline the paper criticises: spammers score high).
	ByActivity InfluencerStrategy = iota
	// ByRelative ranks by per-contribution reaction rates only (penalises
	// prolific-but-ignored users, but also buries steady high-volume
	// contributors).
	ByRelative
	// Combined multiplies normalised absolute and relative signals — the
	// paper's "smart combination".
	Combined
)

// numStrategies counts the strategies: one influence axis each.
const numStrategies = int(Combined) + 1

// String implements fmt.Stringer.
func (s InfluencerStrategy) String() string {
	switch s {
	case ByActivity:
		return "by-activity"
	case ByRelative:
		return "by-relative"
	case Combined:
		return "combined"
	default:
		return "unknown"
	}
}

// absoluteActivityMeasures form the absolute influence signal: the user's
// own contribution volume and its raw visibility. Reactions received stay
// out of it — they belong to the relative side, which is exactly what
// lets the combination expose spammers (huge own volume, no reactions).
var absoluteActivityMeasures = []string{
	"usr.completeness.activity",
	"usr.time.activity",
}

// relativeReactionMeasures are the normalised per-contribution reaction
// rates forming the relative influence signal — the quantity that stays
// near zero for spammers and bots however high their absolute volume.
// The Combined strategy multiplies it in, and Query's MinSpamResistance
// predicate thresholds it directly.
var relativeReactionMeasures = []string{
	"usr.authority.relevance",
	"usr.dependability.relevance",
}

// Influencer is one detected opinion leader.
type Influencer struct {
	Record *ContributorRecord
	// Assessment is the full Table 2 evaluation.
	Assessment *Assessment
	// InfluenceScore is the strategy-specific ranking score in [0, 1].
	InfluenceScore float64
}

// InfluencersOf pairs each item of res — the page of q, a contributor
// query ranked by SortByInfluence, executed over records — with its record
// and its influence under q's strategy: the candidate's sort key, so the
// score is there under any projection. Only the page was ever assessed;
// the ranking itself ran on the influence axis column.
func InfluencersOf(q Query, res *QueryResult, records []*ContributorRecord) ([]Influencer, error) {
	if q.Sort.By != SortByInfluence {
		return nil, fmt.Errorf("quality: influencers need SortByInfluence, got sort key %d", q.Sort.By)
	}
	out := make([]Influencer, len(res.Items))
	for i, as := range res.Items {
		out[i] = Influencer{Record: records[res.cands[i].row], Assessment: as, InfluenceScore: res.cands[i].key}
	}
	return out, nil
}

// influence combines the absolute and relative signals under a strategy.
func influence(strategy InfluencerStrategy, abs, rel float64) float64 {
	switch strategy {
	case ByActivity:
		return abs
	case ByRelative:
		return rel
	default:
		return abs * rel
	}
}
