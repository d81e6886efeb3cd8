package informer

// The fluent query builder: the ergonomic face of the Query model
// (DESIGN.md section 7). A QueryBuilder composes the declarative request —
// scope, quality predicates, ranking axis, top-k, pagination, projection —
// that QuerySources, QueryContributors, QueryRecords and the /api/v1 HTTP
// layer all execute against one immutable assessment snapshot:
//
//	res, err := c.QuerySources(informer.NewQuery().
//	        Categories("place").
//	        MinScore(0.6).
//	        MinDimension(informer.Time, 0.5).
//	        TopK(10).
//	        Build())
//
// Execution pushes every predicate below the ranking: with a top-k bound
// the assessor streams matches through a bounded heap over its cached
// measure matrix and materializes only the winners, instead of assessing
// and sorting the whole corpus.

import "github.com/informing-observers/informer/internal/quality"

// Query is the declarative, composable read request executed against an
// assessment snapshot; see quality.Query for field semantics. The zero
// Query matches everything, ranked by overall score.
type Query = quality.Query

// QueryResult is an executed Query: the requested window of ranked
// assessments plus the pre-pagination match count.
type QueryResult = quality.QueryResult

// SortKey selects a query's ranking axis; see the builder's SortBy*
// methods.
type SortKey = quality.SortKey

// Cursor is an opaque keyset-pagination bound: QueryResult.Next of one
// page resumes the walk on the next via the builder's Resume (or
// Query.After). Resuming from a cursor costs the same lean pass as the
// first page: the scan skips everything at or before the cursor's ranked
// position instead of re-selecting the prefix.
type Cursor = quality.Cursor

// WindowChange is one row's rank movement between two assessment rounds of
// a standing query's window; see DiffWindows.
type WindowChange = quality.WindowChange

// DiffWindows diffs one query's ranked window across two assessment rounds
// and returns only the rows that entered, left or moved — the delta the
// /api/v1/watch endpoint pushes to observers tracking a standing filtered
// feed. Rows holding their rank are omitted.
func DiffWindows(old, new []*Assessment) []WindowChange {
	return quality.DiffWindows(old, new)
}

// QueryBuilder composes a Query fluently. Builders are single-use: call
// Build once, at the end of the chain; the zero builder (NewQuery) yields
// the match-everything query.
type QueryBuilder struct {
	q Query
}

// NewQuery starts a query that matches every record, ranked by overall
// score.
func NewQuery() *QueryBuilder { return &QueryBuilder{} }

// IDs restricts candidates to the given record IDs (e.g. a search result
// set to re-rank by quality).
func (b *QueryBuilder) IDs(ids ...int) *QueryBuilder {
	b.q.IDs = append(b.q.IDs, ids...)
	return b
}

// Categories restricts candidates to records active in at least one of the
// given content categories.
func (b *QueryBuilder) Categories(cats ...string) *QueryBuilder {
	b.q.Categories = append(b.q.Categories, cats...)
	return b
}

// Kinds restricts source candidates by source kind ("blog", "forum",
// "review-site", "social-network").
func (b *QueryBuilder) Kinds(kinds ...string) *QueryBuilder {
	b.q.Kinds = append(b.q.Kinds, kinds...)
	return b
}

// MinScore keeps records whose overall weighted score clears the bar.
func (b *QueryBuilder) MinScore(v float64) *QueryBuilder {
	b.q.MinScore = v
	return b
}

// MinDimension keeps records whose average over one data-quality dimension
// clears the bar.
func (b *QueryBuilder) MinDimension(d Dimension, v float64) *QueryBuilder {
	if b.q.MinDimension == nil {
		b.q.MinDimension = map[Dimension]float64{}
	}
	b.q.MinDimension[d] = v
	return b
}

// MinAttribute keeps records whose average over one Web 2.0 attribute
// clears the bar.
func (b *QueryBuilder) MinAttribute(a Attribute, v float64) *QueryBuilder {
	if b.q.MinAttribute == nil {
		b.q.MinAttribute = map[Attribute]float64{}
	}
	b.q.MinAttribute[a] = v
	return b
}

// MinMeasure thresholds one normalized measure by its catalogue ID.
func (b *QueryBuilder) MinMeasure(id string, v float64) *QueryBuilder {
	if b.q.MinMeasure == nil {
		b.q.MinMeasure = map[string]float64{}
	}
	b.q.MinMeasure[id] = v
	return b
}

// SpamResistant keeps contributors whose relative reaction signal (Section
// 3.2's per-contribution reaction rates, near zero for spammers and bots)
// clears the bar. Contributor queries only.
func (b *QueryBuilder) SpamResistant(min float64) *QueryBuilder {
	b.q.MinSpamResistance = min
	return b
}

// SortByScore ranks by the overall weighted score (the default).
func (b *QueryBuilder) SortByScore() *QueryBuilder {
	b.q.Sort = SortKey{By: quality.SortByScore}
	return b
}

// SortByDimension ranks by one dimension's average score.
func (b *QueryBuilder) SortByDimension(d Dimension) *QueryBuilder {
	b.q.Sort = SortKey{By: quality.SortByDimension, Dimension: d}
	return b
}

// SortByAttribute ranks by one attribute's average score.
func (b *QueryBuilder) SortByAttribute(a Attribute) *QueryBuilder {
	b.q.Sort = SortKey{By: quality.SortByAttribute, Attribute: a}
	return b
}

// SortByInfluence ranks contributors by their influence under one
// strategy (Section 3.2); Corpus.Influencers pairs the page with its
// records. Contributor queries only.
func (b *QueryBuilder) SortByInfluence(s InfluencerStrategy) *QueryBuilder {
	b.q.Sort = SortKey{By: quality.SortByInfluence, Strategy: s}
	return b
}

// MinInteractions keeps contributors with at least n interactions.
// Contributor queries only.
func (b *QueryBuilder) MinInteractions(n int) *QueryBuilder {
	b.q.MinInteractions = n
	return b
}

// TopK bounds the ranked selection to the k best matches.
func (b *QueryBuilder) TopK(k int) *QueryBuilder {
	b.q.TopK = k
	return b
}

// Limit bounds one page of results — the first page of a cursor walk;
// follow it with Resume(res.Next) for the pages after.
func (b *QueryBuilder) Limit(n int) *QueryBuilder {
	b.q.Limit = n
	return b
}

// Resume continues a keyset-paginated walk strictly after the cursor (the
// QueryResult.Next of the previous page). A nil cursor is the first
// page.
func (b *QueryBuilder) Resume(c *Cursor) *QueryBuilder {
	b.q.After = c
	return b
}

// ScoresOnly skips the per-measure Raw/Normalized maps in the results —
// the lean projection the serving layer uses.
func (b *QueryBuilder) ScoresOnly() *QueryBuilder {
	b.q.Fields = quality.ProjectScores
	return b
}

// Build returns the composed Query.
func (b *QueryBuilder) Build() Query { return b.q }
