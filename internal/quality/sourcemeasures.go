package quality

// SourceMeasure is one non-N/A cell of Table 1: a named, documented
// evaluator over a SourceRecord. Eval returns ok=false when the measure is
// undefined for the record (e.g. a ratio with an empty denominator).
type SourceMeasure struct {
	// ID is stable and hierarchical, e.g. "src.accuracy.relevance".
	ID          string
	Description string
	Dimension   Dimension
	Attribute   Attribute
	Provenance  Provenance
	// DomainDependent marks the italic cells: measures whose value depends
	// on the Domain of Interest.
	DomainDependent bool
	// HigherIsBetter orients normalisation; e.g. traffic rank and bounce
	// rate improve downward.
	HigherIsBetter bool
	// TimeSensitive marks measures whose value can change when the
	// observation instant moves even though the record's own content did
	// not: ages measured from ObservedAt, per-day rates over the window,
	// and comparisons against corpus-wide bases (MaxOpenDiscussions, the
	// panel's per-day activity estimate). Incremental advancement
	// (UpdateRows) re-evaluates these for every record on each tick;
	// everything else is re-evaluated only for dirty records.
	TimeSensitive bool
	Eval          func(r *SourceRecord, di *DomainOfInterest) (float64, bool)
}

// split separates the measure into the engine's metadata and evaluator.
func (m SourceMeasure) split() (measureInfo, func(*SourceRecord, *DomainOfInterest) (float64, bool)) {
	return measureInfo{id: m.ID, dimension: m.Dimension, attribute: m.Attribute, higherIsBetter: m.HigherIsBetter, timeSensitive: m.TimeSensitive}, m.Eval
}

// atLeastOneDay clamps a thread age in days to one day, so a thread
// opened today counts its comments as one day's.
func atLeastOneDay(days float64) float64 {
	if days < 1 {
		return 1
	}
	return days
}

// relevantDiscussion reports whether d belongs to the DI (category and time
// window).
func relevantDiscussion(d *DiscussionStat, di *DomainOfInterest) bool {
	return di.InCategory(d.Category) && di.InWindow(d.Opened)
}

// sourceMeasures is the full Table 1 catalogue, in row-major table order.
var sourceMeasures = []SourceMeasure{
	{
		ID:              "src.accuracy.relevance",
		Description:     "open discussions covering the DI content categories over total discussions",
		Dimension:       Accuracy,
		Attribute:       Relevance,
		Provenance:      Crawling,
		DomainDependent: true,
		HigherIsBetter:  true,
		Eval: func(r *SourceRecord, di *DomainOfInterest) (float64, bool) {
			total, covered := 0, 0
			for i := range r.Discussions {
				d := &r.Discussions[i]
				if !d.Open {
					continue
				}
				total++
				if relevantDiscussion(d, di) {
					covered++
				}
			}
			if total == 0 {
				return 0, false
			}
			return float64(covered) / float64(total), true
		},
	},
	{
		ID:              "src.accuracy.breadth",
		Description:     "average number of comments per DI content category",
		Dimension:       Accuracy,
		Attribute:       Breadth,
		Provenance:      Crawling,
		DomainDependent: true,
		HigherIsBetter:  true,
		Eval: func(r *SourceRecord, di *DomainOfInterest) (float64, bool) {
			perCat := map[string]int{}
			for i := range r.Discussions {
				d := &r.Discussions[i]
				if !relevantDiscussion(d, di) {
					continue
				}
				perCat[d.Category] += d.Comments
			}
			if len(perCat) == 0 {
				return 0, false
			}
			total := 0
			for _, n := range perCat {
				total += n
			}
			return float64(total) / float64(len(perCat)), true
		},
	},
	{
		ID:              "src.completeness.relevance",
		Description:     "centrality: number of DI content categories covered",
		Dimension:       Completeness,
		Attribute:       Relevance,
		Provenance:      Crawling,
		DomainDependent: true,
		HigherIsBetter:  true,
		Eval: func(r *SourceRecord, di *DomainOfInterest) (float64, bool) {
			cats := map[string]bool{}
			for i := range r.Discussions {
				d := &r.Discussions[i]
				if relevantDiscussion(d, di) {
					cats[d.Category] = true
				}
			}
			return float64(len(cats)), true
		},
	},
	{
		ID:              "src.completeness.breadth",
		Description:     "open discussions per DI content category",
		Dimension:       Completeness,
		Attribute:       Breadth,
		Provenance:      Crawling,
		DomainDependent: true,
		HigherIsBetter:  true,
		Eval: func(r *SourceRecord, di *DomainOfInterest) (float64, bool) {
			perCat := map[string]int{}
			for i := range r.Discussions {
				d := &r.Discussions[i]
				if d.Open && relevantDiscussion(d, di) {
					perCat[d.Category]++
				}
			}
			if len(perCat) == 0 {
				return 0, false
			}
			total := 0
			for _, n := range perCat {
				total += n
			}
			return float64(total) / float64(len(perCat)), true
		},
	},
	{
		ID:             "src.completeness.traffic",
		TimeSensitive:  true,
		Description:    "open discussions compared to the largest Web blog/forum",
		Dimension:      Completeness,
		Attribute:      Traffic,
		Provenance:     Crawling,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if r.MaxOpenDiscussions == 0 {
				return 0, false
			}
			return float64(r.OpenDiscussions()) / float64(r.MaxOpenDiscussions), true
		},
	},
	{
		ID:             "src.completeness.liveliness",
		Description:    "number of comments per user",
		Dimension:      Completeness,
		Attribute:      Liveliness,
		Provenance:     Crawling,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			users := r.DistinctCommenters()
			if users == 0 {
				return 0, false
			}
			return float64(r.TotalComments()) / float64(users), true
		},
	},
	{
		ID:            "src.time.breadth",
		TimeSensitive: true,
		Description:   "average age of discussion threads (days)",
		Dimension:     Time,
		Attribute:     Breadth,
		Provenance:    Crawling,
		// Fresher threads respond to newer issues; large average age means
		// a stale board, so the measure improves downward.
		HigherIsBetter: false,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if len(r.Discussions) == 0 || r.ObservedAt.IsZero() {
				return 0, false
			}
			var sum float64
			if obsNs, ok := r.ageClock(); ok {
				for _, o := range r.opened {
					sum += ageDays(obsNs, o)
				}
			} else {
				for i := range r.Discussions {
					sum += r.ObservedAt.Sub(r.Discussions[i].Opened).Hours() / 24
				}
			}
			return sum / float64(len(r.Discussions)), true
		},
	},
	{
		ID:             "src.time.traffic",
		Description:    "traffic rank (panel; 1 = most traffic)",
		Dimension:      Time,
		Attribute:      Traffic,
		Provenance:     Panel,
		HigherIsBetter: false,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if r.Panel.TrafficRank <= 0 {
				return 0, false
			}
			return float64(r.Panel.TrafficRank), true
		},
	},
	{
		ID:             "src.time.liveliness",
		TimeSensitive:  true,
		Description:    "average number of newly opened discussions per day (panel)",
		Dimension:      Time,
		Attribute:      Liveliness,
		Provenance:     Panel,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			return r.Panel.NewDiscussionsPerDay, true
		},
	},
	{
		ID:             "src.interpretability.breadth",
		Description:    "average number of distinct tags per post",
		Dimension:      Interpretability,
		Attribute:      Breadth,
		Provenance:     Crawling,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			posts, tags := 0, 0
			for i := range r.Discussions {
				d := &r.Discussions[i]
				posts += 1 + d.Comments
				tags += d.TagCount + d.CommentTags
			}
			if posts == 0 {
				return 0, false
			}
			return float64(tags) / float64(posts), true
		},
	},
	{
		ID:             "src.authority.relevance.inbound",
		Description:    "number of inbound links (panel)",
		Dimension:      Authority,
		Attribute:      Relevance,
		Provenance:     Panel,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			return float64(r.InboundLinks), true
		},
	},
	{
		ID:             "src.authority.relevance.subscriptions",
		Description:    "number of feed subscriptions (Feedburner substitute)",
		Dimension:      Authority,
		Attribute:      Relevance,
		Provenance:     Panel,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			return float64(r.FeedSubscribers), true
		},
	},
	{
		ID:             "src.authority.traffic.visitors",
		Description:    "daily visitors (panel)",
		Dimension:      Authority,
		Attribute:      Traffic,
		Provenance:     Panel,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			return r.Panel.DailyVisitors, true
		},
	},
	{
		ID:             "src.authority.traffic.pageviews",
		Description:    "daily page views (panel)",
		Dimension:      Authority,
		Attribute:      Traffic,
		Provenance:     Panel,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			return r.Panel.DailyPageViews, true
		},
	},
	{
		ID:             "src.authority.traffic.timeonsite",
		Description:    "average time spent on site, seconds (panel)",
		Dimension:      Authority,
		Attribute:      Traffic,
		Provenance:     Panel,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			return r.Panel.AvgTimeOnSiteSeconds, true
		},
	},
	{
		ID:             "src.authority.liveliness",
		Description:    "daily page views per daily visitor (panel)",
		Dimension:      Authority,
		Attribute:      Liveliness,
		Provenance:     Panel,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if r.Panel.DailyVisitors <= 0 {
				return 0, false
			}
			return r.Panel.DailyPageViews / r.Panel.DailyVisitors, true
		},
	},
	{
		ID:             "src.dependability.relevance",
		Description:    "bounce rate (panel)",
		Dimension:      Dependability,
		Attribute:      Relevance,
		Provenance:     Panel,
		HigherIsBetter: false,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			return r.Panel.BounceRate, true
		},
	},
	{
		ID:             "src.dependability.breadth",
		Description:    "number of comments per discussion",
		Dimension:      Dependability,
		Attribute:      Breadth,
		Provenance:     Crawling,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if len(r.Discussions) == 0 {
				return 0, false
			}
			return float64(r.TotalComments()) / float64(len(r.Discussions)), true
		},
	},
	{
		ID:             "src.dependability.liveliness",
		TimeSensitive:  true,
		Description:    "average number of comments per discussion per day",
		Dimension:      Dependability,
		Attribute:      Liveliness,
		Provenance:     Crawling,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if len(r.Discussions) == 0 || r.ObservedAt.IsZero() {
				return 0, false
			}
			// The carried opening instants give each term the same bits in
			// the same order as the walk over the discussion stats alone.
			var sum float64
			if obsNs, ok := r.ageClock(); ok {
				for i, o := range r.opened {
					sum += float64(r.Discussions[i].Comments) / atLeastOneDay(ageDays(obsNs, o))
				}
			} else {
				for i := range r.Discussions {
					d := &r.Discussions[i]
					sum += float64(d.Comments) / atLeastOneDay(r.ObservedAt.Sub(d.Opened).Hours()/24)
				}
			}
			return sum / float64(len(r.Discussions)), true
		},
	},
	{
		// Joined in by the correlation engine (internal/correlate,
		// DESIGN.md section 14): not one of the paper's original 19, but it
		// flows through the same columnar/benchmark/sorted-column pipeline
		// as every Table 1 measure, so it is queryable, sortable, and
		// standing-query-filterable at every shard count.
		ID:             "src.originality",
		Description:    "share of the source's indexed comments that are not near-duplicates of earlier material on other sources",
		Dimension:      Accuracy,
		Attribute:      Relevance,
		Provenance:     Crawling,
		HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if r.CorrelatedComments == 0 {
				return 0, false // no index ran (or no text): undefined, not zero
			}
			return float64(r.CorrelatedComments-r.DuplicateComments) / float64(r.CorrelatedComments), true
		},
	},
}

// SourceMeasures returns the Table 1 measure catalogue (a copy).
func SourceMeasures() []SourceMeasure {
	return append([]SourceMeasure(nil), sourceMeasures...)
}

// SourceMeasureByID looks up one measure.
func SourceMeasureByID(id string) (SourceMeasure, bool) {
	for _, m := range sourceMeasures {
		if m.ID == id {
			return m, true
		}
	}
	return SourceMeasure{}, false
}

// TableThreeMeasureIDs lists, in the paper's Table 3 order, the ten
// domain-independent measures the factor analysis of Section 4.1 retains
// (Google ranking is domain-independent, so domain-dependent measures were
// excluded).
func TableThreeMeasureIDs() []string {
	return []string{
		"src.time.traffic",                 // traffic rank
		"src.authority.traffic.visitors",   // daily visitors
		"src.authority.traffic.pageviews",  // daily page views
		"src.authority.relevance.inbound",  // number of inbound links
		"src.completeness.traffic",         // open discussions vs largest
		"src.time.liveliness",              // new opened discussions per day
		"src.dependability.breadth",        // comments per discussion
		"src.dependability.liveliness",     // comments per discussion per day
		"src.dependability.relevance",      // bounce rate
		"src.authority.traffic.timeonsite", // average time spent on site
	}
}
