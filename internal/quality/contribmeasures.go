package quality

// ContributorMeasure is one non-N/A cell of Table 2, evaluated over a
// ContributorRecord.
type ContributorMeasure struct {
	ID              string
	Description     string
	Dimension       Dimension
	Attribute       Attribute
	DomainDependent bool
	HigherIsBetter  bool
	// TimeSensitive marks measures whose value moves with the observation
	// instant (account ages, per-day interaction rates) even when the
	// contributor gained no new activity; see SourceMeasure.TimeSensitive.
	TimeSensitive bool
	Eval          func(r *ContributorRecord, di *DomainOfInterest) (float64, bool)
}

// split separates the measure into the engine's metadata and evaluator.
func (m ContributorMeasure) split() (measureInfo, func(*ContributorRecord, *DomainOfInterest) (float64, bool)) {
	return measureInfo{id: m.ID, dimension: m.Dimension, attribute: m.Attribute, higherIsBetter: m.HigherIsBetter, timeSensitive: m.TimeSensitive}, m.Eval
}

// diComments sums the contributor's comments in DI categories, and counts
// the DI categories covered.
func diComments(r *ContributorRecord, di *DomainOfInterest) (total, categories int) {
	for cat, n := range r.CommentsByCategory {
		if !di.InCategory(cat) {
			continue
		}
		total += n
		categories++
	}
	return total, categories
}

// contributorMeasures is the full Table 2 catalogue, in row-major order.
var contributorMeasures = []ContributorMeasure{
	{
		ID:              "usr.accuracy.breadth",
		Description:     "average number of comments per DI content category",
		Dimension:       Accuracy,
		Attribute:       Breadth,
		DomainDependent: true,
		HigherIsBetter:  true,
		Eval: func(r *ContributorRecord, di *DomainOfInterest) (float64, bool) {
			total, cats := diComments(r, di)
			if cats == 0 {
				return 0, false
			}
			return float64(total) / float64(cats), true
		},
	},
	{
		ID:              "usr.completeness.relevance",
		Description:     "centrality: number of DI content categories covered",
		Dimension:       Completeness,
		Attribute:       Relevance,
		DomainDependent: true,
		HigherIsBetter:  true,
		Eval: func(r *ContributorRecord, di *DomainOfInterest) (float64, bool) {
			_, cats := diComments(r, di)
			return float64(cats), true
		},
	},
	{
		ID:             "usr.completeness.breadth",
		Description:    "number of discussions opened by the user",
		Dimension:      Completeness,
		Attribute:      Breadth,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			return float64(r.DiscussionsOpened), true
		},
	},
	{
		ID:             "usr.completeness.activity",
		Description:    "total number of interactions",
		Dimension:      Completeness,
		Attribute:      Activity,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			return float64(r.Interactions), true
		},
	},
	{
		// The paper's cell reads "average number of interactions per
		// user"; at the single-contributor level we interpret it as the
		// user's interactions per discussion they participate in.
		ID:             "usr.completeness.liveliness",
		Description:    "average interactions per discussion participated in",
		Dimension:      Completeness,
		Attribute:      Liveliness,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			if r.DiscussionsTouched == 0 {
				return 0, false
			}
			return float64(r.Interactions) / float64(r.DiscussionsTouched), true
		},
	},
	{
		ID:            "usr.time.breadth",
		TimeSensitive: true,
		Description:   "age of the user (days since joining)",
		Dimension:     Time,
		Attribute:     Breadth,
		// Longer-standing members are more established contributors.
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			age := r.AgeDays()
			if age == 0 {
				return 0, false
			}
			return age, true
		},
	},
	{
		ID:             "usr.time.activity",
		Description:    "number of times the user's comments are read by others",
		Dimension:      Time,
		Attribute:      Activity,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			return float64(r.ReadsReceived), true
		},
	},
	{
		ID:             "usr.time.liveliness",
		TimeSensitive:  true,
		Description:    "average number of new interactions per day",
		Dimension:      Time,
		Attribute:      Liveliness,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			age := r.AgeDays()
			if age <= 0 {
				return 0, false
			}
			return float64(r.Interactions) / age, true
		},
	},
	{
		ID:             "usr.interpretability.breadth",
		Description:    "average number of distinct tags per post",
		Dimension:      Interpretability,
		Attribute:      Breadth,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			posts := r.TotalComments()
			if posts == 0 {
				return 0, false
			}
			return float64(r.TagCount) / float64(posts), true
		},
	},
	{
		ID:             "usr.authority.relevance",
		Description:    "average number of replies received per comment",
		Dimension:      Authority,
		Attribute:      Relevance,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			if r.Interactions == 0 {
				return 0, false
			}
			return float64(r.RepliesReceived) / float64(r.Interactions), true
		},
	},
	{
		ID:             "usr.authority.activity",
		Description:    "number of received replies",
		Dimension:      Authority,
		Attribute:      Activity,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			return float64(r.RepliesReceived), true
		},
	},
	{
		ID:             "usr.dependability.relevance",
		Description:    "average number of feedbacks received per comment",
		Dimension:      Dependability,
		Attribute:      Relevance,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			if r.Interactions == 0 {
				return 0, false
			}
			return float64(r.FeedbacksReceived) / float64(r.Interactions), true
		},
	},
	{
		ID:             "usr.dependability.breadth",
		Description:    "comments per discussion participated in",
		Dimension:      Dependability,
		Attribute:      Breadth,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			if r.DiscussionsTouched == 0 {
				return 0, false
			}
			return float64(r.TotalComments()) / float64(r.DiscussionsTouched), true
		},
	},
	{
		ID:             "usr.dependability.activity",
		Description:    "number of feedbacks received",
		Dimension:      Dependability,
		Attribute:      Activity,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			return float64(r.FeedbacksReceived), true
		},
	},
	{
		ID:             "usr.dependability.liveliness",
		TimeSensitive:  true,
		Description:    "average interactions per discussion per day",
		Dimension:      Dependability,
		Attribute:      Liveliness,
		HigherIsBetter: true,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			age := r.AgeDays()
			if age <= 0 || r.DiscussionsTouched == 0 {
				return 0, false
			}
			return float64(r.Interactions) / float64(r.DiscussionsTouched) / age, true
		},
	},
}

// ContributorMeasures returns the Table 2 measure catalogue (a copy).
func ContributorMeasures() []ContributorMeasure {
	return append([]ContributorMeasure(nil), contributorMeasures...)
}

// ContributorMeasureByID looks up one measure.
func ContributorMeasureByID(id string) (ContributorMeasure, bool) {
	for _, m := range contributorMeasures {
		if m.ID == id {
			return m, true
		}
	}
	return ContributorMeasure{}, false
}
