package quality

import (
	"math"
	"slices"
)

// Benchmark is the normalisation interval of one measure, derived (per
// Section 3.1) from "the assessment of well-known, highly-ranked sources":
// Hi is a high quantile of the corpus values, Lo a low quantile. Values are
// min-max scaled into [0, 1] against this interval with clamping (so a
// source better than the benchmark saturates at 1).
type Benchmark struct {
	Lo, Hi float64
}

// sameBits reports whether b and o are the same interval bit for bit, so
// that NaN bounds match themselves and −0 and +0 differ.
func (b Benchmark) sameBits(o Benchmark) bool {
	return math.Float64bits(b.Lo) == math.Float64bits(o.Lo) && math.Float64bits(b.Hi) == math.Float64bits(o.Hi)
}

// Normalize maps a raw value into [0, 1], flipping orientation for
// measures that improve downward.
func (b Benchmark) Normalize(v float64, higherIsBetter bool) float64 {
	var n float64
	switch {
	case b.Hi == b.Lo:
		n = 0.5 // degenerate benchmark: every source looks the same
	default:
		n = (v - b.Lo) / (b.Hi - b.Lo)
	}
	if n < 0 {
		n = 0
	}
	if n > 1 {
		n = 1
	}
	if !higherIsBetter {
		n = 1 - n
	}
	return n
}

// AssessorOptions tunes assessment.
type AssessorOptions struct {
	// Weights are per-measure aggregation weights (default 1 each).
	Weights map[string]float64
	// BenchmarkLoQ and BenchmarkHiQ are the corpus quantiles defining the
	// normalisation interval (defaults 0.10 and 0.90). The high quantile
	// plays the paper's "well-known, highly-ranked sources" role; the
	// winsorised tails keep single outliers from flattening everyone else.
	BenchmarkLoQ, BenchmarkHiQ float64
	// PlainMinMax replaces quantile benchmarks with corpus min/max
	// (the normalisation ablation in bench_test.go).
	PlainMinMax bool
	// Workers bounds the assessment worker pool (0 = GOMAXPROCS). Results
	// are identical for any value; 1 forces the sequential path.
	Workers int
	// Shards partitions the corpus into that many contiguous record-range
	// shards, each owning its own measure matrix, spine cache and
	// incremental-update path; queries become scatter-gather plans with
	// routing-based shard pruning, and a tick's update cost scales with the
	// dirty shards, not the corpus (DESIGN.md section 11). Benchmarks stay
	// corpus-global via a two-phase gather, so every output — assessments,
	// rankings, query windows, cursors — is bit-identical for any value.
	// Values below 2 mean one shard (the default).
	Shards int
	// ExtraSourceMeasures extends the Table 1 catalogue with caller-
	// defined measures — the paper's "extension towards new kinds of
	// domains, quality dimensions and analyses". IDs must not collide
	// with catalogue IDs. Only read by NewSourceAssessor.
	ExtraSourceMeasures []SourceMeasure
	// ExtraContributorMeasures likewise extends the Table 2 catalogue.
	// Only read by NewContributorAssessor.
	ExtraContributorMeasures []ContributorMeasure
}

func (o AssessorOptions) withDefaults() AssessorOptions {
	if o.BenchmarkLoQ == 0 {
		o.BenchmarkLoQ = 0.10
	}
	if o.BenchmarkHiQ == 0 {
		o.BenchmarkHiQ = 0.90
	}
	return o
}

func (o AssessorOptions) weight(id string) float64 {
	if o.Weights == nil {
		return 1
	}
	if w, ok := o.Weights[id]; ok {
		return w
	}
	return 1
}

// Assessment is the quality evaluation of one source or contributor.
type Assessment struct {
	ID   int
	Name string
	// Raw holds the measured values; measures undefined for this record
	// are absent.
	Raw map[string]float64
	// Normalized holds benchmark-normalised values in [0, 1].
	Normalized map[string]float64
	// Score is the weighted average of the normalised measures.
	Score float64
	// DimensionScores and AttributeScores average the normalised measures
	// along the two axes of the model, enabling the "orthogonal analysis
	// services" of Section 5.
	DimensionScores map[Dimension]float64
	AttributeScores map[Attribute]float64
}

// Assessor assesses records of one kind — SourceRecord against Table 1,
// ContributorRecord against Table 2 — against a DI with benchmarks derived
// from a reference corpus. Construction evaluates every catalogue measure
// over every corpus record exactly once (see matrix.go); Assess and Rank
// serve corpus records from that cache. The assessor is therefore a
// snapshot: mutating a corpus record after construction does not change
// its assessment — derive a new assessor to re-observe, either from
// scratch or incrementally via UpdateRows (as Corpus.Advance does).
//
// Every method is the same for both kinds; what differs by kind — record
// identity, routing facts, scope predicates and the Query fields the kind
// lacks — lives in the engine's recordKind.
type Assessor[R any] struct {
	DI         DomainOfInterest
	engine     *shardedEngine[R]
	benchmarks map[string]Benchmark
}

// SourceAssessor assesses SourceRecords with the Table 1 catalogue.
type SourceAssessor = Assessor[SourceRecord]

// ContributorAssessor assesses ContributorRecords with the Table 2
// catalogue.
type ContributorAssessor = Assessor[ContributorRecord]

// NewSourceAssessor derives benchmarks from the corpus and returns an
// assessor. opts may be nil for defaults.
func NewSourceAssessor(corpus []*SourceRecord, di DomainOfInterest, opts *AssessorOptions) *SourceAssessor {
	var extra []SourceMeasure
	if opts != nil {
		extra = opts.ExtraSourceMeasures
	}
	return newAssessor(corpus, di, opts, sourceKind, sourceMeasures, extra)
}

// NewContributorAssessor derives benchmarks from the contributor corpus.
func NewContributorAssessor(corpus []*ContributorRecord, di DomainOfInterest, opts *AssessorOptions) *ContributorAssessor {
	var extra []ContributorMeasure
	if opts != nil {
		extra = opts.ExtraContributorMeasures
	}
	return newAssessor(corpus, di, opts, contributorKind, contributorMeasures, extra)
}

// catalogueMeasure is what newAssessor reads of a catalogue entry,
// SourceMeasure or ContributorMeasure.
type catalogueMeasure[R any] interface {
	split() (measureInfo, func(*R, *DomainOfInterest) (float64, bool))
}

// newAssessor builds the engine over the catalogue followed by any extra
// measures.
func newAssessor[R any, M catalogueMeasure[R]](corpus []*R, di DomainOfInterest, opts *AssessorOptions, kind *recordKind[R], catalogue, extra []M) *Assessor[R] {
	o := AssessorOptions{}
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	measures := append(slices.Clip(catalogue), extra...)
	infos := make([]measureInfo, len(measures))
	evals := make([]func(*R, *DomainOfInterest) (float64, bool), len(measures))
	for i, m := range measures {
		infos[i], evals[i] = m.split()
	}
	engine := newShardedEngine(corpus, di, o, infos, evals, kind)
	return &Assessor[R]{DI: di, engine: engine, benchmarks: engine.benchmarkMap()}
}

// Benchmark exposes the derived normalisation interval of a measure.
func (a *Assessor[R]) Benchmark(id string) (Benchmark, bool) {
	b, ok := a.benchmarks[id]
	return b, ok
}

// BenchmarksEqual reports whether this assessor's normalisation intervals
// are bitwise identical to prev's. When true, any record whose raw
// observations did not change assesses to exactly the same result under
// both assessors — the licence for carrying a clean row's score across an
// Advance. Map-range order does not escape: the result folds into a
// single bool.
func (a *Assessor[R]) BenchmarksEqual(prev *Assessor[R]) bool {
	if len(a.benchmarks) != len(prev.benchmarks) {
		return false
	}
	for id, ba := range a.benchmarks {
		bb, ok := prev.benchmarks[id]
		if !ok || !ba.sameBits(bb) {
			return false
		}
	}
	return true
}

// Scores returns every corpus record's Assess(r).Score, bitwise, in row
// order: a copy of the score axis columns, which the first call builds
// and score-ranked scans of the same assessor share. Once they are built
// it allocates only the returned slice.
func (a *Assessor[R]) Scores() []float64 {
	return a.engine.scores()
}

// ScoreAt returns Scores()[row] without allocating.
func (a *Assessor[R]) ScoreAt(row int) float64 {
	return a.engine.scoreAt(row)
}

// Assess returns the full catalogue evaluation of the record. Corpus
// records are served from the construction-time matrix (their state as of
// construction); records outside the corpus are evaluated directly.
func (a *Assessor[R]) Assess(r *R) *Assessment {
	return a.engine.assess(r)
}

// AssessAll assesses every record, preserving input order. Work fans out
// across the assessor's worker pool; the output is identical for any
// worker count.
func (a *Assessor[R]) AssessAll(records []*R) []*Assessment {
	return a.engine.assessAll(records)
}

// Rank assesses all records and returns them best-first (ties broken by ID
// for determinism).
func (a *Assessor[R]) Rank(records []*R) []*Assessment {
	return a.engine.rank(records)
}

// UpdateRows derives a new assessor for an incrementally advanced corpus
// (the monitoring scenario): corpus is the refreshed record slice — same
// records, same order — dirtyRows indexes the records whose content
// changed, and epochMoved reports whether the observation instant moved
// (which shifts every time-sensitive measure, so those are re-evaluated
// for all records). Only dirty rows are re-evaluated for content measures;
// the benchmark ledger is repaired from their old and new values instead
// of re-gathered. The result is bit-identical to a from-scratch assessor
// over the same records, and the receiver stays valid for concurrent
// readers of the pre-advance snapshot.
func (a *Assessor[R]) UpdateRows(corpus []*R, dirtyRows []int, epochMoved bool) *Assessor[R] {
	engine := a.engine.update(corpus, dirtyRows, epochMoved)
	return &Assessor[R]{DI: a.DI, engine: engine, benchmarks: engine.benchmarkMap()}
}

// ShardCount reports how many shards the assessor's engine partitions the
// corpus into.
func (a *Assessor[R]) ShardCount() int { return a.engine.plan.Shards() }

// SpineStats reports the standing-spine evaluation work this assessor has
// performed since it was derived: full scans, incremental repairs, and
// clean-shard carries. The dirty-shard concurrency tests pin these.
func (a *Assessor[R]) SpineStats() SpineStats { return a.engine.counters.stats() }
