package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/informing-observers/informer"
	"github.com/informing-observers/informer/internal/webgen"
)

// roundKind is how a workload publishes one round.
type roundKind int

const (
	roundAdvance  roundKind = iota // Corpus.Advance(1, seed)
	roundSameDay                   // Corpus.AdvanceSameDay(seed, sources)
	roundIngested                  // Corpus.Ingest per poll, then DrainTick
)

// standing is one standing query and how many in-process subscribers
// attach to it, with which delta filters. The query is in its /api/v1
// URL form, so the same string drives Subscribe and the HTTP transports.
type standing struct {
	query   string
	filters []informer.DeltaFilter
}

// spec is one workload: the world it starts from, how rounds are
// published, who observes them and what is read between them.
type spec struct {
	name string
	// world is the workload's starting world. Its seed is fixed: --seed
	// draws the traffic (tick seeds, polls, churned sources, reads), not
	// the dataset, so ten seeds measure ten traffic samples over one
	// world instead of ten worlds of different cost.
	world  webgen.Config
	shards int
	kind   roundKind

	// period is the writer's round schedule: round i is due at
	// i*period after the timed phase starts. The writer is a closed loop
	// paced by this schedule — a round starts at its due time or when the
	// previous round's reads are done, whichever is later.
	period time.Duration
	// warmup rounds run untimed before the timed phase.
	warmup int

	// polls per ingested round and the hot share of sources
	// (roundIngested); one poll in coldEvery goes to a random source.
	polls    int
	hotShare float64
	// churnSources is the number of sources an AdvanceSameDay round
	// touches (roundSameDay).
	churnSources int

	subs    []standing
	sse     string // SSE standing query ("" = none)
	webhook string // webhook sink standing query ("" = none)

	// Reads. In write-heavy workloads (!open) each round is followed,
	// once settled, by readsPerRound first reads and then some of them
	// again (repeats), one after another on one connection. Otherwise
	// readsPerRound reads per period run open-loop at fixed offsets on
	// their own goroutine and connection, beside the writer.
	readsPerRound int
	open          bool
}

// setups is how many times a run sets its workload up; setup_s is their
// median.
const setups = 5

// defaultFilters are the delta filters of a standing query's
// subscribers: one sees everything, one only rank jumps of two or more,
// one only entries.
var defaultFilters = []informer.DeltaFilter{
	{}, {MinRankJump: 2}, {EnteredOnly: true},
}

var specs = []*spec{
	{
		name:   "daily-watch",
		world:  webgen.Config{Seed: 91, NumSources: 2000, ChurnScale: 0.27},
		kind:   roundAdvance,
		period: 120 * time.Millisecond,
		warmup: 8,
		subs: []standing{
			{"k=10&min_score=0.5", defaultFilters},
			{"k=20&min_score=0.4&sort=dim.time", defaultFilters},
			{"k=10&category=place", defaultFilters},
			{"k=10&category=people&min_score=0.3", defaultFilters},
			{"k=25&sort=att.liveliness", defaultFilters},
			{"k=10&min_dim.authority=0.5", defaultFilters},
			{"k=15&sort=dim.dependability", defaultFilters},
			{"k=50", defaultFilters},
		},
		sse:           "k=10&min_score=0.5",
		webhook:       "k=50",
		readsPerRound: 6,
	},
	{
		name:   "ingest-stories",
		world:  webgen.Config{Seed: 97, NumSources: 1000, CommentText: true, SyndicationRate: 0.1},
		kind:   roundIngested,
		period: 110 * time.Millisecond,
		warmup: 8,
		polls:  16, hotShare: 0.05,
		subs:          []standing{{"k=10&min_score=0.5", defaultFilters[:1]}},
		sse:           "k=10&min_score=0.5",
		readsPerRound: 5,
	},
	{
		name:          "sparse-serve",
		world:         webgen.Config{Seed: 93, NumSources: 2000, ChurnScale: 0.27},
		shards:        8,
		kind:          roundSameDay,
		period:        100 * time.Millisecond,
		warmup:        20,
		churnSources:  20,
		subs:          []standing{{"k=10&min_score=0.5", defaultFilters[:1]}},
		sse:           "k=10&min_score=0.5",
		readsPerRound: 8,
		open:          true,
	},
}

// coldEvery makes 90% of ingest polls hit the hot sources.
const coldEvery = 10

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// plan is everything a run does, fixed by the workload and the seed
// before the first round: the tick seeds, the poll choices, the churned
// sources and every read. Two runs of one seed do identical work.
type plan struct {
	rounds []roundPlan
	// warmReads and reads are the open-loop reads (spec.open) of the
	// warm-up and the timed phase, due at offsets from the phase start.
	warmReads, reads []readPlan
}

type roundPlan struct {
	seed    int64
	polls   []int   // roundIngested: source IDs polled
	pseeds  []int64 // roundIngested: per-poll seeds
	sources []int   // roundSameDay: churned source IDs
	reads   []readPlan
}

// readPlan is one HTTP read. A walk read follows the next_cursor of the
// previous read of the same connection when it has one. due is an
// open-loop read's offset from the start of its phase.
type readPlan struct {
	class string // endpoint class: sources, contributors, influencers, stories
	path  string
	walk  bool
	due   time.Duration
}

// makePlan draws the plan of a run with the given number of timed rounds
// after the spec's warm-up rounds.
func makePlan(sp *spec, seed int64, world *webgen.World, timed int) *plan {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	p := &plan{rounds: make([]roundPlan, sp.warmup+timed)}
	ids := make([]int, len(world.Sources))
	for i, s := range world.Sources {
		ids[i] = s.ID
	}
	var hot []int
	if sp.kind == roundIngested {
		// The hot set is the sources with the most open discussions at
		// the start, as BenchmarkAdvanceSkewed draws it.
		byOpen := append([]int(nil), ids...)
		sort.Slice(byOpen, func(i, j int) bool {
			oi, oj := world.Source(byOpen[i]).OpenDiscussions(), world.Source(byOpen[j]).OpenDiscussions()
			if oi != oj {
				return oi > oj
			}
			return byOpen[i] < byOpen[j]
		})
		hot = byOpen[:1+int(float64(len(byOpen))*sp.hotShare)]
	}
	// Hot polls walk the hot set round-robin from a seeded offset, and
	// every tenth poll goes to a random source, so each seed polls the
	// hot sources equally often: drawn with replacement, a few seeds
	// piled polls on the busiest sources and round_ms.p90 spread 36%
	// over ten seeds.
	hotNext := rng.Intn(len(hot) + 1)
	poll := 0
	for i := range p.rounds {
		r := &p.rounds[i]
		r.seed = seed*100_000 + int64(i) + 1
		switch sp.kind {
		case roundIngested:
			for j := 0; j < sp.polls; j++ {
				var id int
				if poll%coldEvery == coldEvery-1 {
					id = ids[rng.Intn(len(ids))]
				} else {
					id = hot[hotNext%len(hot)]
					hotNext++
				}
				poll++
				r.polls = append(r.polls, id)
				r.pseeds = append(r.pseeds, r.seed*100+int64(j))
			}
		case roundSameDay:
			r.sources = make([]int, sp.churnSources)
			for j := range r.sources {
				r.sources[j] = ids[rng.Intn(len(ids))]
			}
		}
		if sp.open {
			continue
		}
		first := make([]readPlan, sp.readsPerRound)
		for j := range first {
			first[j] = roundRead(sp, rng, world.Categories, j)
		}
		// The first reads, then the repeats: they read what the first
		// reads cached, and give read_ms.p99 over a thousand samples a
		// run.
		r.reads = append(first, repeats(sp, first)...)
	}
	if sp.open {
		p.warmReads = openReads(sp, rng, world.Categories, sp.warmup)
		p.reads = openReads(sp, rng, world.Categories, timed)
	}
	return p
}

// openReadStart is the share of a period before the first open-loop
// read of the period is due: a round takes under a tenth of the period,
// so a read waits for the writer only when the round ran long.
const openReadStart = 0.3

// openCycle is the length in rounds of sparse-serve's read pattern.
// Its rounds from quietFrom on are quiet: they have no reads, and only
// after the first of them may the collector run (gcRound), so that a
// collection, about 130 ms on this workload, overlaps no read.
const (
	openCycle = 20
	quietFrom = 18
)

// openReads lays out the open-loop reads of the given number of rounds:
// readsPerRound per period, evenly spaced over the part of the period
// after openReadStart, in every round but the quiet ones. Each slot's
// endpoint class is fixed by its place in the cycle (openSlot); only the
// query within the class is drawn from the seed. Every seed thus issues
// the same number of roster reads at the same phase of the round: drawn
// at random, the number of cold /influencers reads a run collected, and
// whether they overlapped a round or a collection, decided its
// read_ms.p99.
func openReads(sp *spec, rng *rand.Rand, cats []string, rounds int) []readPlan {
	first := time.Duration(float64(sp.period) * openReadStart)
	gap := (sp.period - first) / time.Duration(sp.readsPerRound)
	var out []readPlan
	for i := 0; i < rounds; i++ {
		if i%openCycle >= quietFrom {
			continue
		}
		for j := 0; j < sp.readsPerRound; j++ {
			k := openSlot(i, j)
			if k == slotNone {
				continue
			}
			rd := mixRead(rng, cats, k)
			rd.due = time.Duration(i)*sp.period + first + time.Duration(j)*gap
			out = append(out, rd)
		}
	}
	return out
}

// slotKind is the endpoint class of an open-loop read slot.
type slotKind int

const (
	slotFiltered     slotKind = iota // a filtered /sources top-k query
	slotCategory                     // a /sources top-k of one category
	slotWalk                         // the next page of a keyset walk
	slotContributors                 // /contributors
	slotInfluencers                  // /influencers
	slotNone                         // no read
)

// openSlot is the class of read j of round i. Every fourth round of the
// cycle has one read, /influencers: a cold roster costs several
// ordinary reads, and reads queued behind it made read_ms.p99 a handful
// of correlated samples. In the other rounds with reads every fourth read
// is a walk page, and the first is /contributors two rounds after an
// /influencers round, a category top-k one round after, or else a
// filtered top-k like the rest. Over a cycle that is 4-5% each of
// /influencers, /contributors and category reads, 24% walks and 63%
// filtered.
func openSlot(i, j int) slotKind {
	c := i % openCycle
	switch {
	case c%4 == 0 && j == 0:
		return slotInfluencers
	case c%4 == 0:
		return slotNone
	case j%4 == 3:
		return slotWalk
	case j == 0 && c%4 == 2:
		return slotContributors
	case j == 0 && c%4 == 1:
		return slotCategory
	}
	return slotFiltered
}

// gcRound reports whether the collector may run after round i: in
// sparse-serve only after the first quiet round of a cycle.
func gcRound(sp *spec, i int) bool {
	return !sp.open || i%openCycle == quietFrom
}

// repeats is what a write-heavy round reads again after its first reads.
// ingest-stories repeats only its story listings, which cost about four
// /sources reads or eight walk pages each: repeating every read made
// them six reads in ten, its median fell at the lower edge of their
// mode, and response_ms.p50 spread 0.20 over ten seeds while
// round_ms.p50 spread 0.14. Six in eight puts the median inside it.
func repeats(sp *spec, first []readPlan) []readPlan {
	if sp.kind != roundIngested {
		return first
	}
	var out []readPlan
	for _, rp := range first {
		if rp.class == "stories" && !rp.walk {
			out = append(out, rp)
		}
	}
	return out
}

// roundRead is the j-th first read after a settled round in a
// write-heavy workload. The first read of each kind after a publish pays
// for what the publish left cold.
func roundRead(sp *spec, rng *rand.Rand, cats []string, j int) readPlan {
	cat := cats[rng.Intn(len(cats))]
	if sp.kind == roundIngested {
		switch j {
		case 0:
			return readPlan{class: "stories", path: "/api/v1/stories?limit=10"}
		case 1:
			return readPlan{class: "stories", path: "/api/v1/stories?limit=10", walk: true}
		case 2:
			return readPlan{class: "sources", path: "/api/v1/sources?k=10&min_score=0.5"}
		case 3:
			return readPlan{class: "stories", path: "/api/v1/stories?limit=5&min_sources=3"}
		default:
			return readPlan{class: "stories", path: "/api/v1/stories?limit=10&min_sources=2"}
		}
	}
	switch j {
	case 0:
		return readPlan{class: "sources", path: "/api/v1/sources?k=10&min_score=0.5"}
	case 1:
		return readPlan{class: "sources", path: "/api/v1/sources?limit=50&fields=scores"}
	case 2:
		return readPlan{class: "sources", path: "/api/v1/sources?limit=50&fields=scores", walk: true}
	case 3:
		return readPlan{class: "sources", path: "/api/v1/sources?k=20&sort=dim.time&category=" + cat}
	case 4:
		return readPlan{class: "contributors", path: "/api/v1/contributors?limit=20"}
	default:
		return readPlan{class: "influencers", path: "/api/v1/influencers?k=10"}
	}
}

// mixFilters are sparse-serve's filtered top-k queries; the read mix
// draws them with a Zipf skew, so a few are hot and most are cold.
var mixFilters = func() []string {
	var out []string
	for _, k := range []int{10, 25} {
		for _, f := range []string{
			"min_score=0.5", "min_score=0.3", "sort=dim.time", "sort=dim.authority",
			"min_dim.authority=0.4", "sort=att.liveliness", "min_score=0.4&sort=dim.accuracy",
			"min_att.relevance=0.4", "sort=dim.dependability", "min_dim.time=0.3&sort=att.traffic",
			"kind=blog", "kind=forum&min_score=0.3", "sort=dim.completeness", "min_score=0.2&fields=scores",
			"sort=dim.interpretability", "min_att.breadth=0.3",
		} {
			out = append(out, fmt.Sprintf("k=%d&%s", k, f))
		}
	}
	return out
}()

// mixRead draws the query of one sparse-serve read of the given class.
// /search is not in the mix: a cold search-engine rebuild costs about
// 100 ms, so the number of cold searches in a run decided whether
// read_ms.p99 and round_ms.p90 landed inside its stall (see NOTES.md).
func mixRead(rng *rand.Rand, cats []string, k slotKind) readPlan {
	switch k {
	case slotCategory:
		cat := cats[zipf(rng, len(cats))]
		return readPlan{class: "sources", path: "/api/v1/sources?k=10&category=" + cat}
	case slotWalk:
		return readPlan{class: "sources", path: "/api/v1/sources?limit=25", walk: true}
	case slotContributors:
		return readPlan{class: "contributors", path: "/api/v1/contributors?limit=20"}
	case slotInfluencers:
		return readPlan{class: "influencers", path: "/api/v1/influencers?k=10"}
	}
	i := zipf(rng, len(mixFilters))
	return readPlan{class: "sources", path: "/api/v1/sources?" + mixFilters[i]}
}

// zipf draws an index in [0,n) with probability proportional to 1/(i+1).
func zipf(rng *rand.Rand, n int) int {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	x := rng.Float64() * h
	for i := 1; i <= n; i++ {
		x -= 1 / float64(i)
		if x <= 0 {
			return i - 1
		}
	}
	return n - 1
}
