package informer

// The sharding acceptance pin: the scatter-gather engine answers
// bit-identically at every shard count, for every query plan. A seeded
// random suite draws ~200 queries spanning scopes, predicates, sorts,
// top-k bounds, windows and projections and requires the same bytes from
// three plans — the direct rankTopK path (one-shard baseline vs N-shard
// scatter-gather), and the facade's spine-cache path (cached spine +
// window slice) — at shard counts {1, 2, 7, 16}. Windowed queries resume
// from a cursor drawn mid-ranking. On top of that: chained-cursor walks
// checked against the full ranking page by page, a window sweep
// straddling every shard boundary, and the carried-spine repair path vs a
// fresh scan.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/shard"
	"github.com/informing-observers/informer/internal/webgen"
)

// equivShardCounts are the shard layouts the suite compares against the
// FromWorld baseline: the degenerate 1 (FromWorldSharded's explicit
// one-shard path must agree with the default construction), a
// boundary-poor 2, a boundary-rich prime 7, and 16 (more shards than some
// query windows).
var equivShardCounts = []int{1, 2, 7, 16}

// buildEquivCorpora assesses one generated world under every shard count,
// plus the FromWorld baseline. All corpora share the immutable world.
func buildEquivCorpora(t *testing.T, seed int64, nSources, nUsers int) (*Corpus, map[int]*Corpus) {
	t.Helper()
	world := webgen.Generate(webgen.Config{Seed: seed, NumSources: nSources, NumUsers: nUsers, CommentText: true})
	base := FromWorld(world, DomainOfInterest{}, seed)
	sharded := make(map[int]*Corpus, len(equivShardCounts))
	for _, ns := range equivShardCounts {
		sharded[ns] = FromWorldSharded(world, DomainOfInterest{}, seed, ns)
		if got := sharded[ns].ShardCount(); ns > 1 && got != ns {
			t.Fatalf("FromWorldSharded(%d): ShardCount %d", ns, got)
		}
	}
	return base, sharded
}

// randomQuery draws one query from the full plan space, plus the rank pos
// its window resumes at (0 = the first page; see cursorAt). Contributor
// queries skip kind scopes (sources only) and source queries skip the
// spam predicate (contributors only), mirroring the assessors' domains.
func randomQuery(rng *rand.Rand, ids []int, contributors bool) (q Query, pos int) {
	b := NewQuery()
	cats := []string{"presence", "place", "potential", "pulse", "people", "prerequisites"}
	kinds := []string{"blog", "forum", "review-site", "social-network"}
	dims := quality.Dimensions()
	atts := []Attribute{quality.Relevance, quality.Breadth, quality.Traffic, quality.Liveliness}
	if contributors {
		atts = []Attribute{quality.Relevance, quality.Breadth, quality.Activity, quality.Liveliness}
	}

	// Scope: each axis applies with some probability, occasionally
	// unsatisfiable (an unknown category or an out-of-range ID).
	if rng.Intn(4) == 0 {
		b.Categories(cats[rng.Intn(len(cats))])
		if rng.Intn(3) == 0 {
			b.Categories(cats[rng.Intn(len(cats))])
		}
	}
	if !contributors && rng.Intn(4) == 0 {
		b.Kinds(kinds[rng.Intn(len(kinds))])
		if rng.Intn(3) == 0 {
			b.Kinds(kinds[rng.Intn(len(kinds))])
		}
	}
	if rng.Intn(5) == 0 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			if rng.Intn(6) == 0 {
				b.IDs(1 << 20) // off-corpus: scatter must agree the match set is empty
			} else {
				b.IDs(ids[rng.Intn(len(ids))])
			}
		}
	}

	// Predicates.
	if rng.Intn(3) == 0 {
		b.MinScore(float64(rng.Intn(8)) / 10)
	}
	if rng.Intn(4) == 0 {
		b.MinDimension(dims[rng.Intn(len(dims))], float64(rng.Intn(7))/10)
	}
	if rng.Intn(4) == 0 {
		b.MinAttribute(atts[rng.Intn(len(atts))], float64(rng.Intn(7))/10)
	}
	if !contributors && rng.Intn(6) == 0 {
		b.MinMeasure("src.time.liveliness", float64(rng.Intn(5))/10)
	}
	if contributors && rng.Intn(3) == 0 {
		b.SpamResistant(float64(rng.Intn(5)) / 10)
	}

	// Sort axis.
	switch rng.Intn(3) {
	case 0:
		b.SortByScore()
	case 1:
		b.SortByDimension(dims[rng.Intn(len(dims))])
	case 2:
		b.SortByAttribute(atts[rng.Intn(len(atts))])
	}

	// Selection bound and window.
	if rng.Intn(2) == 0 {
		b.TopK(1 + rng.Intn(40))
	}
	switch rng.Intn(3) {
	case 0: // unwindowed
	case 1:
		b.Limit(1 + rng.Intn(12))
	case 2:
		pos = rng.Intn(30)
		b.Limit(1 + rng.Intn(12))
	}
	if rng.Intn(3) == 0 {
		b.ScoresOnly()
	}
	return b.Build(), pos
}

// sortKeyOf is an assessment's value on q's ranking axis: the key a resume
// cursor carries.
func sortKeyOf(q Query, a *Assessment) float64 {
	switch q.Sort.By {
	case quality.SortByDimension:
		return a.DimensionScores[q.Sort.Dimension]
	case quality.SortByAttribute:
		return a.AttributeScores[q.Sort.Attribute]
	}
	return a.Score
}

// cursorAt is the cursor a walk over q holds after consuming pos rows,
// read off c's full ranking of q. Past the last row it resumes after that
// row with Pos still pos; at pos 0 or over an empty ranking it is nil, the
// first page.
func cursorAt(t *testing.T, c *Corpus, q Query, pos int, contributors bool) *Cursor {
	t.Helper()
	if pos <= 0 {
		return nil
	}
	full, err := queryFor(c, q.Windowless(), contributors)
	if err != nil || len(full.Items) == 0 {
		return nil // an invalid or empty query has no mid-ranking row
	}
	last := full.Items[min(pos, len(full.Items))-1]
	return &Cursor{Key: sortKeyOf(q, last), ID: last.ID, Pos: pos}
}

// queryPlans executes q under every plan one corpus offers — the direct
// rankTopK path and the facade's cached spine + window path — and
// requires them to agree with each other before cross-corpus comparison.
func queryPlans(t *testing.T, c *Corpus, q Query, contributors bool, label string) *QueryResult {
	t.Helper()
	st := c.state.Load()
	var direct, cached *QueryResult
	var dErr, cErr error
	if contributors {
		direct, dErr = st.env.Contributors.Query(st.env.ContributorRecords, q)
		cached, cErr = c.QueryContributors(q)
	} else {
		direct, dErr = st.env.Sources.Query(st.env.SourceRecords, q)
		cached, cErr = c.QuerySources(q)
	}
	if (dErr == nil) != (cErr == nil) {
		t.Fatalf("%s: plans disagree on error: direct %v, cached %v", label, dErr, cErr)
	}
	if dErr != nil {
		return nil
	}
	if !reflect.DeepEqual(direct, cached) {
		t.Fatalf("%s: spine-cache plan diverged from direct rankTopK\n direct %+v\n cached %+v", label, direct, cached)
	}
	return cached
}

// requireSameResult is the bit-identity assertion: every item (scores,
// maps, projections), the total, the window start and the resume cursor.
func requireSameResult(t *testing.T, label string, want, got *QueryResult) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: one plan errored, the other answered (want %v, got %v)", label, want, got)
	}
	if want == nil || reflect.DeepEqual(want, got) {
		return
	}
	if want.Total != got.Total || want.Start != got.Start || len(want.Items) != len(got.Items) {
		t.Fatalf("%s: shape diverged: total %d/%d start %d/%d items %d/%d",
			label, want.Total, got.Total, want.Start, got.Start, len(want.Items), len(got.Items))
	}
	for i := range want.Items {
		if !reflect.DeepEqual(want.Items[i], got.Items[i]) {
			t.Fatalf("%s: item %d diverged:\n want %+v\n got  %+v", label, i, want.Items[i], got.Items[i])
		}
	}
	t.Fatalf("%s: cursors diverged: want %+v, got %+v", label, want.Next, got.Next)
}

// TestCrossShardEquivalenceRandomized is the randomized acceptance suite:
// ~200 seeded-random queries, each executed on the FromWorld baseline and
// at every shard count, across both record populations and both plans.
func TestCrossShardEquivalenceRandomized(t *testing.T) {
	base, sharded := buildEquivCorpora(t, 7001, 90, 240)
	srcIDs := make([]int, 0, len(base.SourceRecords()))
	for _, r := range base.SourceRecords() {
		srcIDs = append(srcIDs, r.ID)
	}
	conIDs := make([]int, 0, len(base.ContributorRecords()))
	for _, r := range base.ContributorRecords() {
		conIDs = append(conIDs, r.ID)
	}

	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 200; trial++ {
		contributors := trial%2 == 1
		ids := srcIDs
		if contributors {
			ids = conIDs
		}
		q, pos := randomQuery(rng, ids, contributors)
		q.After = cursorAt(t, base, q, pos, contributors)
		label := fmt.Sprintf("trial %d (contributors=%v) %+v", trial, contributors, q)
		want := queryPlans(t, base, q, contributors, label+" [baseline]")
		for _, ns := range equivShardCounts {
			got := queryPlans(t, sharded[ns], q, contributors, fmt.Sprintf("%s [shards=%d]", label, ns))
			requireSameResult(t, fmt.Sprintf("%s [shards=%d vs baseline]", label, ns), want, got)
		}
	}
}

// cursorWalk pages through q with keyset cursors until exhaustion,
// returning every page (the concatenation and the per-page windows both
// feed assertions). The walk bound guards against a cursor loop.
func cursorWalk(t *testing.T, c *Corpus, q Query, limit int, contributors bool) []*QueryResult {
	t.Helper()
	var pages []*QueryResult
	var cur *Cursor
	for steps := 0; ; steps++ {
		if steps > 200 {
			t.Fatal("cursor walk did not terminate")
		}
		qq := q
		qq.Limit, qq.After = limit, cur
		res, err := queryFor(c, qq, contributors)
		if err != nil {
			t.Fatalf("cursor page %d: %v", steps, err)
		}
		pages = append(pages, res)
		if res.Next == nil || len(res.Items) == 0 {
			return pages
		}
		cur = res.Next
	}
}

func queryFor(c *Corpus, q Query, contributors bool) (*QueryResult, error) {
	if contributors {
		return c.QueryContributors(q)
	}
	return c.QuerySources(q)
}

// TestCrossShardCursorWalks pins pagination arithmetic across shard
// counts: a chained-cursor walk visits the full ranking's rows in order,
// each page starting at the rank its cursor names, and every engine's
// pages equal the baseline engine's byte for byte.
func TestCrossShardCursorWalks(t *testing.T) {
	base, sharded := buildEquivCorpora(t, 7003, 70, 180)
	queries := []Query{
		NewQuery().Build(),
		NewQuery().MinScore(0.3).SortByDimension(quality.Time).Build(),
		NewQuery().Categories("place", "pulse").ScoresOnly().Build(),
		NewQuery().TopK(25).SortByAttribute(quality.Traffic).Build(),
	}
	for qi, q := range queries {
		for _, contributors := range []bool{false, true} {
			if len(q.Kinds) > 0 && contributors {
				continue
			}
			full, err := queryFor(base, q, contributors)
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{1, 3, 7} {
				basePages := cursorWalk(t, base, q, limit, contributors)
				walked := []*Assessment{}
				for p, page := range basePages {
					if page.Start != len(walked) {
						t.Fatalf("query %d limit %d: page %d starts at rank %d, want %d", qi, limit, p, page.Start, len(walked))
					}
					walked = append(walked, page.Items...)
				}
				if !reflect.DeepEqual(walked, full.Items) {
					t.Fatalf("query %d limit %d: cursor walk diverged from the full ranking", qi, limit)
				}
				for _, ns := range equivShardCounts {
					pages := cursorWalk(t, sharded[ns], q, limit, contributors)
					if len(pages) != len(basePages) {
						t.Fatalf("query %d limit %d shards %d: %d cursor pages, want %d",
							qi, limit, ns, len(pages), len(basePages))
					}
					for p := range pages {
						requireSameResult(t, fmt.Sprintf("query %d limit %d shards %d cursor page %d", qi, limit, ns, p),
							basePages[p], pages[p])
					}
				}
			}
		}
	}
}

// TestShardBoundaryWindowSweep sweeps a fixed-width window, resumed from
// a cursor at each start rank, across every shard boundary of every plan
// — the windows most likely to expose a merge or cut bug, since their
// rows straddle two (or more) shards' candidate lists.
func TestShardBoundaryWindowSweep(t *testing.T) {
	base, sharded := buildEquivCorpora(t, 7005, 60, 150)
	n := len(base.SourceRecords())
	q := NewQuery().ScoresOnly().Build()
	full, err := base.QuerySources(q)
	if err != nil {
		t.Fatal(err)
	}
	const width = 5
	for _, ns := range equivShardCounts {
		p := shard.NewPlan(n, ns)
		for s := 1; s < p.Shards(); s++ {
			lo, _ := p.Bounds(s)
			for start := lo - width + 1; start <= lo+1; start++ {
				if start < 0 {
					continue
				}
				qq := q
				qq.After, qq.Limit = cursorAt(t, base, q, start, false), width
				want, err := base.QuerySources(qq)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sharded[ns].QuerySources(qq)
				if err != nil {
					t.Fatal(err)
				}
				if want.Start != start || !reflect.DeepEqual(want.Items, full.Items[start:min(start+width, len(full.Items))]) {
					t.Fatalf("shards %d boundary %d: window at rank %d is not the ranking's rows %d..%d", ns, s, want.Start, start, start+width)
				}
				requireSameResult(t, fmt.Sprintf("shards %d boundary %d start %d", ns, s, start), want, got)
			}
		}
	}
}

// TestRepairedSpineEquivalence pins the carried-spine repair path: after
// same-day churn ticks, a corpus whose standing-query spines were
// repaired from the previous round (quality.RepairSpine via the facade's
// prevSpines hand-off) answers bit-identically to a freshly built corpus
// over the same world — for every shard count, across several ticks.
func TestRepairedSpineEquivalence(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 7007, NumSources: 80, NumUsers: 200, CommentText: true})
	queries := []Query{
		NewQuery().ScoresOnly().Build(),
		NewQuery().MinScore(0.3).SortByDimension(quality.Time).TopK(20).Build(),
		NewQuery().Categories("place").SortByAttribute(quality.Liveliness).Build(),
	}
	for _, ns := range []int{1, 2, 7} {
		c := FromWorldSharded(world, DomainOfInterest{}, 7007, ns)
		for tick := 0; tick < 4; tick++ {
			// Evaluate the standing queries so this round's spines are
			// recorded for the next round's repair substrate.
			for _, q := range queries {
				if _, err := c.QuerySources(q); err != nil {
					t.Fatal(err)
				}
			}
			c.AdvanceSameDay(int64(8100+tick), nil)
			fresh := FromWorldSharded(c.World(), DomainOfInterest{}, 7007, ns)
			for qi, q := range queries {
				got, err := c.QuerySources(q) // repaired (or carried) spine
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.QuerySources(q) // cold scan
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("shards %d tick %d query %d", ns, tick, qi), want, got)
			}
		}
	}
}

// TestSkewedIngestDrainShardEquivalence pins the adaptive-ingestion drain
// path on the sharded engine: several skewed per-source ticks (90% of
// polls landing on the ~5% hottest sources, webgen.AdvanceSource) buffer
// in the pending-delta accumulator, one DrainTick coalesces them into a
// single repair round, and the drained corpus answers every standing
// query byte-identically to a freshly built corpus over the same world —
// at the degenerate shard count 1 and the boundary-rich prime 7. The
// per-source ticks raise the corpus-global MaxOpenDiscussions ceiling
// without moving the epoch, so this is the sharded regression pin for the
// churn-path staleness bug fixed in services.Env.Advance.
func TestSkewedIngestDrainShardEquivalence(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 7011, NumSources: 60, NumUsers: 160, CommentText: true, ChurnScale: 3})
	queries := []Query{
		NewQuery().ScoresOnly().Build(),
		NewQuery().MinScore(0.3).SortByDimension(quality.Time).TopK(20).Build(),
		NewQuery().SortByAttribute(quality.Traffic).Build(),
	}
	for _, ns := range []int{1, 7} {
		c := FromWorldSharded(world, DomainOfInterest{}, 7011, ns)
		rng := rand.New(rand.NewSource(int64(9300 + ns)))
		for round := 0; round < 3; round++ {
			// Record this round's spines, then buffer a skewed batch of
			// per-source ticks without publishing.
			for _, q := range queries {
				if _, err := c.QuerySources(q); err != nil {
					t.Fatal(err)
				}
			}
			for i, id := range skewedTicks(rng, c.World(), 10) {
				c.Ingest(id, int64(9400+round*100+i))
			}
			ticks, _ := c.PendingIngest()
			if _, published := c.DrainTick(); published != (ticks > 0) {
				t.Fatalf("shards %d round %d: DrainTick published=%v with %d pending ticks", ns, round, !published, ticks)
			}
			fresh := FromWorldSharded(c.World(), DomainOfInterest{}, 7011, ns)
			for qi, q := range queries {
				got, err := c.QuerySources(q) // repaired spine over the coalesced delta
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.QuerySources(q) // cold scan
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("shards %d round %d query %d", ns, round, qi), want, got)
			}
			assertCorpusEquals(t, c, fresh)
		}
	}
}

// TestEpochChainShardEquivalence chains epoch → same-day → epoch →
// same-day rounds at every shard count. An epoch move re-gathers the
// ledger's time-sensitive columns and selects their benchmarks, leaving
// the columns unsorted; the same-day round after it batch-repairs them
// from the churned sources' new values, sorting a copy first. After every
// step the corpus — rankings, benchmarks, the score join and the standing
// queries' answers — equals a fresh build over the same world.
func TestEpochChainShardEquivalence(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 7013, NumSources: 80, NumUsers: 200})
	queries := []Query{
		NewQuery().ScoresOnly().Build(),
		NewQuery().SortByDimension(quality.Time).TopK(15).Build(),
		NewQuery().SortByAttribute(quality.Liveliness).Build(),
	}
	// Same-day rounds churn the five sources with the most open threads.
	churned := make([]int, len(world.Sources))
	for i := range churned {
		churned[i] = i
	}
	open := func(id int) int { return world.Sources[id].OpenDiscussions() }
	sort.SliceStable(churned, func(i, j int) bool { return open(churned[i]) > open(churned[j]) })
	churned = churned[:5]
	for _, ns := range equivShardCounts {
		c := FromWorldSharded(world, DomainOfInterest{}, 7013, ns)
		for step := 0; step < 4; step++ {
			for _, q := range queries {
				if _, err := c.QuerySources(q); err != nil {
					t.Fatal(err)
				}
			}
			if step%2 == 0 {
				c.Advance(1, int64(9500+step))
			} else if c.AdvanceSameDay(int64(9500+step), churned); len(c.LastDelta().DirtySourceIDs()) == 0 {
				t.Fatalf("shards %d step %d: the same-day round dirtied no source", ns, step)
			}
			fresh := FromWorldSharded(c.World(), DomainOfInterest{}, 7013, ns)
			for qi, q := range queries {
				got, err := c.QuerySources(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.QuerySources(q)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("shards %d step %d query %d", ns, step, qi), want, got)
			}
			assertCorpusEquals(t, c, fresh)
		}
	}
}
