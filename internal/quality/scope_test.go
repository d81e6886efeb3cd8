package quality

import (
	"fmt"
	"slices"
	"testing"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/webgen"
)

// TestScopeColumnGrowth drives the scope dictionary past one word of bits
// and grows it on update: 70 distinct categories at construction, then a
// dirty row moving into a category and a kind never seen. Scans (scope
// bits) must agree with the reference predicate for every category, and
// the parent assessor, whose dictionary and columns the update must copy
// rather than touch, keeps its answers.
func TestScopeColumnGrowth(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 941, NumSources: 60})
	records := SourceRecordsFromWorld(w, analytics.Build(w, 1941))
	for i, r := range records {
		c := *r
		c.Discussions = slices.Clone(r.Discussions)
		for j := range c.Discussions {
			c.Discussions[j].Category = fmt.Sprintf("c%02d", (3*i+j)%70)
		}
		records[i] = &c
	}
	agree := func(label string, a *SourceAssessor, recs []*SourceRecord, q Query) int {
		t.Helper()
		res, err := a.Query(recs, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := refScopeCount(recs, q); res.Total != want {
			t.Fatalf("%s %+v: %d matches, %d through the reference predicate", label, q, res.Total, want)
		}
		return res.Total
	}
	var queries []Query
	for k := 0; k < 72; k++ { // c70 and c71 were never interned
		queries = append(queries, Query{Categories: []string{fmt.Sprintf("c%02d", k)}})
	}
	queries = append(queries,
		Query{Categories: []string{"c03", "c69"}, Kinds: []string{"blog"}},
		Query{Categories: []string{"fresh"}},
		Query{Kinds: []string{"wiki"}},
	)
	for _, shards := range []int{1, 7} {
		a := NewSourceAssessor(records, defaultDI(), &AssessorOptions{Shards: shards})
		if n := len(a.engine.dict.bits); n <= 64 {
			t.Fatalf("shards=%d: %d scope facts, want more than one word", shards, n)
		}
		before := make([]int, len(queries))
		for i, q := range queries {
			before[i] = agree("built", a, records, q)
		}
		if before[len(queries)-2] != 0 || before[len(queries)-1] != 0 {
			t.Fatalf("shards=%d: an uninterned value matched", shards)
		}

		next := slices.Clone(records)
		row := len(next) - 1
		moved := *next[row]
		moved.Kind = "wiki"
		moved.Discussions = slices.Clone(moved.Discussions)
		moved.Discussions[0].Category = "fresh"
		next[row] = &moved
		u := a.UpdateRows(next, []int{row}, false)
		for _, q := range queries {
			agree("updated", u, next, q)
		}
		if got := agree("updated", u, next, Query{Categories: []string{"fresh"}, Kinds: []string{"wiki"}}); got != 1 {
			t.Fatalf("shards=%d: %d rows in the new category and kind, want 1", shards, got)
		}
		for i, q := range queries {
			if got := agree("parent after update", a, records, q); got != before[i] {
				t.Fatalf("shards=%d: the update moved the parent's answer to %+v from %d to %d", shards, q, before[i], got)
			}
		}
	}
}

// TestRouterPrunesByScopeBits pins the router's scope-bit unions end to
// end through SpineStats.Scans: a scoped spine scans only the shards
// whose union holds one of its categories and one of its kinds, a value
// never interned scans none, and an update moving a row into a category
// grows that row's shard union on a copy, so the successor scans the
// shard and the parent still does not.
func TestRouterPrunesByScopeBits(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 943, NumSources: 56})
	records := SourceRecordsFromWorld(w, analytics.Build(w, 1943))
	const shards = 7 // eight rows each
	for i, r := range records {
		c := *r
		c.Discussions = slices.Clone(r.Discussions)
		for j := range c.Discussions {
			c.Discussions[j].Category = "common"
			if i < 8 {
				c.Discussions[j].Category = "first"
			}
		}
		c.Kind = "forum"
		if i >= 48 {
			c.Kind = "blog"
		}
		records[i] = &c
	}
	spine := func(a *SourceAssessor, recs []*SourceRecord, q Query) (scans int64, total int) {
		t.Helper()
		before := a.SpineStats().Scans
		sp, err := a.Spine(recs, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := refScopeCount(recs, q); sp.Total() != want {
			t.Fatalf("%+v: spine total %d, reference total %d", q, sp.Total(), want)
		}
		return a.SpineStats().Scans - before, sp.Total()
	}
	first := Query{Categories: []string{"first"}}
	a := NewSourceAssessor(records, defaultDI(), &AssessorOptions{Shards: shards})
	for _, tc := range []struct {
		q    Query
		want int64
	}{
		{Query{}, shards},
		{first, 1},
		{Query{Kinds: []string{"blog"}}, 1},
		{Query{Categories: []string{"first", "common"}, Kinds: []string{"blog"}}, 1},
		{Query{Categories: []string{"first"}, Kinds: []string{"blog"}}, 0},
		{Query{Categories: []string{"never"}}, 0},
		{Query{IDs: []int{3, 50}}, 2},
	} {
		if got, _ := spine(a, records, tc.q); got != tc.want {
			t.Errorf("%+v scanned %d shards, want %d", tc.q, got, tc.want)
		}
	}

	next := slices.Clone(records)
	row := 3*8 + 2
	if len(next[row].Discussions) == 0 {
		t.Fatalf("row %d has no discussion to move", row)
	}
	moved := *next[row]
	moved.Discussions = slices.Clone(moved.Discussions)
	moved.Discussions[0].Category = "first"
	next[row] = &moved
	u := a.UpdateRows(next, []int{row}, false)
	_, parentTotal := spine(a, records, first)
	if got, total := spine(u, next, first); got != 2 || total != parentTotal+1 {
		t.Errorf("after the update %+v scanned %d shards for %d matches, want 2 for %d", first, got, total, parentTotal+1)
	}
	if got, _ := spine(a, records, first); got != 1 {
		t.Errorf("the update grew the parent's union: %+v scanned %d shards", first, got)
	}
}

// TestRescopeIsolation pins the scope column's block copy-on-write the
// way TestRouterDeriveIsolation pins the router's: an update moving rows
// into new categories copies the blocks of those rows only, shares every
// other block with its parent by pointer, and leaves every parent row's
// bits as they were. A row whose bits held copies nothing.
func TestRescopeIsolation(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 947, NumSources: 3*blockRows + 5})
	records := SourceRecordsFromWorld(w, analytics.Build(w, 1947))
	a := NewSourceAssessor(records, defaultDI(), nil)
	parent := a.engine.engines[0].scope
	before := make([][]uint64, len(records))
	for c := range records {
		before[c] = slices.Clone(parent.row(c))
	}

	next := slices.Clone(records)
	moved := []int{1, 2*blockRows + 3}
	for _, row := range moved {
		r := *next[row]
		r.Discussions = slices.Clone(r.Discussions)
		r.Discussions[0].Category = fmt.Sprintf("isolated-%d", row)
		next[row] = &r
	}
	held := blockRows + 4 // dirty, but its bits do not change
	u := a.UpdateRows(next, append(slices.Clone(moved), held), false)
	derived := u.engine.engines[0].scope
	for k := range parent.blocks {
		shared := &derived.blocks[k][0] == &parent.blocks[k][0]
		if want := k != moved[0]/blockRows && k != moved[1]/blockRows; shared != want {
			t.Fatalf("block %d: shared %v, want %v", k, shared, want)
		}
	}
	for c := range records {
		if !slices.Equal(parent.row(c), before[c]) {
			t.Fatalf("the update wrote the parent's scope row %d", c)
		}
	}
	for _, row := range moved {
		if slices.Equal(derived.row(row), before[row]) {
			t.Fatalf("row %d moved into a new category, yet its bits held", row)
		}
	}
	if got := agreeCount(t, u, next, Query{Categories: []string{fmt.Sprintf("isolated-%d", moved[1])}}); got != 1 {
		t.Fatalf("the moved row matches %d times, want 1", got)
	}
}

// agreeCount returns q's total over recs, checking it against the
// reference predicate.
func agreeCount(t *testing.T, a *SourceAssessor, recs []*SourceRecord, q Query) int {
	t.Helper()
	res, err := a.Query(recs, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := refScopeCount(recs, q); res.Total != want {
		t.Fatalf("%+v: %d matches, %d through the reference predicate", q, res.Total, want)
	}
	return res.Total
}

// refScopeCount counts the records the reference predicate keeps for a
// query that sets scope fields only.
func refScopeCount(recs []*SourceRecord, q Query) int {
	keep := refSourceKeep(q)
	n := 0
	for _, r := range recs {
		if keep == nil || keep(r) {
			n++
		}
	}
	return n
}
