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
// dirty row moving into a category and a kind never seen. Scans over the
// engine's own rows (scope bits) must agree with scans over copies (keep)
// for every category, and the parent assessor, whose dictionary and
// columns the update must copy rather than touch, keeps its answers.
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
	count := func(a *SourceAssessor, recs []*SourceRecord, q Query) int {
		t.Helper()
		res, err := a.Query(recs, q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total
	}
	agree := func(label string, a *SourceAssessor, recs []*SourceRecord, q Query) int {
		t.Helper()
		own, lean := count(a, recs, q), count(a, shallowCopies(recs), q)
		if own != lean {
			t.Fatalf("%s %+v: %d own-row matches, %d through keep", label, q, own, lean)
		}
		return own
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
