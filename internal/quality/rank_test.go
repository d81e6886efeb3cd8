package quality

// The ranking kernel must agree with a comparison sort under the
// documented candidate order for any input, and every plan — spines,
// bounded queries, cursor walks, repaired spines — must rank NaN-keyed
// rows by that order at every shard count.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/webgen"
)

// fuzzCands decodes a candidate list from fuzz input. length is the list
// length; each candidate reads nine bytes of data, cyclically: a class
// byte picking NaN payloads of either sign, ±0, ±Inf, subnormals, a small
// palette of repeated keys or raw bits, then eight bytes of key material.
// idMode picks ascending, descending, permuted (all unique) or
// data-drawn (negative and repeated) IDs. Row i is candidate i.
func fuzzCands(data []byte, length int, idMode uint8) []leanCand {
	if len(data) == 0 {
		data = []byte{0}
	}
	at := func(i int) byte { return data[i%len(data)] }
	out := make([]leanCand, length)
	for i := range out {
		var word [8]byte
		for j := range word {
			word[j] = at(9*i + 1 + j)
		}
		u := binary.LittleEndian.Uint64(word[:])
		var key float64
		switch at(9*i) % 8 {
		case 0:
			key = math.Float64frombits(u | 0x7ff0000000000001) // NaN, any sign and payload
		case 1:
			key = math.Copysign(0, float64(int64(u)))
		case 2:
			key = math.Inf(int(int8(u)) | 1)
		case 3:
			key = math.Float64frombits(u &^ 0x7ff0000000000000) // subnormal or zero, either sign
		case 4:
			key = []float64{0.5, -0.25, 1, 0, math.Inf(-1), math.NaN()}[u%6]
		default:
			key = math.Float64frombits(u ^ uint64(i)*0x9e3779b97f4a7c15)
		}
		var id int
		switch idMode % 4 {
		case 0:
			id = i
		case 1:
			id = length - i
		case 2:
			id = i * 7919 % length // a permutation: 7919 is a prime past every length
		default:
			id = int(int16(u >> 48))
		}
		out[i] = leanCand{key: key, id: id, row: i}
	}
	return out
}

// FuzzRankCands pins the ranking kernel to slices.SortFunc under candCmp.
// Both must produce the same (rank, ID) sequence; rankCands must return a
// permutation of its input, and with unique IDs the very same list.
func FuzzRankCands(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(rankSmall), uint8(2))
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(rankSmall+1), uint8(2))
	f.Add([]byte{0, 9, 9, 9, 9, 9, 9, 9, 9, 1, 0, 0, 0, 0, 0, 0, 0, 128, 4, 3, 0, 0, 0, 0, 0, 0, 0}, uint16(400), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, idMode uint8) {
		in := fuzzCands(data, int(n%640), idMode)
		got, want := slices.Clone(in), slices.Clone(in)
		rankCands(got)
		slices.SortFunc(want, candCmp)
		unique := idMode%4 != 3
		for i := range got {
			g, w := got[i], want[i]
			if candCmp(g, w) != 0 {
				t.Fatalf("position %d of %d: kernel %+v, sort %+v", i, len(in), g, w)
			}
			if unique && (math.Float64bits(g.key) != math.Float64bits(w.key) || g.row != w.row) {
				t.Fatalf("position %d of %d: kernel %+v, sort %+v", i, len(in), g, w)
			}
		}
		seen := make([]bool, len(in))
		for _, g := range got {
			if seen[g.row] || math.Float64bits(g.key) != math.Float64bits(in[g.row].key) || g.id != in[g.row].id {
				t.Fatalf("the kernel's output is not a permutation of its input: %+v", g)
			}
			seen[g.row] = true
		}
	})
}

// TestCandOrderDocumented pins candWorse and rankKey to the order DESIGN.md
// section 7 documents, on a ladder of keys listed best first.
func TestCandOrderDocumented(t *testing.T) {
	ladder := []float64{
		math.Inf(1), math.MaxFloat64, 1, 0.5, math.SmallestNonzeroFloat64,
		0, // −0 ranks with +0: see below
		-math.SmallestNonzeroFloat64, -1, -math.MaxFloat64, math.Inf(-1),
		math.NaN(),
	}
	for i, a := range ladder {
		for j, b := range ladder {
			worse := candWorse(leanCand{key: a, id: 1}, leanCand{key: b, id: 1})
			if worse != (i > j) {
				t.Fatalf("candWorse(%v, %v) = %v", a, b, worse)
			}
			if (rankKey(a) > rankKey(b)) != (i > j) || (rankKey(a) == rankKey(b)) != (i == j) {
				t.Fatalf("rankKey(%v) = %#x against rankKey(%v) = %#x", a, rankKey(a), b, rankKey(b))
			}
		}
	}
	negZero, otherNaN := math.Copysign(0, -1), math.Float64frombits(0xfff8000000000123)
	for _, pair := range [][2]float64{{negZero, 0}, {otherNaN, math.NaN()}} {
		a, b := leanCand{key: pair[0], id: 1}, leanCand{key: pair[1], id: 2}
		if !candWorse(b, a) || candWorse(a, b) || rankKey(pair[0]) != rankKey(pair[1]) {
			t.Fatalf("%v and %v must tie on the key and break by ID", pair[0], pair[1])
		}
	}
}

// refRank is the test's own statement of the documented order: key
// descending, −0 equal to +0, NaN after every number, then ID ascending.
func refRank(cands []leanCand) {
	slices.SortStableFunc(cands, func(a, b leanCand) int {
		an, bn := math.IsNaN(a.key), math.IsNaN(b.key)
		switch {
		case an != bn && an:
			return 1
		case an != bn:
			return -1
		case !an && a.key > b.key:
			return -1
		case !an && a.key < b.key:
			return 1
		}
		return a.id - b.id
	})
}

// TestNaNRankOrder pins the order over NaN-scored rows end to end: with
// the test.axes.nan measure weighted in, every thirteenth source scores
// NaN, and spines, bounded queries, cursor walks and repaired spines at
// shards {1, 2, 7, 16} must all equal a reference ranked by refRank.
func TestNaNRankOrder(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 931, NumSources: 90})
	records := SourceRecordsFromWorld(w, analytics.Build(w, 1931))
	// A still update re-evaluating the first 30 rows, NaN sources among
	// them: nothing moves, so every spine repairs, dropping those rows and
	// re-inserting them by binary search.
	var dirty []int
	for row := 0; row < 30; row++ {
		dirty = append(dirty, row)
	}
	queries := []Query{
		{},
		{MinScore: -1, Categories: []string{"place", "people"}},
		{Sort: SortKey{By: SortByDimension, Dimension: Time}},
		{Sort: SortKey{By: SortByAttribute, Attribute: Traffic}, Kinds: []string{"blog", "forum"}},
	}
	for _, shards := range []int{1, 2, 7, 16} {
		opts := &AssessorOptions{Shards: shards, ExtraSourceMeasures: axisTestSourceMeasures(), Weights: map[string]float64{"test.axes.nan": 0.7}}
		a := NewSourceAssessor(records, defaultDI(), opts)
		u := a.UpdateRows(records, dirty, false)
		for qi, q := range queries {
			label := fmt.Sprintf("shards=%d query %d", shards, qi)
			if nan := checkNaNRanking(t, label, a, records, q); nan == 0 {
				t.Fatalf("%s: no NaN key in the ranking", label)
			}
			prev, err := a.Spine(records, q)
			if err != nil {
				t.Fatal(err)
			}
			rep, ok := u.RepairSpine(records, prev, q)
			if !ok {
				t.Fatalf("%s: the still update refused a repair", label)
			}
			sameCands(t, label+" repaired spine", rep.cands, nanReference(t, u, records, q))
		}
		// Rank, the full-assessment ranking, follows the same order.
		want := nanReference(t, a, records, Query{})
		for i, as := range a.Rank(records) {
			if as.ID != want[i].id {
				t.Fatalf("shards=%d: Rank position %d is ID %d, want %d", shards, i, as.ID, want[i].id)
			}
		}
		if got := u.SpineStats().Repairs; got == 0 {
			t.Fatalf("shards=%d: no spine repaired", shards)
		}
	}
}

// checkNaNRanking compares a's spine, a bounded query and a cursor walk
// over records against the reference, and returns the number of NaN keys
// in it.
func checkNaNRanking(t *testing.T, label string, a *SourceAssessor, records []*SourceRecord, q Query) int {
	t.Helper()
	want := nanReference(t, a, records, q)
	sp, err := a.Spine(records, q)
	if err != nil {
		t.Fatal(err)
	}
	sameCands(t, label+" spine", sp.cands, want)
	bounded := q
	bounded.TopK = max(len(want)-3, 1)
	res, err := a.Query(records, bounded)
	if err != nil {
		t.Fatal(err)
	}
	sameCands(t, label+" top-k", res.cands, want[:bounded.TopK])
	// A cursor walk resumes from every numeric key; a NaN cursor is
	// refused, so the walk ends at the first NaN row it hands out.
	walk := q
	walk.Limit = 7
	var walked []leanCand
	for {
		res, err := a.Query(records, walk)
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, res.cands...)
		if res.Next == nil || math.IsNaN(res.Next.Key) {
			break
		}
		walk.After = res.Next
	}
	firstNaN := slices.IndexFunc(want, func(c leanCand) bool { return math.IsNaN(c.key) })
	if firstNaN < 0 {
		firstNaN = len(want)
	}
	if len(walked) < firstNaN {
		t.Fatalf("%s: the walk stopped after %d rows, before the first NaN key at %d", label, len(walked), firstNaN)
	}
	sameCands(t, label+" walk", walked, want[:len(walked)])
	if _, err := a.Query(records, Query{After: &Cursor{Key: math.NaN(), ID: 1}}); err == nil {
		t.Fatalf("%s: a NaN cursor was accepted", label)
	}
	return len(want) - firstNaN
}

// nanReference ranks q's matches by refRank from materialized
// assessments: the scope and predicates applied by hand, the key read off
// the assessment's axis.
func nanReference(t *testing.T, a *SourceAssessor, records []*SourceRecord, q Query) []leanCand {
	t.Helper()
	keep := refSourceKeep(q)
	var out []leanCand
	for row, r := range records {
		if keep != nil && !keep(r) {
			continue
		}
		as := a.Assess(r)
		if as.Score < q.MinScore {
			continue
		}
		key := as.Score
		switch q.Sort.By {
		case SortByDimension:
			key = as.DimensionScores[q.Sort.Dimension]
		case SortByAttribute:
			key = as.AttributeScores[q.Sort.Attribute]
		}
		out = append(out, leanCand{key: key, id: r.ID, row: row})
	}
	refRank(out)
	return out
}
