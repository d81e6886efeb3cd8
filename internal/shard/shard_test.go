package shard

// Unit contracts of the engine-agnostic partitioning layer: plan
// arithmetic (coverage, contiguity, Of/SplitRows inverses), the k-way
// merge against a reference sort, and router pruning soundness (a pruned
// shard never holds a matching record). The end-to-end guarantee — that
// scatter-gather over these pieces is bit-identical at every shard
// count — is pinned by the equivalence suite at the repo root.

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestPlanPartition(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{0, 1}, {0, 5}, {1, 1}, {1, 4}, {2, 7}, {10, 1}, {10, 2}, {10, 3},
		{10, 7}, {10, 10}, {10, 16}, {100, 7}, {1000, 16}, {5, -3},
	} {
		p := NewPlan(tc.n, tc.shards)
		if p.Len() != tc.n {
			t.Fatalf("NewPlan(%d,%d): Len %d", tc.n, tc.shards, p.Len())
		}
		ns := p.Shards()
		if ns < 1 {
			t.Fatalf("NewPlan(%d,%d): %d shards", tc.n, tc.shards, ns)
		}
		if tc.n > 0 && ns > tc.n {
			t.Fatalf("NewPlan(%d,%d): %d shards exceeds record count", tc.n, tc.shards, ns)
		}
		// Shards are contiguous, cover [0, n) exactly, and are near-equal:
		// sizes differ by at most one.
		prevHi, minSz, maxSz := 0, tc.n+1, -1
		for s := 0; s < ns; s++ {
			lo, hi := p.Bounds(s)
			if lo != prevHi || hi < lo {
				t.Fatalf("NewPlan(%d,%d): shard %d bounds [%d,%d) after %d", tc.n, tc.shards, s, lo, hi, prevHi)
			}
			if sz := hi - lo; sz < minSz {
				minSz = sz
			} else if sz > maxSz {
				maxSz = sz
			}
			if sz := hi - lo; sz > maxSz {
				maxSz = sz
			}
			prevHi = hi
		}
		if prevHi != tc.n {
			t.Fatalf("NewPlan(%d,%d): covers [0,%d), want [0,%d)", tc.n, tc.shards, prevHi, tc.n)
		}
		if tc.n > 0 && maxSz-minSz > 1 {
			t.Fatalf("NewPlan(%d,%d): shard sizes range [%d,%d], want near-equal", tc.n, tc.shards, minSz, maxSz)
		}
		// Of agrees with Bounds for every row.
		for row := 0; row < tc.n; row++ {
			s := p.Of(row)
			if lo, hi := p.Bounds(s); row < lo || row >= hi {
				t.Fatalf("NewPlan(%d,%d): Of(%d)=%d but bounds are [%d,%d)", tc.n, tc.shards, row, s, lo, hi)
			}
		}
	}
}

func TestPlanSplitRows(t *testing.T) {
	p := NewPlan(10, 3) // bounds 0,4,7,10
	split := p.SplitRows([]int{0, 3, 4, 6, 9, -1, 10, 42})
	want := [][]int{{0, 3}, {0, 2}, {2}}
	if !reflect.DeepEqual(split, want) {
		t.Fatalf("SplitRows: got %v, want %v", split, want)
	}
	// Localized rows invert back to the exact global rows.
	var back []int
	for s, rows := range split {
		lo, _ := p.Bounds(s)
		for _, r := range rows {
			back = append(back, lo+r)
		}
	}
	if !reflect.DeepEqual(back, []int{0, 3, 4, 6, 9}) {
		t.Fatalf("SplitRows did not localize invertibly: %v", back)
	}
}

func TestMergeKAgainstSort(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nLists := 1 + rng.Intn(6)
		lists := make([][]int, nLists)
		var all []int
		next := 0 // strictly increasing values: a strict total order with no cross-list ties
		for len(all) < rng.Intn(40) {
			next += 1 + rng.Intn(3)
			i := rng.Intn(nLists)
			lists[i] = append(lists[i], next)
			all = append(all, next)
		}
		for _, l := range lists {
			sort.Ints(l)
		}
		sort.Ints(all)
		for _, limit := range []int{0, 1, 3, len(all), len(all) + 5} {
			got := MergeK(lists, less, limit)
			want := all
			if limit > 0 && limit < len(all) {
				want = all[:limit]
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d limit %d: MergeK %v, want %v (lists %v)", trial, limit, got, want, lists)
			}
		}
	}

	// A single contributing list is not copied: the result aliases its
	// prefix, capped at its length so an append reallocates instead of
	// writing into the list.
	only := []int{2, 4, 6, 8}
	for _, limit := range []int{0, 1, 3, len(only), len(only) + 5} {
		got := MergeK([][]int{nil, only, {}}, less, limit)
		want := len(only)
		if limit > 0 && limit < want {
			want = limit
		}
		if len(got) != want || cap(got) != len(got) || &got[0] != &only[0] {
			t.Fatalf("limit %d: single-list merge len %d cap %d, want an alias of len=cap=%d", limit, len(got), cap(got), want)
		}
		grown := append(got, 99)
		if grown[len(grown)-1] != 99 || !reflect.DeepEqual(only, []int{2, 4, 6, 8}) {
			t.Fatalf("limit %d: append through the merge result wrote into the list: %v", limit, only)
		}
	}
}

// Scope bits of the router tests: two kinds and three categories.
const (
	bitBlog = iota
	bitForum
	bitFood
	bitTravel
	bitSports
)

// bits sets the given bit positions.
func bits(pos ...int) []uint64 {
	var b []uint64
	for _, p := range pos {
		for len(b) <= p/64 {
			b = append(b, 0)
		}
		b[p/64] |= 1 << (p % 64)
	}
	return b
}

func TestRouterPruningSound(t *testing.T) {
	rt := NewRouter(3)
	// Shard 0: ids 1-3, blogs about food. Shard 1: ids 10-20, forums about
	// travel and food. Shard 2: left empty.
	rt.Note(0, 1, bits(bitBlog, bitFood))
	rt.Note(0, 3, bits(bitBlog))
	rt.Note(1, 10, bits(bitForum, bitTravel))
	rt.Note(1, 20, bits(bitForum, bitFood))

	none := []uint64{0} // a mask whose values were never interned
	for _, tc := range []struct {
		s     int
		ids   []int
		kinds []uint64
		cats  []uint64
		want  bool
	}{
		{0, nil, nil, nil, true},             // no restriction never prunes
		{2, nil, nil, nil, true},             // even on an empty shard
		{0, []int{2}, nil, nil, true},        // in range (supersets may admit absent ids)
		{0, []int{7}, nil, nil, false},       // outside the id range
		{2, []int{1}, nil, nil, false},       // empty shard + id scope
		{0, nil, bits(bitForum), nil, false}, // kind not present
		{1, nil, bits(bitForum, bitBlog), nil, true},
		{0, nil, nil, bits(bitTravel), false}, // category not present
		{1, nil, nil, bits(bitTravel), true},
		{1, []int{15}, bits(bitForum), bits(bitFood), true},
		{1, []int{15}, bits(bitForum), bits(bitSports), false}, // one failing axis prunes
		{1, nil, none, nil, false},                             // an uninterned value matches nothing
		{0, nil, nil, bits(bitFood, 70), true},                 // a mask wider than the union
		{0, nil, nil, bits(70), false},
	} {
		if got := rt.CanMatch(tc.s, tc.ids, tc.kinds, tc.cats); got != tc.want {
			t.Errorf("CanMatch(%d, %v, %v, %v) = %v, want %v", tc.s, tc.ids, tc.kinds, tc.cats, got, tc.want)
		}
	}
}

func TestRouterDeriveIsolation(t *testing.T) {
	rt := NewRouter(2)
	rt.Note(0, 5, bits(bitBlog, bitFood))
	rt.Note(1, 9, bits(bitForum))

	nr := rt.Derive([]int{0})
	nr.Note(0, 50, bits(bitTravel))
	nr.Note(0, 50, bits(bitSports, 70)) // grows the union past one word

	// The parent's shard-0 union is untouched by the derived router's ORs.
	if rt.CanMatch(0, nil, bits(bitSports)) || rt.CanMatch(0, nil, bits(70)) {
		t.Fatal("Derive leaked a kind union into the parent router")
	}
	if rt.CanMatch(0, nil, nil, bits(bitTravel)) {
		t.Fatal("Derive leaked a category union into the parent router")
	}
	if rt.CanMatch(0, []int{50}) {
		t.Fatal("Derive leaked an ID range into the parent router")
	}
	if !nr.CanMatch(0, []int{50}, bits(bitSports), bits(bitTravel)) || !nr.CanMatch(0, nil, bits(70)) {
		t.Fatal("derived router lost its own unions")
	}
	// The union only grows: bits noted before the derivation stay.
	if !nr.CanMatch(0, nil, bits(bitBlog), bits(bitFood)) {
		t.Fatal("derived router dropped a bit of the parent's union")
	}
	// Untouched shard 1 is shared and still answers identically.
	if !nr.CanMatch(1, []int{9}, bits(bitForum), nil) {
		t.Fatal("derived router lost the clean shard's metadata")
	}
}
