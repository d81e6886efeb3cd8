package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSortedInsertRemove(t *testing.T) {
	xs := []float64{1, 3, 3, 5}
	xs = SortedInsert(xs, 3)
	want := []float64{1, 3, 3, 3, 5}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("after insert: %v", xs)
		}
	}
	xs, ok := SortedRemove(xs, 3)
	if !ok || len(xs) != 4 {
		t.Fatalf("remove failed: %v", xs)
	}
	if _, ok := SortedRemove(xs, 99); ok {
		t.Fatal("removing an absent value must report false")
	}
	xs = SortedInsert(xs, -2)
	if xs[0] != -2 {
		t.Fatalf("head insert: %v", xs)
	}
	xs = SortedInsert(xs, 100)
	if xs[len(xs)-1] != 100 {
		t.Fatalf("tail insert: %v", xs)
	}
}

func TestSortedInsertEmpty(t *testing.T) {
	xs := SortedInsert(nil, 7)
	if len(xs) != 1 || xs[0] != 7 {
		t.Fatalf("insert into nil: %v", xs)
	}
	if got, ok := SortedRemove(nil, 7); ok || len(got) != 0 {
		t.Fatal("remove from nil must be a no-op")
	}
}

// TestSortedRepairMatchesResort pins the incremental-benchmark contract:
// a randomly repaired slice is bit-identical to sorting the multiset from
// scratch, so quantiles read from it match a full recomputation.
func TestSortedRepairMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(rng.Intn(40)) / 4 // ties on purpose
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)

	for step := 0; step < 500; step++ {
		i := rng.Intn(len(vals))
		old := vals[i]
		vals[i] = float64(rng.Intn(40)) / 4
		var ok bool
		sorted, ok = SortedRemove(sorted, old)
		if !ok {
			t.Fatalf("step %d: value %v missing from sorted column", step, old)
		}
		sorted = SortedInsert(sorted, vals[i])
	}

	want := append([]float64(nil), vals...)
	sort.Float64s(want)
	if len(sorted) != len(want) {
		t.Fatalf("length drifted: %d != %d", len(sorted), len(want))
	}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("repair diverged at %d: %v != %v", i, sorted[i], want[i])
		}
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if SortedQuantile(sorted, q) != SortedQuantile(want, q) {
			t.Fatalf("quantile %v diverged", q)
		}
	}
}

// TestSortedBatchRepairMatchesSequential pins the batched repair — the
// sharded ledger's single-pass column update — against the sequential
// remove/insert path on random multisets: same output bytes, fresh slice,
// untouched input.
func TestSortedBatchRepairMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(20)) / 4 // ties on purpose
		}
		sort.Float64s(xs)
		orig := append([]float64(nil), xs...)

		// Removes drawn mostly from the multiset, sometimes absent (stale
		// removes must be tolerated, like SortedRemove reporting false).
		var removes, inserts []float64
		for k := rng.Intn(8); k > 0; k-- {
			if len(xs) > 0 && rng.Intn(4) > 0 {
				removes = append(removes, xs[rng.Intn(len(xs))])
			} else {
				removes = append(removes, 99+float64(rng.Intn(5)))
			}
		}
		for k := rng.Intn(8); k > 0; k-- {
			inserts = append(inserts, float64(rng.Intn(20))/4)
		}

		want := append([]float64(nil), xs...)
		for _, v := range removes {
			want, _ = SortedRemove(want, v)
		}
		for _, v := range inserts {
			want = SortedInsert(want, v)
		}

		got := SortedBatchRepair(xs, removes, inserts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: diverged at %d: %v != %v\n got  %v\n want %v", trial, i, got[i], want[i], got, want)
			}
		}
		for i := range orig {
			if xs[i] != orig[i] {
				t.Fatalf("trial %d: input slice mutated at %d", trial, i)
			}
		}
	}
	// Both batches empty: the input comes back as-is.
	xs := []float64{1, 2, 3}
	if got := SortedBatchRepair(xs, nil, nil); &got[0] != &xs[0] {
		t.Fatal("empty repair must return the input slice unchanged")
	}
}

// bitsEqual reports whether two slices hold the same float bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSortedRepairNaN pins NaN handling in the repair primitives against
// sort.Float64s, which orders NaN before every other value: a NaN remove
// consumes one NaN instead of blocking every later remove, and a NaN
// insert lands at the front instead of dragging every later insert to
// the end of the column.
func TestSortedRepairNaN(t *testing.T) {
	nan := math.NaN()
	xs := []float64{nan, nan, 1, 2, 3}
	got := SortedBatchRepair(xs, []float64{nan, 2}, []float64{nan, 0.5})
	if want := []float64{nan, nan, 0.5, 1, 3}; !bitsEqual(got, want) {
		t.Fatalf("batch repair: got %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(17))
	draw := func() float64 {
		if rng.Intn(5) == 0 {
			return nan
		}
		return float64(rng.Intn(12)) / 4
	}
	for trial := 0; trial < 300; trial++ {
		multiset := make([]float64, rng.Intn(40))
		for i := range multiset {
			multiset[i] = draw()
		}
		col := append([]float64(nil), multiset...)
		sort.Float64s(col)
		// Removes are drawn from the multiset, so each must be consumed.
		var removes, inserts []float64
		for k := rng.Intn(6); k > 0 && len(multiset) > 0; k-- {
			i := rng.Intn(len(multiset))
			removes = append(removes, multiset[i])
			multiset = append(multiset[:i], multiset[i+1:]...)
		}
		for k := rng.Intn(6); k > 0; k-- {
			v := draw()
			inserts = append(inserts, v)
			multiset = append(multiset, v)
		}
		want := append([]float64(nil), multiset...)
		sort.Float64s(want)
		if got := SortedBatchRepair(col, removes, inserts); !bitsEqual(got, want) {
			t.Fatalf("trial %d: batch repair\n got  %v\n want %v", trial, got, want)
		}
		seq := append([]float64(nil), col...)
		for _, v := range removes {
			var ok bool
			if seq, ok = SortedRemove(seq, v); !ok {
				t.Fatalf("trial %d: SortedRemove(%v) missed a value of the column %v", trial, v, seq)
			}
		}
		for _, v := range inserts {
			seq = SortedInsert(seq, v)
		}
		if !bitsEqual(seq, want) {
			t.Fatalf("trial %d: sequential repair\n got  %v\n want %v", trial, seq, want)
		}
	}
}
