package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// selectionQuantilePairs are the benchmark quantile pairs the selection
// read is pinned on: the plain min/max (0, 1), the default deciles, and
// pairs that land between ranks, on the same rank and out of range.
var selectionQuantilePairs = [][]float64{
	{0, 1}, {0.10, 0.90}, {0.25, 0.75}, {0.5, 0.5}, {0.05, 0.95}, {0.9, 0.1}, {-0.5, 1.5}, {0.333, 0.667},
}

// TestSelectQuantilesMatchesSort is the property the benchmark ledger's
// epoch-move read rests on: SelectQuantiles over an unsorted column equals
// SortedQuantiles over the column sorted by sort.Float64s, bit for bit —
// with NaN (ordered first), runs of duplicates, every small length and
// lengths past the selection's insertion-sort cutoff — and leaves the
// column's multiset intact.
func TestSelectQuantilesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nan := math.NaN()
	draws := map[string]func() float64{
		"spread": func() float64 { return rng.NormFloat64() * 100 },
		"dups":   func() float64 { return float64(rng.Intn(5)) },
		"nan": func() float64 {
			if rng.Intn(4) == 0 {
				return nan
			}
			return float64(rng.Intn(50)) / 8
		},
		"allnan": func() float64 { return nan },
	}
	lengths := []int{1, 2, 3, 4, 5, 7, 16, 17, 18, 33, 100, 1000, 4001}
	for name, draw := range draws {
		for _, n := range lengths {
			for trial := 0; trial < 4; trial++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = draw()
				}
				if trial == 3 {
					sort.Float64s(xs) // presorted input: the pivot's best case
				}
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				for _, qs := range selectionQuantilePairs {
					col := append([]float64(nil), xs...)
					got := SelectQuantiles(col, qs...)
					want := SortedQuantiles(sorted, qs...)
					if !bitsEqual(got, want) {
						t.Fatalf("%s n=%d trial %d qs %v: select %v, sort %v", name, n, trial, qs, got, want)
					}
					sort.Float64s(col)
					if !bitsEqual(col, sorted) {
						t.Fatalf("%s n=%d trial %d: selection changed the multiset", name, n, trial)
					}
				}
			}
		}
	}
	for name, fn := range map[string]func(){
		"nil":   func() { SelectQuantiles(nil, 0.5) },
		"empty": func() { SelectQuantiles([]float64{}, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SelectQuantiles of a %s slice must panic, like SortedQuantiles", name)
				}
			}()
			fn()
		}()
	}
}

// TestSelectQuantilesSignedZero pins the one place selection and sorting
// may differ in bits: −0 and +0 tie under sort.Float64s' order, which
// leaves their relative placement unspecified, so a rank inside a run of
// mixed zeros may read either. The values still compare equal.
func TestSelectQuantilesSignedZero(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{2, 9, 40, 300} {
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(3) {
			case 0:
				xs[i] = negZero
			case 1:
				xs[i] = 0
			default:
				xs[i] = rng.NormFloat64()
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, qs := range selectionQuantilePairs {
			got := SelectQuantiles(append([]float64(nil), xs...), qs...)
			want := SortedQuantiles(sorted, qs...)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d qs %v: select %v, sort %v", n, qs, got, want)
				}
			}
		}
	}
}
