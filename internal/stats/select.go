package stats

import (
	"math/bits"
	"slices"
)

// Quantiles by selection. A column whose values all moved at once — the
// quality ledger's time-sensitive columns on an epoch move — needs only
// the one or two order statistics each benchmark quantile interpolates
// between, not a full sort. SelectQuantiles finds them in expected O(n)
// and returns exactly what SortedQuantiles reads after sort.Float64s.

// SelectQuantiles returns SortedQuantiles(sorted, qs...) for sorted a
// copy of xs ordered by sort.Float64s, without sorting: it moves the
// order statistics each quantile needs to their sorted positions by
// selection under the same order, NaN first. xs is reordered in place;
// its multiset is unchanged. It panics on an empty slice.
//
// Where the order ties values of different bits — NaN payloads, −0 and
// +0 — a selected rank may hold either, just as sort.Float64s leaves their
// relative placement unspecified.
func SelectQuantiles(xs []float64, qs ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: SelectQuantiles of empty slice")
	}
	// NaNs order first, so they fill the lowest ranks: gather them at the
	// front and select among the rest with plain comparisons.
	nan := 0
	for i, v := range xs {
		if v != v {
			xs[i], xs[nan] = xs[nan], xs[i]
			nan++
		}
	}
	var buf [4]int
	ranks := buf[:0]
	for _, q := range qs {
		lo, hi, _ := quantileRanks(len(xs), q)
		for _, k := range [2]int{lo, hi} {
			if k >= nan {
				ranks = append(ranks, k-nan)
			}
		}
	}
	slices.Sort(ranks)
	rest := xs[nan:]
	selectRanks(rest, slices.Compact(ranks), 2*bits.Len(uint(len(rest))))
	// Every rank a quantile reads now holds its sorted value.
	return SortedQuantiles(xs, qs...)
}

// selectRanks moves each rank of ks (ascending, distinct, inside a) to its
// sorted position in the NaN-free slice a: quickselect over every wanted
// rank at once, descending only into the parts that hold one. Past depth
// budget a part is sorted outright, which bounds the worst case at
// O(n log n).
func selectRanks(a []float64, ks []int, budget int) {
	for len(ks) > 0 {
		if len(a) <= 16 {
			for i := 1; i < len(a); i++ {
				for j := i; j > 0 && a[j] < a[j-1]; j-- {
					a[j], a[j-1] = a[j-1], a[j]
				}
			}
			return
		}
		if budget == 0 {
			slices.Sort(a)
			return
		}
		budget--
		cut := hoarePartition(a)
		split, _ := slices.BinarySearch(ks, cut)
		selectRanks(a[:cut], ks[:split], budget)
		a, ks = a[cut:], ks[split:]
		for i := range ks {
			ks[i] -= cut
		}
	}
}

// hoarePartition partitions a (NaN-free, at least three values) around
// the median of its first, middle and last values and returns a cut with
// a[:cut] ≤ pivot ≤ a[cut:], both parts non-empty. Values equal to the
// pivot may land on either side, so runs of ties split evenly.
func hoarePartition(a []float64) int {
	m, z := len(a)/2, len(a)-1
	if a[m] < a[0] {
		a[m], a[0] = a[0], a[m]
	}
	if a[z] < a[m] {
		a[z], a[m] = a[m], a[z]
		if a[m] < a[0] {
			a[m], a[0] = a[0], a[m]
		}
	}
	// a[0] ≤ a[m] ≤ a[z]: move the median to the front as the pivot.
	a[0], a[m] = a[m], a[0]
	p := a[0]
	i, j := -1, len(a)
	for {
		for i++; a[i] < p; i++ {
		}
		for j--; p < a[j]; j-- {
		}
		if i >= j {
			return j + 1
		}
		a[i], a[j] = a[j], a[i]
	}
}
