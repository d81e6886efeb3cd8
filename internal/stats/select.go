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
		// The pivot is the median of the first, middle and last values,
		// so a[cut:] keeps at least the pivot. When no value lies below
		// it, the pivot is the minimum: the run equal to it then goes
		// first and is already in its sorted place.
		p := medianOfThree(a[0], a[len(a)/2], a[len(a)-1])
		cut := partitionBelow(a, p)
		settled := cut == 0
		if settled {
			cut = partitionAtMost(a, p)
		}
		split, _ := slices.BinarySearch(ks, cut)
		if !settled {
			selectRanks(a[:cut], ks[:split], budget)
		}
		a, ks = a[cut:], ks[split:]
		for i := range ks {
			ks[i] -= cut
		}
	}
}

// medianOfThree returns the median of x, y and z.
func medianOfThree(x, y, z float64) float64 {
	if y < x {
		x, y = y, x
	}
	if z < y {
		y = max(x, z)
	}
	return y
}

// partitionBelow moves the values of a below p to its front and returns
// their count. Each step swaps unconditionally and advances the boundary
// by the comparison's 0 or 1, so the loop has no branch on the data for
// the processor to mispredict, unlike a Hoare partition's scans.
func partitionBelow(a []float64, p float64) int {
	i := 0
	for j, v := range a {
		a[j] = a[i]
		a[i] = v
		i += b2i(v < p)
	}
	return i
}

// partitionAtMost is partitionBelow for the values at most p.
func partitionAtMost(a []float64, p float64) int {
	i := 0
	for j, v := range a {
		a[j] = a[i]
		a[i] = v
		i += b2i(v <= p)
	}
	return i
}

// b2i is 1 for true and 0 for false; the compiler emits it as a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
