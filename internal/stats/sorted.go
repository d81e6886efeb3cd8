package stats

import "sort"

// Sorted-slice repair primitives for incremental quantile maintenance.
// The quality engine's benchmark ledger keeps one sorted column of
// observed values per measure; when a handful of corpus records change,
// the column is repaired with SortedBatchRepair instead of being
// re-sorted, and the benchmarks are re-read from the repaired slice with
// SortedQuantiles. SortedRemove and SortedInsert are the single-value
// forms (and the reference the batch repair is tested against). All
// three preserve the invariant that the slice holds exactly the
// multiset of observed values in ascending order — the same array a full
// sort of the multiset would produce — so incrementally maintained
// quantiles are bit-identical to recomputed ones. All three order values
// as sort.Float64s does, NaN first, so a column holding NaN repairs like
// any other.

// SortedInsert inserts v into ascending-sorted xs, in place when capacity
// allows, and returns the grown slice.
func SortedInsert(xs []float64, v float64) []float64 {
	i := searchNaNFirst(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// SortedRemove deletes one occurrence of v from ascending-sorted xs and
// returns the shrunk slice. The second result reports whether v was found;
// when false the slice is returned unchanged.
func SortedRemove(xs []float64, v float64) ([]float64, bool) {
	i := searchNaNFirst(xs, v)
	if i >= len(xs) || lessNaNFirst(v, xs[i]) {
		return xs, false
	}
	copy(xs[i:], xs[i+1:])
	return xs[:len(xs)-1], true
}

// lessNaNFirst is the order sort.Float64s sorts by: ascending, with NaN
// before every other value. It ties NaNs among themselves and −0 with +0.
func lessNaNFirst(a, b float64) bool {
	return a < b || (a != a && b == b)
}

// searchNaNFirst returns the first index of ascending-sorted xs whose
// value does not order before v.
func searchNaNFirst(xs []float64, v float64) int {
	return sort.Search(len(xs), func(i int) bool { return !lessNaNFirst(xs[i], v) })
}

// SortedBatchRepair applies many removals and insertions to an
// ascending-sorted slice in one O(n + k log k) merge pass, where k is the
// batch size — the bulk counterpart of SortedRemove+SortedInsert for ticks
// whose delta spans a large column (the sharded corpus' global benchmark
// ledger repairs 100k-value columns this way instead of paying one O(n)
// memmove per changed value). removes and inserts are consumed as
// multisets; a remove with no matching element is ignored, mirroring
// SortedRemove's not-found tolerance, and a remove matches any element
// the order ties it with, so a NaN remove consumes one NaN. xs is left
// untouched; the result is a fresh slice holding exactly the repaired
// multiset in ascending order — bit-identical to re-sorting the repaired
// multiset from scratch.
func SortedBatchRepair(xs, removes, inserts []float64) []float64 {
	if len(removes) == 0 && len(inserts) == 0 {
		return xs
	}
	rem := append([]float64(nil), removes...)
	ins := append([]float64(nil), inserts...)
	sort.Float64s(rem)
	sort.Float64s(ins)
	// Stale removes may outnumber what the slice holds; clamp the capacity
	// hint rather than trusting the arithmetic.
	capHint := len(xs) - len(rem) + len(ins)
	if capHint < 0 {
		capHint = len(ins)
	}
	out := make([]float64, 0, capHint)
	ri, ii := 0, 0
	for _, v := range xs {
		// Emit pending insertions strictly below v first.
		for ii < len(ins) && lessNaNFirst(ins[ii], v) {
			out = append(out, ins[ii])
			ii++
		}
		// A remove below v can never match anymore: drop it (not-found).
		for ri < len(rem) && lessNaNFirst(rem[ri], v) {
			ri++
		}
		if ri < len(rem) && !lessNaNFirst(v, rem[ri]) {
			ri++ // one occurrence consumed by the removal multiset
			continue
		}
		out = append(out, v)
	}
	out = append(out, ins[ii:]...)
	return out
}
