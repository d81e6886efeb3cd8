package stats

import (
	"slices"
	"sort"
)

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
// ascending-sorted slice in one pass, the bulk counterpart of
// SortedRemove+SortedInsert for ticks whose delta spans a large column
// (the benchmark ledger repairs every changed column this way instead of
// paying one O(n) memmove per changed value). It sorts the batch, then
// walks it in order: each remove or insert gallops from the previous
// batch position to its own and copies the retained run in between, so
// the pass costs O(k log(n/k)) comparisons plus one copy of the column,
// where k is the batch size. removes and inserts are consumed as
// multisets; a remove with no matching element is ignored, mirroring
// SortedRemove's not-found tolerance, and a remove matches any element
// the order ties it with, so a NaN remove consumes one NaN. An insert
// lands after the retained values it ties with. xs is left untouched;
// the result is a fresh slice holding exactly the repaired multiset in
// ascending order — bit-identical to re-sorting the repaired multiset
// from scratch, up to the placement of values the order ties.
func SortedBatchRepair(xs, removes, inserts []float64) []float64 {
	if len(removes) == 0 && len(inserts) == 0 {
		return xs
	}
	rem := slices.Clone(removes)
	ins := slices.Clone(inserts)
	slices.Sort(rem)
	slices.Sort(ins)
	// Stale removes may outnumber what the slice holds; clamp the capacity
	// hint rather than trusting the arithmetic.
	capHint := len(xs) - len(rem) + len(ins)
	if capHint < 0 {
		capHint = len(ins)
	}
	out := make([]float64, 0, capHint)
	i := 0 // xs[:i] is copied or consumed
	for len(rem) > 0 || len(ins) > 0 {
		// A remove goes first unless the next insert orders strictly
		// before it, so a remove never consumes a value the batch inserts.
		if len(ins) == 0 || (len(rem) > 0 && !lessNaNFirst(ins[0], rem[0])) {
			r := rem[0]
			rem = rem[1:]
			j := gallop(xs, i, func(x float64) bool { return !lessNaNFirst(x, r) })
			out = append(out, xs[i:j]...)
			i = j
			if j < len(xs) && !lessNaNFirst(r, xs[j]) {
				i++ // one tie consumed; a stale remove consumes nothing
			}
			continue
		}
		v := ins[0]
		ins = ins[1:]
		j := gallop(xs, i, func(x float64) bool { return lessNaNFirst(v, x) })
		out = append(out, xs[i:j]...)
		out = append(out, v)
		i = j
	}
	return append(out, xs[i:]...)
}

// gallop returns the first index j ≥ i of xs with pred(xs[j]), or
// len(xs), for a pred that is false then true along xs. It probes i, i+1,
// i+3, i+7, … and binary-searches the last gap, so it costs O(log(j−i))
// comparisons however long xs is.
func gallop(xs []float64, i int, pred func(float64) bool) int {
	lo, hi, step := i, i, 1
	for hi < len(xs) && !pred(xs[hi]) {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(xs))
	return lo + sort.Search(hi-lo, func(k int) bool { return pred(xs[lo+k]) })
}
