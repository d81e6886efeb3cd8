package quality

// The candidate order and its ranking kernel. Every ranked list the
// engine builds — a shard's scan, a merged spine, a repaired part, a page
// cut — follows one strict total order: sort key descending, then ID
// ascending, where −0 ranks with +0 and every NaN ranks after every
// number, −Inf included. rankKey maps a key onto a uint64 whose ascending
// order is that key order, the digits of the radix kernel (rankCands);
// the comparisons (candWorse, candCmp, candBetter) state the same order
// on floats, and FuzzRankCands pins the two against each other.

import (
	"math"
	"sync"
)

// rankKey maps a sort key to its rank: a lower rank ranks first. Higher
// keys get lower ranks, −0 gets the rank of +0 and every NaN the highest
// rank, whatever its payload.
func rankKey(k float64) uint64 {
	switch {
	case k != k:
		return math.MaxUint64
	case k == 0:
		return 1<<63 - 1 // +0 and −0 alike
	}
	b := math.Float64bits(k)
	if b>>63 != 0 {
		return b // negative: a larger magnitude ranks later
	}
	return ^b &^ (1 << 63)
}

// candWorse reports whether a ranks strictly after b: a lower key, a NaN
// key against a number, or the same key (−0 and +0 alike, or both NaN)
// and a higher ID. It is rankKey's order written with float comparisons,
// which cost less on the heap and merge paths.
func candWorse(a, b leanCand) bool {
	switch {
	case a.key < b.key:
		return true
	case a.key > b.key:
		return false
	}
	if an, bn := a.key != a.key, b.key != b.key; an != bn {
		return an
	}
	return a.id > b.id
}

// candBetter is MergeK's order: a ranks strictly before b.
func candBetter(a, b leanCand) bool { return candWorse(b, a) }

// candCmp is the order as a three-way comparison for slices.SortFunc: -1
// when a ranks before b, 1 when after, 0 only for the same rank and ID.
func candCmp(a, b leanCand) int {
	switch {
	case candWorse(b, a):
		return -1
	case candWorse(a, b):
		return 1
	}
	return 0
}

// rankSmall is the longest list rankCands insertion-sorts. The radix
// passes cost a few microseconds whatever the length (count tables,
// prefix sums); on random keys insertion stays cheaper up to about 200
// candidates, and the cutoff sits below that to bound insertion's
// quadratic worst case on reversed input such as a bounded heap's.
const rankSmall = 128

// rankScratch is the reusable state of rankCands: the ping-pong buffer
// and one count table per byte of the ID (tables 0-7) and of the rank
// (tables 8-15), least significant first.
type rankScratch struct {
	buf    []leanCand
	counts [16][256]uint32
}

var rankScratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// rankCands sorts cands best-first in the candidate order, in place. Short
// lists are insertion-sorted. Longer ones take a least-significant-digit
// radix sort over the bytes of the ID and then of the rank; each pass is
// stable, so ties on the rank keep the ascending IDs the earlier passes
// left. A byte that is the same on every candidate is skipped, and so are
// all ID bytes when the IDs already ascend, as they do in a scan over a
// shard whose rows are in ID order.
func rankCands(cands []leanCand) {
	n := len(cands)
	if n <= rankSmall {
		for i := 1; i < n; i++ {
			c, j := cands[i], i
			for ; j > 0 && candWorse(cands[j-1], c); j-- {
				cands[j] = cands[j-1]
			}
			cands[j] = c
		}
		return
	}
	sc := rankScratchPool.Get().(*rankScratch)
	defer rankScratchPool.Put(sc)
	if cap(sc.buf) < n {
		sc.buf = make([]leanCand, n)
	}
	cnt := &sc.counts
	idsAscend := true
	clear(cnt[8:])
	for i := range cands {
		r := rankKey(cands[i].key)
		for d := 0; d < 8; d++ {
			cnt[8+d][byte(r>>(8*d))]++
		}
		if i > 0 && cands[i].id < cands[i-1].id {
			idsAscend = false
		}
	}
	if !idsAscend {
		clear(cnt[:8])
		for i := range cands {
			u := idRank(cands[i].id)
			for d := 0; d < 8; d++ {
				cnt[d][byte(u>>(8*d))]++
			}
		}
	}
	src, dst := cands, sc.buf[:n]
	for d := 0; d < 16; d++ {
		if d < 8 && idsAscend {
			continue
		}
		shift := 8 * uint(d%8)
		c := &cnt[d]
		var first uint64
		if d < 8 {
			first = idRank(src[0].id)
		} else {
			first = rankKey(src[0].key)
		}
		if c[byte(first>>shift)] == uint32(n) {
			continue // every candidate shares this byte
		}
		var off uint32
		for b := range c {
			c[b], off = off, off+c[b]
		}
		if d < 8 {
			for _, x := range src {
				b := byte(idRank(x.id) >> shift)
				dst[c[b]] = x
				c[b]++
			}
		} else {
			for _, x := range src {
				b := byte(rankKey(x.key) >> shift)
				dst[c[b]] = x
				c[b]++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &cands[0] {
		copy(cands, src)
	}
}

// idRank maps an ID onto a uint64 in the same order, negative IDs first.
func idRank(id int) uint64 { return uint64(id) ^ 1<<63 }
