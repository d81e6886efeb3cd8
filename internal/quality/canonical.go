package quality

// Query canonicalization: a stable, injective string form of a Query used
// as the cache key of the per-snapshot query result cache (DESIGN.md
// section 8). Two Queries that differ only in the representation of their
// sets — ID/category/kind order, duplicates — canonicalize identically;
// float thresholds are keyed by their exact bit patterns so keys never
// collide across semantically different bars.

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// CanonicalKey returns the canonical cache key of q. The key is stable
// across processes (no pointers, no map iteration order) and covers every
// field of the query, including the pagination window and the projection —
// identical keys mean identical execution results against one snapshot.
func (q Query) CanonicalKey() string {
	var b strings.Builder
	b.Grow(128)
	b.WriteString("ids=")
	writeCanonicalInts(&b, q.IDs)
	b.WriteString(";cat=")
	writeCanonicalStrings(&b, q.Categories)
	b.WriteString(";kind=")
	writeCanonicalStrings(&b, q.Kinds)
	b.WriteString(";score=")
	writeBits(&b, q.MinScore)
	b.WriteString(";spam=")
	writeBits(&b, q.MinSpamResistance)
	b.WriteString(";minint=")
	b.WriteString(strconv.Itoa(q.MinInteractions))
	b.WriteString(";dim=")
	dims := make([]int, 0, len(q.MinDimension))
	for d := range q.MinDimension {
		dims = append(dims, int(d))
	}
	sort.Ints(dims)
	for i, d := range dims {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(d))
		b.WriteByte(':')
		writeBits(&b, q.MinDimension[Dimension(d)])
	}
	b.WriteString(";att=")
	atts := make([]int, 0, len(q.MinAttribute))
	for at := range q.MinAttribute {
		atts = append(atts, int(at))
	}
	sort.Ints(atts)
	for i, at := range atts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(at))
		b.WriteByte(':')
		writeBits(&b, q.MinAttribute[Attribute(at)])
	}
	b.WriteString(";meas=")
	meas := make([]string, 0, len(q.MinMeasure))
	for id := range q.MinMeasure {
		meas = append(meas, id)
	}
	sort.Strings(meas)
	for i, id := range meas {
		if i > 0 {
			b.WriteByte(',')
		}
		// Measure IDs are caller strings: length-prefix them so an ID
		// containing the separators cannot forge another key.
		b.WriteString(strconv.Itoa(len(id)))
		b.WriteByte('#')
		b.WriteString(id)
		b.WriteByte(':')
		writeBits(&b, q.MinMeasure[id])
	}
	b.WriteString(";sort=")
	b.WriteString(strconv.Itoa(int(q.Sort.By)))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(int(q.Sort.Dimension)))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(int(q.Sort.Attribute)))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(int(q.Sort.Strategy)))
	b.WriteString(";k=")
	b.WriteString(strconv.Itoa(q.TopK))
	b.WriteString(";lim=")
	b.WriteString(strconv.Itoa(q.Limit))
	b.WriteString(";after=")
	if q.After != nil {
		writeBits(&b, q.After.Key)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(q.After.ID))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(q.After.Pos))
	}
	b.WriteString(";fields=")
	b.WriteString(strconv.Itoa(int(q.Fields)))
	return b.String()
}

// Windowless strips the pagination window and projection from q: the part
// of the query whose ranked spine is shared by every page of a walk. Its
// CanonicalKey is the spine cache key.
func (q Query) Windowless() Query {
	q.TopK, q.Limit, q.After, q.Fields = 0, 0, nil, ProjectFull
	return q
}

// writeBits writes a float's exact bit pattern — injective, unlike any
// decimal formatting. Negative zero is folded onto positive zero: the two
// compare equal in every predicate, so keying them apart would only split
// the cache.
func writeBits(b *strings.Builder, v float64) {
	if v == 0 {
		v = 0
	}
	b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
}

// writeCanonicalInts writes a sorted, deduplicated int set.
func writeCanonicalInts(b *strings.Builder, xs []int) {
	if len(xs) == 0 {
		return
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	prev := 0
	for i, x := range sorted {
		if i > 0 && x == prev {
			continue
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
		prev = x
	}
}

// writeCanonicalStrings writes a sorted, deduplicated, length-prefixed
// string set (length prefixes keep the key injective for strings that
// contain the separators).
func writeCanonicalStrings(b *strings.Builder, xs []string) {
	if len(xs) == 0 {
		return
	}
	sorted := append([]string(nil), xs...)
	sort.Strings(sorted)
	prev := ""
	for i, x := range sorted {
		if i > 0 && x == prev {
			continue
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(len(x)))
		b.WriteByte('#')
		b.WriteString(x)
		prev = x
	}
}
