package quality

// The scope column is the per-engine cache of a record kind's scope
// predicate (recordKind.keep), as the axis columns (axes.go) are of
// leanEval. A record's scope facts — the content categories it is active
// in and, for a source, its kind — are interned to small ints by a
// dictionary the sharded coordinator owns and its shard engines share,
// and each engine row carries the bitset of its facts, built at matrix
// fill. A scan over the engine's own rows then decides Categories and
// Kinds by testing one bitset per row against masks compiled once per
// query, instead of a string-set lookup per discussion; foreign rows and
// the O(dirty) spine repair keep calling keep, and the suites that draw
// Categories and Kinds on both paths pin the two against each other.
//
// Scope does not depend on time: an update re-derives the bits of its
// dirty rows only, copy-on-write like a matrix row, and carries the
// column across epoch moves; a clean shard's remap shares it.

import (
	"maps"
	"slices"
	"strings"

	"github.com/informing-observers/informer/internal/shard"
)

// scopeFact is one interned scope value: a content category, or a source
// kind when kind is set.
type scopeFact struct {
	v    string
	kind bool
}

// scopeDict maps scope facts to bit positions. It only grows, so a bit
// keeps its meaning in every later derivation and a column built against
// an older dictionary stays valid against a newer one. Growth is
// copy-on-write (scopeBuilder), so readers of a published engine never
// see its dictionary change.
//
//informer:snapshot
type scopeDict struct {
	bits map[scopeFact]int
}

// mask compiles one any-of scope field into a mask over the dictionary's
// bits: nil when the field is empty (no restriction), and all zero when
// none of its values was ever interned, so it matches no row.
func (d *scopeDict) mask(vals []string, kind bool) []uint64 {
	if len(vals) == 0 {
		return nil
	}
	m := make([]uint64, max((len(d.bits)+63)/64, 1))
	for _, v := range vals {
		if b, ok := d.bits[scopeFact{v, kind}]; ok {
			m[b/64] |= 1 << (b % 64)
		}
	}
	return m
}

// scopeColumn holds one scope bitset per engine row, each stride words
// wide, in copy-on-write blocks (rowBlocks). A published column is
// immutable.
type scopeColumn struct {
	rowBlocks[uint64]
}

// holds reports whether row c is exactly bits (words past either end
// count as zero).
func (s scopeColumn) holds(c int, bits []uint64) bool {
	row := s.row(c)
	for i := 0; i < max(len(row), len(bits)); i++ {
		var a, b uint64
		if i < len(row) {
			a = row[i]
		}
		if i < len(bits) {
			b = bits[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// put sets row c to bits in a derivation of parent, copying the row's
// block first while parent still owns it (a column being built passes
// its own zero value as parent). It widens the stride first when bits
// needs more words than a row holds, copying every row.
func (s *scopeColumn) put(parent scopeColumn, c int, bits []uint64) {
	if len(bits) > s.width {
		n := s.rows()
		wide := make([]uint64, n*len(bits))
		for r := 0; r < n; r++ {
			copy(wide[r*len(bits):], s.row(r))
		}
		s.rowBlocks = blocksOf(wide, len(bits))
	}
	row := s.row(c)
	if len(parent.blocks) > 0 && s.width == parent.width {
		row = s.own(parent.rowBlocks, c)
	}
	copy(row, bits)
	clear(row[len(bits):])
}

// scopeBuilder derives scope bits for one engine construction or update.
// It interns into dict, cloning it before the first fact it adds, and
// assigns a record's new facts their bits in sorted order, so bit
// positions do not depend on map iteration order.
type scopeBuilder[R any] struct {
	dict  *scopeDict
	owned bool
	facts func(*R, func(v string, kind bool))
	fact  func(v string, kind bool) // collects into bits and fresh
	bits  []uint64
	fresh []scopeFact
}

// newScopeBuilder derives from dict, or from a new dictionary when dict
// is nil.
//
//informer:mutates starts a dictionary no reader has seen
func newScopeBuilder[R any](dict *scopeDict, facts func(*R, func(string, bool))) *scopeBuilder[R] {
	b := &scopeBuilder[R]{dict: dict, facts: facts}
	if dict == nil {
		b.dict, b.owned = &scopeDict{bits: map[scopeFact]int{}}, true
	}
	b.fact = func(v string, kind bool) {
		f := scopeFact{v, kind}
		if i, ok := b.dict.bits[f]; ok {
			b.set(i)
		} else {
			b.fresh = append(b.fresh, f)
		}
	}
	return b
}

// of returns r's scope bits, valid until the next call.
func (b *scopeBuilder[R]) of(r *R) []uint64 {
	clear(b.bits)
	b.fresh = b.fresh[:0]
	b.facts(r, b.fact)
	if len(b.fresh) > 0 {
		slices.SortFunc(b.fresh, func(x, y scopeFact) int {
			switch {
			case x.kind == y.kind:
				return strings.Compare(x.v, y.v)
			case x.kind:
				return -1
			}
			return 1
		})
		for _, f := range slices.Compact(b.fresh) {
			b.set(b.intern(f))
		}
	}
	return b.bits
}

// intern gives f the next free bit.
//
//informer:mutates grows a dictionary the builder owns before it is published
func (b *scopeBuilder[R]) intern(f scopeFact) int {
	if !b.owned {
		b.dict, b.owned = &scopeDict{bits: maps.Clone(b.dict.bits)}, true
	}
	i := len(b.dict.bits)
	b.dict.bits[f] = i
	return i
}

func (b *scopeBuilder[R]) set(i int) {
	for len(b.bits) <= i/64 {
		b.bits = append(b.bits, 0)
	}
	b.bits[i/64] |= 1 << (i % 64)
}

// column builds the scope column of rows.
func (b *scopeBuilder[R]) column(rows []*R) scopeColumn {
	width := max(len(b.bits), 1)
	s := scopeColumn{blocksOf(make([]uint64, len(rows)*width), width)}
	for c, r := range rows {
		s.put(scopeColumn{}, c, b.of(r))
	}
	return s
}

// rescope re-derives the scope bits of the dirty rows of a derived engine
// over corpus: the column shares its parent's blocks and copies a block
// before the first row of it whose bits changed.
//
//informer:mutates fills a derived engine before it is published
func (e *matrixEngine[R]) rescope(corpus []*R, dirty []int, b *scopeBuilder[R]) {
	parent := e.scope
	derived := false
	for _, c := range dirty {
		bits := b.of(corpus[c])
		if e.scope.holds(c, bits) {
			continue
		}
		if !derived {
			e.scope.rowBlocks, derived = parent.derive(), true
		}
		e.scope.put(parent, c, bits)
	}
}

// scopeFilter is a scoped query's scope, compiled once per execution:
// keep decides any record from its fields; for an engine's own rows, the
// masks and rest decide the same from the row's scope bits.
type scopeFilter[R any] struct {
	keep        func(*R) bool
	cats, kinds []uint64      // any-of masks; nil when the field is empty
	rest        func(*R) bool // the scope fields no bit answers (IDs, MinInteractions); nil when none is set
}

// compileScope compiles q's scope against the coordinator's dictionary;
// nil when q is unscoped.
func (s *shardedEngine[R]) compileScope(q Query) *scopeFilter[R] {
	keep := s.kind.keep(q)
	if keep == nil {
		return nil
	}
	rq := q
	rq.Categories, rq.Kinds = nil, nil
	return &scopeFilter[R]{
		keep: keep,
		cats: s.dict.mask(q.Categories, false), kinds: s.dict.mask(q.Kinds, true),
		rest: s.kind.keep(rq),
	}
}

// admits decides record r: off its scope bits when it is own row c of
// engine e, through keep otherwise.
func (f *scopeFilter[R]) admits(e *matrixEngine[R], r *R, c int, own bool) bool {
	if !own {
		return f.keep(r)
	}
	row := e.scope.row(c)
	return shard.Overlaps(row, f.cats) && shard.Overlaps(row, f.kinds) && (f.rest == nil || f.rest(r))
}

// sourceScope lists a source's scope facts: its kind and the category of
// each of its discussions.
func sourceScope(r *SourceRecord, fact func(string, bool)) {
	fact(r.Kind, true)
	for i := range r.Discussions {
		fact(r.Discussions[i].Category, false)
	}
}

// contributorScope lists the categories a contributor commented in.
func contributorScope(r *ContributorRecord, fact func(string, bool)) {
	for cat, n := range r.CommentsByCategory {
		if n > 0 {
			fact(cat, false)
		}
	}
}
