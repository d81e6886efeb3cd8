package quality

// The measure matrix is the per-shard assessment core behind Assessor,
// for either record kind. Every shard member runs every
// catalogue measure over its record range exactly once, in a deterministic
// parallel fan-out, and caches the raw values in a columnar
// [measure][record] matrix; the sharded coordinator (shard.go) derives the
// corpus-global benchmarks from the members' matrices, and Assess/Rank
// serve corpus records straight from the cache — no Eval closure ever runs
// twice for the same record during an assessor's lifetime.

import (
	"math"

	"github.com/informing-observers/informer/internal/parallel"
)

// numDimensions and numAttributes bound the fixed-size accumulators of the
// allocation-lean assessment path.
const (
	numDimensions = int(Dependability) + 1
	numAttributes = int(Liveliness) + 1
)

// measureInfo is the record-type-independent metadata of one catalogue
// measure, indexed by catalogue position.
type measureInfo struct {
	id             string
	dimension      Dimension
	attribute      Attribute
	higherIsBetter bool
	// timeSensitive measures are re-evaluated for every record on an
	// incremental update whose tick moved the observation instant; the
	// others only for dirty records (see updateMatrix).
	timeSensitive bool
}

// matrixEngine is one shard member: it evaluates a measure catalogue over
// its record range once and serves assessments from the cached values,
// normalized against the benchmarks its coordinator assigns. R is the
// record type (SourceRecord or ContributorRecord).
//
//informer:snapshot
type matrixEngine[R any] struct {
	di    DomainOfInterest
	opts  AssessorOptions
	infos []measureInfo
	evals []func(*R, *DomainOfInterest) (float64, bool)
	ident func(*R) (id int, name string)

	weights    []float64   // per measure, resolved once from opts
	benchmarks []Benchmark // per measure, shared from the coordinator's ledger

	// dimOff/nDims and attOff/nAtts size the per-axis accumulators.
	// Catalogue measures fit the stock enums, but ExtraSourceMeasures /
	// ExtraContributorMeasures may carry caller-defined Dimension or
	// Attribute values outside them (the paper's "new quality dimensions"
	// extension); the offsets map any such value into a dense index.
	dimOff, nDims int
	attOff, nAtts int

	nRecords int
	// recs is the corpus the engine was built (or last derived) over: a
	// record is served from matrix column c exactly when it is recs[c]
	// (colOf).
	recs []*R
	// vals[m][c] / present[m][c]: the raw value of measure m on record c
	// and whether the measure is defined there, stored measure-major. Rows
	// are immutable once an engine is published: derive shares every row
	// header with its parent and the update paths copy a measure's row
	// only before the first cell that actually changes, so a sparse tick
	// allocates columns only for the measures it really moved.
	vals    [][]float64
	present [][]bool
	// axes caches the per-axis score and average columns full scans read
	// (axes.go), built lazily against benchmarks.
	axes *axisColumns
	// scope holds each row's scope bits (scope.go), against the
	// coordinator's dictionary; derivations share it until a dirty row's
	// bits change.
	scope scopeColumn
}

// newMatrixEngine fills the matrix only: shard members get their
// benchmarks assigned by the coordinator's corpus-global ledger (the
// two-phase gather of shard.go), so normalisation stays corpus-global
// however the records are partitioned.
//
//informer:mutates constructor fills the engine before it is published
func newMatrixEngine[R any](
	corpus []*R,
	di DomainOfInterest,
	opts AssessorOptions,
	infos []measureInfo,
	evals []func(*R, *DomainOfInterest) (float64, bool),
	ident func(*R) (int, string),
) *matrixEngine[R] {
	nm, nr := len(infos), len(corpus)
	e := &matrixEngine[R]{
		di:       di,
		opts:     opts,
		infos:    infos,
		evals:    evals,
		ident:    ident,
		weights:  make([]float64, nm),
		nRecords: nr,
		recs:     corpus,
		vals:     makeRows[float64](nm, nr),
		present:  makeRows[bool](nm, nr),
	}
	minDim, maxDim := Dimension(0), Dimension(numDimensions-1)
	minAtt, maxAtt := Attribute(0), Attribute(numAttributes-1)
	for i := range infos {
		e.weights[i] = opts.weight(infos[i].id)
		if d := infos[i].dimension; d < minDim {
			minDim = d
		} else if d > maxDim {
			maxDim = d
		}
		if at := infos[i].attribute; at < minAtt {
			minAtt = at
		} else if at > maxAtt {
			maxAtt = at
		}
	}
	e.dimOff, e.nDims = -int(minDim), int(maxDim-minDim)+1
	e.attOff, e.nAtts = -int(minAtt), int(maxAtt-minAtt)+1
	e.axes = newAxisColumns(e.nDims, e.nAtts)
	// Fill the matrix: workers own contiguous record chunks, every cell is
	// written exactly once, so the result is independent of scheduling.
	e.forEachChunk(nr, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			r := corpus[c]
			for m := range evals {
				if v, ok := evals[m](r, &e.di); ok {
					e.vals[m][c] = v
					e.present[m][c] = true
				}
			}
		}
	})
	return e
}

// makeRows allocates an nm-row, nr-column measure-major matrix over one
// flat backing array (one allocation, full-capped rows so an append can
// never bleed into a neighbour).
func makeRows[T any](nm, nr int) [][]T {
	rows := make([][]T, nm)
	flat := make([]T, nm*nr)
	for m := range rows {
		rows[m] = flat[m*nr : (m+1)*nr : (m+1)*nr]
	}
	return rows
}

// updateMatrix derives a shard member for an advanced record range: same
// record population (by position), where the rows listed in dirty changed
// content and — when epochMoved — the observation instant moved, which
// shifts every time-sensitive measure. Dirty rows are re-evaluated for all
// measures, clean rows only for time-sensitive ones; a measure's rows are
// copied only before the first cell that actually changes. Benchmarks are
// left alone — the coordinator repairs its corpus-global ledger from the
// old and new matrices afterwards and assigns the shared benchmarks. The
// dirty rows' scope bits are re-derived through sb; the clean rows' are
// carried, since scope does not depend on time. The receiver is left
// untouched and keeps serving concurrent readers.
//
//informer:mutates fills the derived successor engine before it is published
func (e *matrixEngine[R]) updateMatrix(corpus []*R, dirty []int, epochMoved bool, sb *scopeBuilder[R]) *matrixEngine[R] {
	nm, nr := len(e.infos), e.nRecords
	ne := e.derive(corpus)
	ne.rescope(corpus, dirty, sb)
	e.forEachChunk(nm, func(lo, hi int) {
		for m := lo; m < hi; m++ {
			if e.infos[m].timeSensitive && epochMoved {
				vrow := make([]float64, nr)
				prow := make([]bool, nr)
				for c := 0; c < nr; c++ {
					vrow[c], prow[c] = e.evals[m](corpus[c], &ne.di)
				}
				ne.vals[m], ne.present[m] = vrow, prow
				continue
			}
			rowsOwned := false
			for _, c := range dirty {
				v, ok := e.evals[m](corpus[c], &ne.di)
				if sameCell(v, ok, e.vals[m][c], e.present[m][c]) {
					continue // cell unchanged: keep sharing the row
				}
				if !rowsOwned {
					ne.cowRows(m)
					rowsOwned = true
				}
				ne.vals[m][c], ne.present[m][c] = v, ok
			}
		}
	})
	return ne
}

// sameCell reports whether a re-evaluated matrix cell equals its old
// value: both undefined, or both defined with the same bits. Comparing
// bits, not values, keeps a NaN cell from counting as changed on every
// update and a sign flip of zero from counting as unchanged.
func sameCell(v float64, ok bool, oldV float64, oldOk bool) bool {
	return ok == oldOk && (!ok || math.Float64bits(v) == math.Float64bits(oldV))
}

// derive clones the engine's immutable metadata plus fresh row headers of
// the matrix for an update over the given corpus.
//
//informer:mutates initialises the clone before it is published
func (e *matrixEngine[R]) derive(corpus []*R) *matrixEngine[R] {
	return &matrixEngine[R]{
		di:      e.di,
		opts:    e.opts,
		infos:   e.infos,
		evals:   e.evals,
		ident:   e.ident,
		weights: e.weights,
		dimOff:  e.dimOff, nDims: e.nDims,
		attOff: e.attOff, nAtts: e.nAtts,
		nRecords: e.nRecords,
		recs:     corpus,
		vals:     append([][]float64(nil), e.vals...),
		present:  append([][]bool(nil), e.present...),
		axes:     newAxisColumns(e.nDims, e.nAtts),
		scope:    e.scope,
	}
}

// cowRows takes ownership of measure m's matrix rows in a freshly derived
// engine: derive shares every row header with its parent, so the first
// cell an update actually changes copies the value and presence rows
// together. Callers track ownership per measure (each measure is repaired
// by exactly one worker) and call this at most once.
//
//informer:mutates copy-on-write step on a not-yet-published derived engine
func (e *matrixEngine[R]) cowRows(m int) {
	e.vals[m] = append([]float64(nil), e.vals[m]...)
	e.present[m] = append([]bool(nil), e.present[m]...)
}

// remap returns a shallow derivation of a clean shard-member engine for
// the current round's record pointers: matrix and weights are shared (the
// shard's content did not change, so they are still exact) and the
// corpus-global benchmark slice swapped in. The axis columns are shared
// too when that slice is the parent's own — the ledger keeps its identity
// exactly when no benchmark moved — and start empty otherwise. The
// receiver keeps serving readers of the previous snapshot untouched.
//
//informer:mutates fills the derived successor engine before it is published
func (e *matrixEngine[R]) remap(corpus []*R, benchmarks []Benchmark) *matrixEngine[R] {
	ne := new(matrixEngine[R])
	*ne = *e
	ne.benchmarks = benchmarks
	ne.recs = corpus
	if len(benchmarks) > 0 && &benchmarks[0] != &e.benchmarks[0] {
		ne.axes = newAxisColumns(e.nDims, e.nAtts)
	}
	return ne
}

// forEachChunk fans fn out over the assessor's worker pool with
// deterministic contiguous chunking (see internal/parallel).
func (e *matrixEngine[R]) forEachChunk(n int, fn func(lo, hi int)) {
	parallel.ForEachChunk(n, e.opts.Workers, fn)
}

// colOf returns c when r is the engine's record c — the matrix column
// that serves r — and -1 otherwise.
func (e *matrixEngine[R]) colOf(r *R, c int) int {
	if c >= 0 && c < len(e.recs) && e.recs[c] == r {
		return c
	}
	return -1
}

// scoreAt is the score-only kernel of matrix column c: assessProject's
// normalise, weight and accumulate loop in the same order, so it is
// bitwise equal to assessProject(e.recs[c], …).Score, with no allocation.
func (e *matrixEngine[R]) scoreAt(c int) float64 {
	var wSum, wTotal float64
	for m := range e.infos {
		if !e.present[m][c] {
			continue
		}
		n := e.benchmarks[m].Normalize(e.vals[m][c], e.infos[m].higherIsBetter)
		w := e.weights[m]
		wSum += w * n
		wTotal += w
	}
	if wTotal > 0 {
		return wSum / wTotal
	}
	return 0
}

// assessProject builds the public Assessment for record r under a
// projection (ProjectScores skips the per-measure Raw/Normalized maps,
// the query serving path). c is r's matrix column (colOf), whose cached
// values serve it; with c = -1 the catalogue is evaluated directly (still
// once per call). The arithmetic — accumulation order, weighting,
// per-axis averaging — mirrors the historical sequential implementation
// exactly, so scores are bit-for-bit reproducible.
func (e *matrixEngine[R]) assessProject(r *R, c int, fields Projection) *Assessment {
	nm := len(e.infos)

	raw := make([]float64, nm)
	def := make([]bool, nm)
	if c >= 0 {
		for m := 0; m < nm; m++ {
			raw[m] = e.vals[m][c]
			def[m] = e.present[m][c]
		}
	} else {
		for m := range e.evals {
			raw[m], def[m] = e.evals[m](r, &e.di)
		}
	}

	norm := make([]float64, nm)
	// Stock catalogues index straight into the stack arrays; engines with
	// out-of-enum extension measures spill to heap slices of the right size.
	var dimSumArr, dimNArr [numDimensions]float64
	var attSumArr, attNArr [numAttributes]float64
	dimSum, dimN := dimSumArr[:], dimNArr[:]
	attSum, attN := attSumArr[:], attNArr[:]
	if e.nDims > numDimensions {
		dimSum, dimN = make([]float64, e.nDims), make([]float64, e.nDims)
	}
	if e.nAtts > numAttributes {
		attSum, attN = make([]float64, e.nAtts), make([]float64, e.nAtts)
	}
	var wSum, wTotal float64
	defined := 0
	for m := 0; m < nm; m++ {
		if !def[m] {
			continue
		}
		defined++
		info := &e.infos[m]
		n := e.benchmarks[m].Normalize(raw[m], info.higherIsBetter)
		norm[m] = n
		w := e.weights[m]
		wSum += w * n
		wTotal += w
		d := int(info.dimension) + e.dimOff
		dimSum[d] += n
		dimN[d]++
		at := int(info.attribute) + e.attOff
		attSum[at] += n
		attN[at]++
	}

	id, name := e.ident(r)
	out := &Assessment{ID: id, Name: name}
	if fields == ProjectFull {
		out.Raw = make(map[string]float64, defined)
		out.Normalized = make(map[string]float64, defined)
		for m := 0; m < nm; m++ {
			if def[m] {
				out.Raw[e.infos[m].id] = raw[m]
				out.Normalized[e.infos[m].id] = norm[m]
			}
		}
	}
	if wTotal > 0 {
		out.Score = wSum / wTotal
	}
	nDim, nAtt := 0, 0
	for d := range dimN {
		if dimN[d] > 0 {
			nDim++
		}
	}
	for at := range attN {
		if attN[at] > 0 {
			nAtt++
		}
	}
	out.DimensionScores = make(map[Dimension]float64, nDim)
	for d := range dimN {
		if dimN[d] > 0 {
			out.DimensionScores[Dimension(d-e.dimOff)] = dimSum[d] / dimN[d]
		}
	}
	out.AttributeScores = make(map[Attribute]float64, nAtt)
	for at := range attN {
		if attN[at] > 0 {
			out.AttributeScores[Attribute(at-e.attOff)] = attSum[at] / attN[at]
		}
	}
	return out
}
