package quality

// Axis columns are the per-engine cache behind every full scan. A ranking
// axis is the overall score, one dimension average or one attribute
// average; its column holds that value for every row of the engine's
// shard. Columns are built lazily, at most once per engine and axis, and
// only for the axes some read actually uses, so one round's standing
// spines, cold reads and the services score join share a single
// normalisation pass per axis instead of re-evaluating every row per
// query.
//
// A column build is measure-major over the matrix, but every row still
// accumulates its measures in catalogue order, exactly as leanEval and
// assessProject do, so each column value is bitwise the number those
// paths compute. Columns depend only on the matrix, the weights and the
// benchmarks: an engine derivation that shares all three (remap with an
// unchanged benchmark slice) shares its parent's columns, and any other
// derivation starts with empty ones.

import (
	"sync"
	"sync/atomic"
)

// scoreAxis is the axis index of the overall score. Dimension index d
// (offset by dimOff) is axis 1+d; attribute index a (offset by attOff) is
// axis 1+nDims+a.
const scoreAxis = 0

// axisColumn is one axis's value on every row of an engine's shard.
type axisColumn struct {
	once sync.Once
	v    []float64
	def  []bool // nil when the axis is defined on every row (the score)
}

// axisColumns holds an engine's columns, one slot per axis, each built on
// first demand.
type axisColumns struct {
	cols []axisColumn
}

func newAxisColumns(nDims, nAtts int) *axisColumns {
	return &axisColumns{cols: make([]axisColumn, 1+nDims+nAtts)}
}

// dimAxis and attAxis map dense dimension / attribute indices to axes.
func (e *matrixEngine[R]) dimAxis(idx int) int { return 1 + idx }
func (e *matrixEngine[R]) attAxis(idx int) int { return 1 + e.nDims + idx }

// axisColumn returns axis a's column, building it on first demand; each
// build is counted into built. Concurrent callers of one axis block on
// the column's Once and share the single build.
//
//informer:mutates memoised lazy column build guarded by the column's sync.Once
func (e *matrixEngine[R]) axisColumn(a int, built *atomic.Int64) *axisColumn {
	col := &e.axes.cols[a]
	col.once.Do(func() {
		col.v, col.def = e.buildAxis(a)
		built.Add(1)
	})
	return col
}

// buildAxis computes axis a on every row: per measure on the axis, in
// catalogue order, normalize each defined cell and accumulate it into its
// row — the score weighted, the averages unweighted — then divide.
func (e *matrixEngine[R]) buildAxis(a int) ([]float64, []bool) {
	nr := e.nRecords
	sum := make([]float64, nr)
	den := make([]float64, nr)
	for m := range e.infos {
		info := &e.infos[m]
		switch {
		case a == scoreAxis:
		case a <= e.nDims:
			if e.dimAxis(int(info.dimension)+e.dimOff) != a {
				continue
			}
		default:
			if e.attAxis(int(info.attribute)+e.attOff) != a {
				continue
			}
		}
		bm, vrow, prow := e.benchmarks[m], e.vals[m], e.present[m]
		w := e.weights[m]
		for c, ok := range prow {
			if !ok {
				continue
			}
			n := bm.Normalize(vrow[c], info.higherIsBetter)
			if a == scoreAxis {
				sum[c] += w * n
				den[c] += w
			} else {
				sum[c] += n
				den[c]++
			}
		}
	}
	if a == scoreAxis {
		for c := range sum {
			if den[c] > 0 {
				sum[c] /= den[c]
			} else {
				sum[c] = 0
			}
		}
		return sum, nil
	}
	def := make([]bool, nr)
	for c := range sum {
		if den[c] > 0 {
			sum[c] /= den[c]
			def[c] = true
		}
	}
	return sum, def
}

// rowAxes is one row's values on the axes and measures a resolved query
// reads, aligned with resolvedQuery.axes and resolvedQuery.measures.
type rowAxes struct {
	axis   []float64
	axisOK []bool
	norm   []float64
	normOK []bool
}

// rowReader fills rowAxes for the rows of one scan or repair on one
// engine. On a scan (built set), rows of the engine's own corpus — the
// record at local position c is the engine's record c, by pointer — read
// the axis columns; every other row, and every row of a repair, runs
// leanEval. Both feed the same resolvedQuery.match.
type rowReader[R any] struct {
	e     *matrixEngine[R]
	rq    *resolvedQuery
	built *atomic.Int64 // nil: never read columns (the O(dirty) repair path)
	cols  []*axisColumn // per rq.axes slot, fetched on the first own-corpus row
	buf   *leanBuf      // leanEval scratch, made on the first other row
	v     rowAxes
}

func (e *matrixEngine[R]) newRowReader(rq *resolvedQuery, built *atomic.Int64) *rowReader[R] {
	na, nm := len(rq.axes), len(rq.measures)
	return &rowReader[R]{
		e: e, rq: rq, built: built,
		v: rowAxes{
			axis: make([]float64, na), axisOK: make([]bool, na),
			norm: make([]float64, nm), normOK: make([]bool, nm),
		},
	}
}

// cand evaluates record r — local position c in the engine's shard,
// global row row — against the scope and the resolved query. When it
// matches, its ranked candidate is returned with ok true.
func (rr *rowReader[R]) cand(r *R, c, row int, keep func(*R) bool) (leanCand, bool) {
	if keep != nil && !keep(r) {
		return leanCand{}, false
	}
	if rr.built != nil && c < len(rr.e.recs) && rr.e.recs[c] == r {
		rr.fromColumns(c)
	} else {
		rr.fromLean(r)
	}
	key, ok := rr.rq.match(&rr.v)
	if !ok {
		return leanCand{}, false
	}
	id, _ := rr.e.ident(r)
	return leanCand{key: key, id: id, row: row}, true
}

// fromColumns reads own-corpus row c: axes from the columns, measures
// normalized straight off the matrix.
func (rr *rowReader[R]) fromColumns(c int) {
	e, v := rr.e, &rr.v
	if rr.cols == nil {
		rr.cols = make([]*axisColumn, len(rr.rq.axes))
		for j, a := range rr.rq.axes {
			rr.cols[j] = e.axisColumn(a, rr.built)
		}
	}
	for j, col := range rr.cols {
		v.axis[j], v.axisOK[j] = col.v[c], col.def == nil || col.def[c]
	}
	for j, m := range rr.rq.measures {
		v.norm[j], v.normOK[j] = 0, e.present[m][c]
		if v.normOK[j] {
			v.norm[j] = e.benchmarks[m].Normalize(e.vals[m][c], e.infos[m].higherIsBetter)
		}
	}
}

// fromLean evaluates r with leanEval and reads the query's axes and
// measures off the scratch accumulators.
func (rr *rowReader[R]) fromLean(r *R) {
	e, v := rr.e, &rr.v
	if rr.buf == nil {
		rr.buf = e.newLeanBuf()
	}
	b := rr.buf
	e.leanEval(r, b)
	for j, a := range rr.rq.axes {
		switch {
		case a == scoreAxis:
			v.axis[j], v.axisOK[j] = b.score, true
		case a <= e.nDims:
			v.axis[j], v.axisOK[j] = average(b.dimSum[a-1], b.dimCnt[a-1])
		default:
			v.axis[j], v.axisOK[j] = average(b.attSum[a-1-e.nDims], b.attCnt[a-1-e.nDims])
		}
	}
	for j, m := range rr.rq.measures {
		v.norm[j], v.normOK[j] = b.norm[m], b.def[m]
	}
}

// average divides an axis accumulator; the axis is undefined on a row
// where no measure on it is.
func average(sum, cnt float64) (float64, bool) {
	if cnt > 0 {
		return sum / cnt, true
	}
	return 0, false
}
