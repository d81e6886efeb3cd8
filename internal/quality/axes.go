package quality

// Axis columns are the per-engine cache behind every full scan. A ranking
// axis is the overall score, one dimension average, one attribute average
// or one influence strategy's score; its column holds that value for
// every row of the engine's shard. Columns are built lazily, at most once
// per engine and axis, and only for the axes some read actually uses, so
// one round's standing spines, cold reads and the services score join
// share a single normalisation pass per axis instead of re-evaluating
// every row per query. Reads reach only the engine's own rows, so every
// scanned row reads the columns; only the O(dirty) spine repair
// evaluates its dirty rows one by one, with leanEval.
//
// A score or average column build is measure-major over the matrix, but
// every row still accumulates its measures in catalogue order, exactly as
// leanEval and assessProject do, so each column value is bitwise the
// number those paths compute; an influence column is built row by row
// through influenceAt, which fromLean calls too. Columns depend only on
// the matrix, the weights and the benchmarks: an engine derivation that
// shares all three (remap with an unchanged benchmark slice) shares its
// parent's columns, and any other derivation starts with empty ones.

import (
	"sync"
	"sync/atomic"
)

// scoreAxis is the axis index of the overall score. Dimension index d
// (offset by dimOff) is axis 1+d; attribute index a (offset by attOff) is
// axis 1+nDims+a; influence strategy s is axis 1+nDims+nAtts+s.
const scoreAxis = 0

// axisColumn is one axis's value on every row of an engine's shard.
type axisColumn struct {
	once sync.Once
	v    []float64
	def  []bool // nil when the axis is defined on every row (score, influence)
}

// axisColumns holds an engine's columns, one slot per axis, each built on
// first demand.
type axisColumns struct {
	cols []axisColumn
}

func newAxisColumns(nDims, nAtts int) *axisColumns {
	return &axisColumns{cols: make([]axisColumn, 1+nDims+nAtts+numStrategies)}
}

// dimAxis, attAxis and infAxis map dense dimension / attribute indices and
// influence strategies to axes.
func (e *matrixEngine[R]) dimAxis(idx int) int { return 1 + idx }
func (e *matrixEngine[R]) attAxis(idx int) int { return 1 + e.nDims + idx }
func (e *matrixEngine[R]) infAxis(s InfluencerStrategy) int {
	return 1 + e.nDims + e.nAtts + int(s)
}

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
	if a >= e.infAxis(0) {
		return e.buildInfluence(InfluencerStrategy(a - e.infAxis(0))), nil
	}
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

// buildInfluence computes strategy s's influence on every row.
func (e *matrixEngine[R]) buildInfluence(s InfluencerStrategy) []float64 {
	col := make([]float64, e.nRecords)
	for c := range col {
		col[c] = e.influenceAt(s, func(m int) (float64, bool) {
			if !e.present[m][c] {
				return 0, false
			}
			return e.benchmarks[m].Normalize(e.vals[m][c], e.infos[m].higherIsBetter), true
		})
	}
	return col
}

// influenceAt is strategy s's influence on one row, whose normalised
// value of measure m norm reports (false when m is absent): each signal
// averages its operands present on the row, accumulated in operand order
// as the reference avgOf does, so the column and fromLean both give
// bitwise scoreInfluencer's value (both in influencer_test.go).
func (e *matrixEngine[R]) influenceAt(s InfluencerStrategy, norm func(m int) (float64, bool)) float64 {
	signal := func(ids []string) float64 {
		var sum, cnt float64
		for _, id := range ids {
			if m := e.measurePos(id); m >= 0 {
				if x, ok := norm(m); ok {
					sum += x
					cnt++
				}
			}
		}
		v, _ := average(sum, cnt)
		return v
	}
	return influence(s, signal(absoluteActivityMeasures), signal(relativeReactionMeasures))
}

// rowAxes is one row's values on the axes and measures a resolved query
// reads, aligned with resolvedQuery.axes and resolvedQuery.measures.
type rowAxes struct {
	axis   []float64
	axisOK []bool
	norm   []float64
	normOK []bool
}

// rowReader fills rowAxes for the engine's own rows during one scan or
// repair: a scan (built set) reads the axis columns, a repair runs
// leanEval on each dirty row. Both feed the same resolvedQuery.match.
type rowReader[R any] struct {
	e     *matrixEngine[R]
	rq    *resolvedQuery
	built *atomic.Int64 // nil: never read columns (the O(dirty) repair path)
	cols  []*axisColumn // per rq.axes slot, fetched on the first row of a scan
	buf   *leanBuf      // leanEval scratch, made on the first row of a repair
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

// cand evaluates the engine's row c — global row row — against the scope
// (nil when unscoped) and the resolved query. When it matches, its ranked
// candidate is returned with ok true.
func (rr *rowReader[R]) cand(c, row int, sc *scopeFilter[R]) (leanCand, bool) {
	r := rr.e.recs[c]
	if sc != nil && !sc.admits(rr.e.scope.row(c), r) {
		return leanCand{}, false
	}
	if rr.built != nil {
		rr.fromColumns(c)
	} else {
		rr.fromLean(c)
	}
	key, ok := rr.rq.match(&rr.v)
	if !ok {
		return leanCand{}, false
	}
	id, _ := rr.e.ident(r)
	return leanCand{key: key, id: id, row: row}, true
}

// fromColumns reads row c: axes from the columns, measures normalized
// straight off the matrix.
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

// fromLean evaluates row c with leanEval and reads the query's axes and
// measures off the scratch accumulators.
func (rr *rowReader[R]) fromLean(c int) {
	e, v := rr.e, &rr.v
	if rr.buf == nil {
		rr.buf = e.newLeanBuf()
	}
	b := rr.buf
	e.leanEval(c, b)
	for j, a := range rr.rq.axes {
		switch {
		case a == scoreAxis:
			v.axis[j], v.axisOK[j] = b.score, true
		case a >= e.infAxis(0):
			v.axis[j], v.axisOK[j] = e.influenceAt(InfluencerStrategy(a-e.infAxis(0)), func(m int) (float64, bool) {
				return b.norm[m], b.def[m]
			}), true
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
