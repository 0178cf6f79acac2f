package dynatree

// BindPool binds the candidate pool: rows become addressable by index
// through ALMIndexed, ALCIndexed and PredictMeanFastIndexed. The rows
// slice is retained and must stay unchanged while bound; binding an
// empty pool unbinds. The indexed entry points gather the bound rows
// into reusable scratch and call the row-based entry points, so their
// results are the row path's, bit for bit.
func (f *Forest) BindPool(rows [][]float64) {
	if len(rows) == 0 {
		rows = nil
	}
	f.pool = rows
}

// mustBound guards the indexed entry points.
func (f *Forest) mustBound() [][]float64 {
	if f.pool == nil {
		panic("dynatree: indexed scoring requires a bound pool (call BindPool first)")
	}
	return f.pool
}

// PredictMeanFastIndexed is PredictMeanFastBatch over bound pool rows:
// entry i is bit-identical to PredictMeanFast(rows[ids[i]]).
func (f *Forest) PredictMeanFastIndexed(ids []int) []float64 {
	return f.PredictMeanFastBatch(gatherRows(&f.sc.candRows, f.mustBound(), ids))
}

// ALMIndexed is ALMBatch over bound pool rows: entry i is
// bit-identical to ALM(rows[ids[i]]).
func (f *Forest) ALMIndexed(ids []int) []float64 {
	return f.ALMBatch(gatherRows(&f.sc.candRows, f.mustBound(), ids))
}

// ALCIndexed is ALCScores over bound pool rows. Passing the same ids
// slice as cands and refs gathers once, so ALCScores routes the rows
// once too.
func (f *Forest) ALCIndexed(cands, refs []int) []float64 {
	rows := f.mustBound()
	candRows := gatherRows(&f.sc.candRows, rows, cands)
	refRows := candRows
	if !sameSlice(cands, refs) {
		refRows = gatherRows(&f.sc.refRows, rows, refs)
	}
	return f.ALCScores(candRows, refRows)
}

// gatherRows copies the pool rows for ids into reusable scratch.
func gatherRows(buf *[][]float64, rows [][]float64, ids []int) [][]float64 {
	out := (*buf)[:0]
	for _, id := range ids {
		out = append(out, rows[id])
	}
	*buf = out
	return out
}

// sameSlice reports whether a and b are the same non-empty slice.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}
