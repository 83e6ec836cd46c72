package gsql

import (
	"streamop/internal/checkpoint"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// GroupFront is the GROUP BY pass and the open-window tracker of every step
// that groups: the sampling operator's walk, the partial-aggregation fold
// and the sharded router. A window is the span of rows over which the
// ordered GROUP BY values stay the same (paper §4–5), and Gigascope's
// low-level partial aggregation groups on that same GROUP BY, so the one
// decision lives here. Over a batch the front fills Cols with the plan's
// kernels (Kernels: mutation-free; the caller's own kernels then run in
// Env) or, in closure mode, with the plan's closures row by row up to the
// first row that errs (Closures). Then, row by row, it answers whether the
// row closes the open window (Closes) and opens the next one with the
// row's ordered values (OpenAt); flushing in between is the step's own
// business. A front belongs to one goroutine, like its plan.
type GroupFront struct {
	plan *Plan
	vp   *VecPlan // nil when the plan does not vectorize
	env  VecEnv
	cols []*tuple.Column // the batch's GROUP BY columns: the kernels' or fill's
	fill []*tuple.Column // closure mode's own columns
	row  tuple.Tuple
	ctx  Ctx

	// The open window's ordered GROUP BY values (the last window's once it
	// has closed).
	open bool
	vals []value.Value

	// Raw-word window check, armed per batch when every ordered column is
	// kind-uniform Bool/Int/Uint and of the open window's kinds, where
	// value equality is exactly payload-word equality. Float (±0.0) and
	// mixed-kind columns keep the per-row EqualValue check.
	raw     bool
	rawCols [][]uint64
	rawWin  []uint64
}

// NewGroupFront compiles plan's kernels and returns its front, with no
// window open.
func NewGroupFront(plan *Plan) *GroupFront {
	f := &GroupFront{
		plan:    plan,
		cols:    make([]*tuple.Column, len(plan.GroupBy)),
		fill:    make([]*tuple.Column, len(plan.GroupBy)),
		rawCols: make([][]uint64, len(plan.OrderedIdx)),
		rawWin:  make([]uint64, len(plan.OrderedIdx)),
	}
	for i := range f.fill {
		f.fill[i] = new(tuple.Column)
	}
	if vp, ok := Vectorize(plan); ok {
		f.vp = vp
	}
	return f
}

// Vec returns the plan's kernels, nil when the plan does not vectorize.
func (f *GroupFront) Vec() *VecPlan { return f.vp }

// Env is the kernel environment, pointed at its batch by Kernels.
func (f *GroupFront) Env() *VecEnv { return &f.env }

// Cols are the GROUP BY columns of the last batch evaluated. The slice is
// the front's for good; its entries change per batch.
func (f *GroupFront) Cols() []*tuple.Column { return f.cols }

// Kernels evaluates GROUP BY over b with the plan's kernels, leaving Env
// pointed at b with the columns attached. It reports false when the plan
// does not vectorize or a kernel errs: nothing has mutated, and the caller
// runs the batch in closure mode.
func (f *GroupFront) Kernels(b *tuple.Batch) bool {
	if f.vp == nil {
		return false
	}
	f.env.Reset(b)
	for i, e := range f.vp.GroupBy {
		col, err := e.EvalCol(&f.env)
		if err != nil {
			return false
		}
		f.cols[i] = col
	}
	f.env.SetGroupCols(f.cols)
	f.arm()
	return true
}

// Closures is closure mode's GROUP BY: the plan's closures evaluate row by
// row into the front's own columns. It returns the number of rows filled
// and, when that is short of the batch, the name of the GROUP BY item that
// erred at the next row and its error.
func (f *GroupFront) Closures(b *tuple.Batch) (rows int, item string, err error) {
	for i, c := range f.fill {
		c.Reset()
		f.cols[i] = c
	}
	defer f.arm()
	for row := 0; row < b.Len(); row++ {
		f.row = b.Row(row, f.row)
		f.ctx = Ctx{Tuple: f.row}
		for i, gb := range f.plan.GroupBy {
			v, err := gb(&f.ctx)
			if err != nil {
				return row, f.plan.GroupNames[i], err
			}
			f.fill[i].AppendValue(v)
		}
	}
	return b.Len(), "", nil
}

// arm arms the raw-word window check for the batch in cols.
func (f *GroupFront) arm() {
	f.raw = len(f.plan.OrderedIdx) > 0
	for i, idx := range f.plan.OrderedIdx {
		k, ok := f.cols[idx].Uniform()
		if !ok || !tuple.RawEqKind(k) || (f.open && f.vals[i].Kind() != k) {
			f.raw = false
			return
		}
		f.rawCols[i] = f.cols[idx].Bits()
	}
	if f.raw && f.open {
		for i, v := range f.vals {
			f.rawWin[i] = v.Bits()
		}
	}
}

// WindowOpen reports whether a window is open.
func (f *GroupFront) WindowOpen() bool { return f.open }

// Closes reports whether row closes the open window: one of its ordered
// GROUP BY values differs from the window's.
func (f *GroupFront) Closes(row int) bool {
	if !f.open {
		return false
	}
	if f.raw {
		for i, bits := range f.rawCols {
			if bits[row] != f.rawWin[i] {
				return true
			}
		}
		return false
	}
	for i, idx := range f.plan.OrderedIdx {
		if !f.cols[idx].EqualValue(row, f.vals[i]) {
			return true
		}
	}
	return false
}

// CloseWindow closes the open window, which the caller has flushed.
func (f *GroupFront) CloseWindow() { f.open = false }

// OpenAt opens a window holding row's ordered GROUP BY values unless one
// is open, and reports whether it did.
func (f *GroupFront) OpenAt(row int) bool {
	if f.open {
		return false
	}
	f.open = true
	f.vals = f.vals[:0]
	for i, idx := range f.plan.OrderedIdx {
		f.vals = append(f.vals, f.cols[idx].Value(row))
		f.rawWin[i] = f.vals[i].Bits()
	}
	return true
}

// SnapshotWindow writes whether a window is open and its ordered values.
func (f *GroupFront) SnapshotWindow(e *checkpoint.Encoder) {
	e.Bool(f.open)
	e.Values(f.vals)
}

// RestoreWindow reads what SnapshotWindow wrote.
func (f *GroupFront) RestoreWindow(d *checkpoint.Decoder) {
	f.open = d.Bool()
	f.vals = d.Values()
}
