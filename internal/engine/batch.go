// Columnar batch feeding: the ring → step hot path of every run mode.
// Popped packet batches convert to columnar tuple batches
// (trace.AppendBatch: one tight loop per field, in processLowColumnar for
// every kind of low-level node) and flow through the node's step,
// Operator.ProcessBatch or ptable.ProcessBatch, each the one walk of its
// step: column kernels where the plan has them, the plan's closures where
// it does not. The way out is columns too, for every
// kind of node under every run mode: what a node outputs reaches the edges
// to the nodes reading it through Node.emitCols (engine.go). A traced
// node's batch runs as columnar segments between the traced rows, each of
// those a batch of one in and a batch of one out (processLowBatch,
// Node.processInput, Operator.output); a profiled node's runs as any other.
package engine

import (
	"fmt"
	"time"

	"streamop/internal/agg"
	"streamop/internal/gsql"
	"streamop/internal/profile"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// input returns a low-level node's lazily created packet batch.
func (n *Node) input() *tuple.Batch {
	if n.inBatch == nil {
		n.inBatch = tuple.NewBatch(trace.Schema(), tuple.DefaultBatchRows)
	}
	return n.inBatch
}

// processLowColumnar feeds one segment of a popped batch (see
// processLowBatch) through a low-level node as a columnar tuple batch.
func (e *Engine) processLowColumnar(low *Node, pkts []trace.Packet) error {
	if len(pkts) == 0 {
		return nil
	}
	start := time.Now()
	b := low.input()
	b.Reset()
	pt, rows := low.prof.Start(), int64(len(pkts))
	trace.AppendBatch(b, pkts)
	low.prof.Charge(profile.StageDequeue, pt, rows, rows)
	low.tuplesIn += rows
	err := low.step.ProcessBatch(b)
	low.busy += time.Since(start)
	if err != nil {
		return fmt.Errorf("engine: node %q: %w", low.name, err)
	}
	low.syncTelemetry(0)
	return nil
}

// groupByFill is closure mode's GROUP BY for the partial-aggregation fold
// and the shard router: a plan's GROUP BY closures, evaluated row by row
// into columns of its own.
type groupByFill struct {
	cols []*tuple.Column
	row  tuple.Tuple
	ctx  gsql.Ctx
}

// fill evaluates plan's GROUP BY over b into f.cols. It returns the number
// of rows filled and, when that is short of the batch, the error of the row
// after them.
func (f *groupByFill) fill(plan *gsql.Plan, b *tuple.Batch) (int, error) {
	if f.cols == nil {
		f.cols = make([]*tuple.Column, len(plan.GroupBy))
		for i := range f.cols {
			f.cols[i] = new(tuple.Column)
		}
	}
	for _, c := range f.cols {
		c.Reset()
	}
	for row := 0; row < b.Len(); row++ {
		f.row = b.Row(row, f.row)
		f.ctx = gsql.Ctx{Tuple: f.row}
		for i, gb := range plan.GroupBy {
			v, err := gb(&f.ctx)
			if err != nil {
				return row, err
			}
			f.cols[i].AppendValue(v)
		}
	}
	return b.Len(), nil
}

// ptableVec is a partial-aggregation table's batch state: the recompiled
// GROUP BY and aggregate-argument kernels (vp is nil when the plan does not
// vectorize) plus column scratch.
type ptableVec struct {
	vp      *gsql.VecPlan
	env     *gsql.VecEnv
	gb      []*tuple.Column // the kernels' or fill's
	aggCols []*tuple.Column // nil entries use the closure
	fill    groupByFill
	rowT    tuple.Tuple

	// Ordered-window fast path (see operator's vecState): raw payload
	// views of the ordered group-by columns and the open window's words,
	// valid when ordFast.
	ordFast bool
	ordBits [][]uint64
	winBits []uint64
}

func (t *ptable) initVec() *ptableVec {
	v := &ptableVec{
		gb:      make([]*tuple.Column, len(t.plan.GroupBy)),
		aggCols: make([]*tuple.Column, len(t.plan.Aggs)),
		ordBits: make([][]uint64, len(t.plan.OrderedIdx)),
		winBits: make([]uint64, len(t.plan.OrderedIdx)),
	}
	if vp, ok := gsql.Vectorize(t.plan); ok {
		v.vp = vp
		v.env = &gsql.VecEnv{}
	}
	t.vec = v
	return v
}

// ProcessBatch folds a batch of packet tuples into the table: the fold's
// one walk, row by row — window boundary, slot, collision eviction, claim,
// aggregate updates — in row order. The GROUP BY and aggregate arguments
// evaluate as column kernels over the whole batch when the plan vectorizes
// (mutation-free: a kernel error leaves the batch to closure mode, as in
// the operator), and the walk probes the direct-mapped table straight off
// the columns, materializing key values only when claiming a slot. In
// closure mode the GROUP BY closures fill the columns first, up to the
// first row that errs, and an aggregate argument's closure evaluates inside
// the walk, after its slot's eviction and claim. An attached profile reads
// the clock between the phases (an error ends the node's run, and leaves
// the batch's walk uncharged).
func (t *ptable) ProcessBatch(b *tuple.Batch) error {
	v := t.vec
	if v == nil {
		v = t.initVec()
	}
	n, np := b.Len(), t.prof
	rows := int64(n)
	pt := np.Start()
	kernels := v.vp != nil
	if kernels {
		pt, kernels = t.evalKernels(b, v, pt)
	}
	stop, err := n, error(nil)
	rowCtx := !kernels || v.vp.NeedRowCtx
	if !kernels {
		if stop, err = v.fill.fill(t.plan, b); err != nil {
			err = fmt.Errorf("group-by: %w", err)
		}
		copy(v.gb, v.fill.cols)
		clear(v.aggCols)
		t.armWindow(v)
	}
	nested := t.nestedNS
	for row := 0; row < stop; row++ {
		if t.winOpen {
			changed := false
			if v.ordFast {
				for i := range v.ordBits {
					if v.ordBits[i][row] != v.winBits[i] {
						changed = true
						break
					}
				}
			} else {
				for i, idx := range t.plan.OrderedIdx {
					if !v.gb[idx].EqualValue(row, t.window[i]) {
						changed = true
						break
					}
				}
			}
			if changed {
				if err := t.Flush(); err != nil {
					return err
				}
			}
		}
		if !t.winOpen {
			t.winOpen = true
			t.winStartNS = t.prof.Start()
			t.window = t.window[:0]
			for _, idx := range t.plan.OrderedIdx {
				t.window = append(t.window, v.gb[idx].Value(row))
			}
			if v.ordFast {
				for i, wv := range t.window {
					v.winBits[i] = wv.Bits()
				}
			}
		}
		h := tuple.HashRow(v.gb, row)
		idx := h & t.mask
		if t.div > 1 {
			idx /= t.div
		}
		slot := &t.slots[idx]
		if slot.used && !t.slotKeyEqualsRow(slot, h, row) {
			if err := t.emitSlot(slot); err != nil {
				return t.drain(err)
			}
			slot.used = false
			t.residents--
			t.evictions++
		}
		if !slot.used || rowCtx {
			for i := range t.gbVals {
				t.gbVals[i] = v.gb[i].Value(row)
			}
		}
		if !slot.used {
			slot.used = true
			slot.key = tuple.MakeKey(t.gbVals)
			t.residents++
			if slot.aggs == nil {
				slot.aggs = make([]agg.Agg, len(t.plan.Aggs))
			}
			for i, def := range t.plan.Aggs {
				slot.aggs[i] = def.New()
			}
		}
		if rowCtx {
			v.rowT = b.Row(row, v.rowT)
			t.ctx = gsql.Ctx{Tuple: v.rowT, GroupVals: t.gbVals}
		}
		for i := range t.plan.Aggs {
			def := &t.plan.Aggs[i]
			var av value.Value
			if col := v.aggCols[i]; col != nil {
				av = col.Value(row)
			} else if def.Arg != nil {
				var err error
				if av, err = def.Arg(&t.ctx); err != nil {
					return t.drain(fmt.Errorf("%s: %w", def.Display, err))
				}
			}
			slot.aggs[i].Update(av)
		}
	}
	err = t.drain(err)
	np.Charge(profile.StageWalk, pt+t.nestedNS-nested, rows, rows)
	return err
}

// evalKernels evaluates the fold's kernels over the whole batch, charging
// the profile by phase, and reports whether all succeeded.
func (t *ptable) evalKernels(b *tuple.Batch, v *ptableVec, pt int64) (int64, bool) {
	np, rows := t.prof, int64(b.Len())
	env := v.env
	env.Reset(b)
	for i, e := range v.vp.GroupBy {
		col, err := e.EvalCol(env)
		if err != nil {
			return pt, false
		}
		v.gb[i] = col
	}
	env.SetGroupCols(v.gb)
	pt = np.Charge(profile.StageKernelGroupBy, pt, rows, rows)
	for i, e := range v.vp.AggArgs {
		v.aggCols[i] = nil
		if e != nil {
			col, err := e.EvalCol(env)
			if err != nil {
				return pt, false
			}
			v.aggCols[i] = col
		}
	}
	t.armWindow(v)
	return np.Charge(profile.StageKernelArgs, pt, rows, rows), true
}

// armWindow arms the ordered-window fast path for this batch (see the
// operator's): per-row boundary checks reduce to raw payload-word compares
// when every ordered column is kind-uniform Bool/Int/Uint.
func (t *ptable) armWindow(v *ptableVec) {
	v.ordFast = len(t.plan.OrderedIdx) > 0
	for i, idx := range t.plan.OrderedIdx {
		k, ok := v.gb[idx].Uniform()
		if !ok || !tuple.RawEqKind(k) || (t.winOpen && t.window[i].Kind() != k) {
			v.ordFast = false
			return
		}
		v.ordBits[i] = v.gb[idx].Bits()
	}
	if v.ordFast && t.winOpen {
		for i, wv := range t.window {
			v.winBits[i] = wv.Bits()
		}
	}
}

// slotKeyEqualsRow reports whether the resident key equals row `row` of
// the group-by columns — Key.Equal without building a key.
func (t *ptable) slotKeyEqualsRow(slot *partialGroup, h uint64, row int) bool {
	if slot.key.Hash() != h {
		return false
	}
	vals := slot.key.Values()
	if len(vals) != len(t.vec.gb) {
		return false
	}
	for c := range vals {
		if !t.vec.gb[c].EqualValue(row, vals[c]) {
			return false
		}
	}
	return true
}

// routerVec is a shard set's routing state: the router plan's GROUP BY
// kernels (vp is nil when it does not vectorize), the packets' batch and
// the group-by columns.
type routerVec struct {
	vp   *gsql.VecPlan
	env  *gsql.VecEnv
	gb   []*tuple.Column // the kernels' or fill's
	b    *tuple.Batch
	fill groupByFill
}

// routeBatch routes producer packets to the shards: GROUP BY over the whole
// batch — kernels, or closure mode when the router plan does not vectorize
// or a kernel errs — then per packet HashRow → owning shard. Unpaced, a
// packet joins its shard's routing buffer, and a window boundary raises the
// barrier first; paced, the producer hands over one packet at a time and it
// is offered to the shard's gate at once. If the GROUP BY closures err at
// packet k, the packets before k are routed and the error returned.
func (s *shardSet) routeBatch(pkts []trace.Packet) error {
	if len(pkts) == 0 {
		return nil
	}
	v := s.rvec
	if v == nil {
		v = &routerVec{
			gb: make([]*tuple.Column, len(s.router.GroupBy)),
			b:  tuple.NewBatch(trace.Schema(), tuple.DefaultBatchRows),
		}
		if vp, ok := gsql.Vectorize(s.router); ok {
			v.vp = vp
			v.env = &gsql.VecEnv{}
		}
		s.rvec = v
	}
	b := v.b
	b.Reset()
	trace.AppendBatch(b, pkts)
	kernels := v.vp != nil
	if kernels {
		v.env.Reset(b)
		for i, e := range v.vp.GroupBy {
			col, err := e.EvalCol(v.env)
			if err != nil {
				kernels = false
				break
			}
			v.gb[i] = col
		}
	}
	stop, err := len(pkts), error(nil)
	if !kernels {
		if stop, err = v.fill.fill(s.router, b); err != nil {
			err = fmt.Errorf("engine: node %q: routing group-by: %w", s.node.name, err)
		}
		copy(v.gb, v.fill.cols)
	}
	nw := uint64(len(s.shards))
	for row := 0; row < stop; row++ {
		if s.barrier && len(s.router.OrderedIdx) > 0 {
			if s.winOpen && s.routerChangedAt(row) {
				s.windowBarrier()
				s.winOpen = false
			}
			if !s.winOpen {
				s.winOpen = true
				s.window = s.window[:0]
				for _, idx := range s.router.OrderedIdx {
					s.window = append(s.window, v.gb[idx].Value(row))
				}
			}
		}
		slot := tuple.HashRow(v.gb, row) & s.mask
		shard := int(slot % nw)
		if !s.barrier {
			s.gates[shard].offer(pkts[row : row+1])
			continue
		}
		s.pend[shard] = append(s.pend[shard], pkts[row])
		if len(s.pend[shard]) >= shardBatch {
			s.flushPend(shard)
		}
	}
	return err
}

// routerChangedAt reports whether row's ordered group-by values leave the
// window the router has open.
func (s *shardSet) routerChangedAt(row int) bool {
	for i, idx := range s.router.OrderedIdx {
		if !s.rvec.gb[idx].EqualValue(row, s.window[i]) {
			return true
		}
	}
	return false
}
