// Columnar batch feeding: the ring → step hot path of every run mode.
// Popped packet batches convert to columnar tuple batches
// (trace.AppendBatch: one tight loop per field, in processLowColumnar for
// every kind of low-level node) and flow through the node's step,
// Operator.ProcessBatch or ptable.ProcessBatch, which are row-for-row
// identical to the scalar calls. The way out is columns too, for every
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

// ptableVec is a partial-aggregation table's vectorized execution state:
// the recompiled GROUP BY and aggregate-argument kernels plus column
// scratch. vp is nil when the plan does not vectorize.
type ptableVec struct {
	vp      *gsql.VecPlan
	env     *gsql.VecEnv
	gb      []*tuple.Column
	aggCols []*tuple.Column
	rowT    tuple.Tuple

	// Ordered-window fast path (see operator's vecState): raw payload
	// views of the ordered group-by columns and the open window's words,
	// valid when ordFast.
	ordFast bool
	ordBits [][]uint64
	winBits []uint64
}

func (t *ptable) initVec() *ptableVec {
	v := &ptableVec{}
	// NeedRowCtx cannot arise for partial-aggregation plans (no stateful
	// functions survive pushdown), but gate on it anyway: the batch fold
	// below materializes no row context.
	if vp, ok := gsql.Vectorize(t.plan); ok && !vp.NeedRowCtx {
		v.vp = vp
		v.env = &gsql.VecEnv{}
		v.gb = make([]*tuple.Column, len(vp.GroupBy))
		v.aggCols = make([]*tuple.Column, len(t.plan.Aggs))
		v.ordBits = make([][]uint64, len(t.plan.OrderedIdx))
		v.winBits = make([]uint64, len(t.plan.OrderedIdx))
	}
	t.vec = v
	return v
}

// ProcessBatch folds a batch of packet tuples into the table, row-for-row
// identical to calling process on each row: same folds, evictions, window
// flushes and errors in the same order. The GROUP BY and aggregate
// arguments evaluate as column kernels over the whole batch (mutation-
// free, so any evaluation error falls back to the scalar path for the
// exact error position); the fold walk then probes the direct-mapped
// table straight off the columns, materializing key values only when
// claiming a slot. An attached profile reads the clock between the phases
// (an error ends the node's run, and leaves the batch's walk uncharged).
func (t *ptable) ProcessBatch(b *tuple.Batch) error {
	v := t.vec
	if v == nil {
		v = t.initVec()
	}
	if v.vp == nil {
		return t.processRows(b)
	}
	np, rows := t.prof, int64(b.Len())
	pt := np.Start()
	env := v.env
	env.Reset(b)
	for i, e := range v.vp.GroupBy {
		col, err := e.EvalCol(env)
		if err != nil {
			return t.processRows(b)
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
				return t.processRows(b)
			}
			v.aggCols[i] = col
		}
	}
	// Arm the ordered-window fast path for this batch (see the operator's
	// ProcessBatch): per-row boundary checks reduce to raw payload-word
	// compares when every ordered column is kind-uniform Bool/Int/Uint.
	v.ordFast = len(t.plan.OrderedIdx) > 0
	for i, idx := range t.plan.OrderedIdx {
		k, ok := v.gb[idx].Uniform()
		if !ok || !tuple.RawEqKind(k) || (t.winOpen && t.window[i].Kind() != k) {
			v.ordFast = false
			break
		}
		v.ordBits[i] = v.gb[idx].Bits()
	}
	if v.ordFast && t.winOpen {
		for i, wv := range t.window {
			v.winBits[i] = wv.Bits()
		}
	}
	pt = np.Charge(profile.StageKernelArgs, pt, rows, rows)
	nested := t.nestedNS
	for row := 0; row < b.Len(); row++ {
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
				changed = t.orderedChangedAt(row)
			}
			if changed {
				if err := t.Flush(); err != nil {
					return err
				}
			}
		}
		if !t.winOpen {
			for _, idx := range t.plan.OrderedIdx {
				t.gbVals[idx] = v.gb[idx].Value(row)
			}
			t.openWindow()
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
		if !slot.used {
			for i := range t.gbVals {
				t.gbVals[i] = v.gb[i].Value(row)
			}
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
		for i := range t.plan.Aggs {
			var av value.Value
			if col := v.aggCols[i]; col != nil {
				av = col.Value(row)
			}
			slot.aggs[i].Update(av)
		}
	}
	err := t.drain(nil)
	np.Charge(profile.StageWalk, pt+t.nestedNS-nested, rows, rows)
	return err
}

// processRows feeds the batch through the row-at-a-time fold (a plan that
// does not vectorize, a kernel evaluation error), charged to the profile
// whole as walk, less the flushes inside it.
func (t *ptable) processRows(b *tuple.Batch) error {
	v := t.vec
	pt, nested := t.prof.Start(), t.nestedNS
	var err error
	for i := 0; i < b.Len() && err == nil; i++ {
		v.rowT = b.Row(i, v.rowT)
		err = t.process(v.rowT)
	}
	err = t.drain(err)
	t.prof.Charge(profile.StageWalk, pt+t.nestedNS-nested, int64(b.Len()), int64(b.Len()))
	return err
}

// orderedChangedAt is orderedChanged against batch columns.
func (t *ptable) orderedChangedAt(row int) bool {
	for i, idx := range t.plan.OrderedIdx {
		if !t.vec.gb[idx].EqualValue(row, t.window[i]) {
			return true
		}
	}
	return false
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

// routerVec is a shard set's vectorized routing state. vp is nil when the
// router plan does not vectorize (per-packet routing remains).
type routerVec struct {
	vp  *gsql.VecPlan
	env *gsql.VecEnv
	gb  []*tuple.Column
	b   *tuple.Batch
}

// routeBatch routes a producer batch columnar: one vectorized GROUP BY
// evaluation over the whole batch, then per-packet HashRow → shard
// assignment with the same window-barrier sequence as route. Evaluation
// errors and non-vectorizable routers fall back per packet — routing
// itself buffers nothing before the fallback, so positions are exact.
func (s *shardSet) routeBatch(pkts []trace.Packet, scratch tuple.Tuple) error {
	if len(pkts) == 0 {
		return nil
	}
	v := s.rvec
	if v == nil {
		v = &routerVec{}
		if vp, ok := gsql.Vectorize(s.router); ok {
			v.vp = vp
			v.env = &gsql.VecEnv{}
			v.gb = make([]*tuple.Column, len(vp.GroupBy))
			v.b = tuple.NewBatch(trace.Schema(), tuple.DefaultBatchRows)
		}
		s.rvec = v
	}
	if v.vp == nil {
		return s.routeRows(pkts, scratch)
	}
	b := v.b
	b.Reset()
	trace.AppendBatch(b, pkts)
	env := v.env
	env.Reset(b)
	for i, e := range v.vp.GroupBy {
		col, err := e.EvalCol(env)
		if err != nil {
			return s.routeRows(pkts, scratch)
		}
		v.gb[i] = col
	}
	nw := uint64(len(s.shards))
	for row := range pkts {
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
		s.pend[shard] = append(s.pend[shard], pkts[row])
		if len(s.pend[shard]) >= shardBatch {
			s.flushPend(shard)
		}
	}
	return nil
}

func (s *shardSet) routeRows(pkts []trace.Packet, scratch tuple.Tuple) error {
	for i := range pkts {
		if err := s.route(pkts[i:i+1], scratch); err != nil {
			return err
		}
	}
	return nil
}

// routerChangedAt is routerChanged against batch columns.
func (s *shardSet) routerChangedAt(row int) bool {
	for i, idx := range s.router.OrderedIdx {
		if !s.rvec.gb[idx].EqualValue(row, s.window[i]) {
			return true
		}
	}
	return false
}
