// Columnar batch feeding: the ring → step hot path of every run mode.
// Popped packet batches convert to columnar tuple batches
// (trace.AppendBatch: one tight loop per field, in processLowColumnar for
// every kind of low-level node) and flow through the node's step,
// Operator.ProcessBatch or ptable.ProcessBatch, each the one walk of its
// step: column kernels where the plan has them, the plan's closures where
// it does not. Both walks, and the shard router's routeBatch, stand behind
// one front, gsql.GroupFront: GROUP BY over the batch and the open window;
// the walks themselves stay apart (see partial.go). The way out is columns
// too, for every kind of node under every run mode: what a node outputs
// reaches the edges to the nodes reading it through Node.emitCols
// (engine.go). A traced node's batch runs as any other, its traces riding
// it by row position (tracing.go), and so does a profiled node's.
package engine

import (
	"fmt"
	"time"

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

// processLowBatch feeds one popped batch through a low-level node as a
// columnar tuple batch: the serial loop's and every RunParallel worker's
// step over packets, one ProcessBatch whatever the tracer holds.
func (e *Engine) processLowBatch(low *Node, pkts []trace.Packet) error {
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

// ProcessBatch folds a batch of packet tuples into the table: the fold's
// one walk, row by row — window boundary, slot, collision eviction, claim,
// aggregate updates — in row order. GROUP BY and the window boundary are
// the table's gsql.GroupFront, as they are the operator's and the router's.
// GROUP BY and the aggregate arguments evaluate as column kernels over the
// whole batch when the plan vectorizes (mutation-free: a kernel error
// leaves the batch to closure mode, as in the operator), and the walk
// probes the direct-mapped table straight off the columns, materializing
// key values only when claiming a slot. In closure mode the GROUP BY
// closures fill the columns first, up to the first row that errs, and an
// aggregate argument's closure evaluates inside the walk, after its slot's
// eviction and claim. An attached profile reads the clock between the
// phases (an error ends the node's run, and leaves the batch's walk
// uncharged).
func (t *ptable) ProcessBatch(b *tuple.Batch) error {
	f := t.front
	n, np := b.Len(), t.prof
	rows := int64(n)
	pt := np.Start()
	pt, kernels := t.evalKernels(b, pt)
	stop, err := n, error(nil)
	rowCtx := !kernels || f.Vec().NeedRowCtx
	if !kernels {
		if stop, _, err = f.Closures(b); err != nil {
			err = fmt.Errorf("group-by: %w", err)
		}
		clear(t.aggCols)
	}
	gb := f.Cols()
	nested := t.nestedNS
	for row := 0; row < stop; row++ {
		if f.Closes(row) {
			if err := t.Flush(); err != nil {
				return err
			}
		}
		if f.OpenAt(row) {
			t.winStartNS = t.prof.Start()
		}
		h := tuple.HashRow(gb, row)
		idx := h & t.mask
		if t.div > 1 {
			idx /= t.div
		}
		slot := int(idx)
		if t.used[slot] && !t.slotKeyEqualsRow(slot, h, row) {
			if err := t.emitSlot(slot); err != nil {
				return t.drain(err)
			}
			t.evictions++
		}
		if !t.used[slot] {
			t.claim(slot, h, gb, row)
		}
		if rowCtx {
			for i, c := range gb {
				t.gbVals[i] = c.Value(row)
			}
			t.rowT = b.Row(row, t.rowT)
			t.ctx = gsql.Ctx{Tuple: t.rowT, GroupVals: t.gbVals}
		}
		for i := range t.plan.Aggs {
			def := &t.plan.Aggs[i]
			var av value.Value
			if col := t.aggCols[i]; col != nil {
				av = col.Value(row)
			} else if def.Arg != nil {
				var err error
				if av, err = def.Arg(&t.ctx); err != nil {
					return t.drain(fmt.Errorf("%s: %w", def.Display, err))
				}
			}
			t.aggs[i].Update(int32(slot), av)
		}
	}
	err = t.drain(err)
	np.Charge(profile.StageWalk, pt+t.nestedNS-nested, rows, rows)
	return err
}

// evalKernels evaluates the fold's kernels over the whole batch, charging
// the profile by phase, and reports whether all succeeded.
func (t *ptable) evalKernels(b *tuple.Batch, pt int64) (int64, bool) {
	f := t.front
	if !f.Kernels(b) {
		return pt, false
	}
	np, rows := t.prof, int64(b.Len())
	pt = np.Charge(profile.StageKernelGroupBy, pt, rows, rows)
	for i, e := range f.Vec().AggArgs {
		t.aggCols[i] = nil
		if e != nil {
			col, err := e.EvalCol(f.Env())
			if err != nil {
				return pt, false
			}
			t.aggCols[i] = col
		}
	}
	return np.Charge(profile.StageKernelArgs, pt, rows, rows), true
}

// slotKeyEqualsRow reports whether resident slot i's key (hash h) equals
// row row of the group-by columns.
func (t *ptable) slotKeyEqualsRow(i int, h uint64, row int) bool {
	if t.hash[i] != h {
		return false
	}
	gb := t.front.Cols()
	for c := range t.keys {
		if !t.keys[c].EqualRow(i, gb[c], row) {
			return false
		}
	}
	return true
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
	s.in.Reset()
	trace.AppendBatch(s.in, pkts)
	f := s.front
	stop, err := len(pkts), error(nil)
	if !f.Kernels(s.in) {
		if stop, _, err = f.Closures(s.in); err != nil {
			err = fmt.Errorf("engine: node %q: routing group-by: %w", s.node.name, err)
		}
	}
	gb := f.Cols()
	nw := uint64(len(s.shards))
	for row := 0; row < stop; row++ {
		if s.barrier {
			if f.Closes(row) {
				s.windowBarrier()
				f.CloseWindow()
			}
			f.OpenAt(row)
		}
		slot := tuple.HashRow(gb, row) & s.mask
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
