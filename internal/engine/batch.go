// Columnar batch feeding: the ring → step hot path of every run mode.
// Popped packet batches convert to columnar tuple batches
// (trace.AppendBatch: one tight loop per field, in processLowBatch for
// every kind of low-level node) and flow through the node's step,
// operator.Operator's or operator.Table's ProcessBatch, each the one walk
// of its step: column kernels where the plan has them, the plan's closures
// where it does not. Both walks, and the shard router's routeBatch, stand
// behind one front, gsql.GroupFront: GROUP BY over the batch and the open
// window; the walks themselves stay apart (see partial.go). The way out is
// columns too, for every kind of node under every run mode: what a node
// outputs reaches the edges to the nodes reading it through Node.emitCols
// (engine.go). A traced node's batch runs as any other, its traces riding
// it by row position (tracing.go), and so does a profiled node's.
package engine

import (
	"fmt"
	"time"

	"streamop/internal/profile"
	"streamop/internal/trace"
	"streamop/internal/tuple"
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

// routeBatch routes producer packets to the shards: GROUP BY over the whole
// batch — kernels, or closure mode when the router plan does not vectorize
// or a kernel errs — and its key hashes (tuple.HashRows), then per packet
// hash → owning shard. Unpaced, a packet joins its shard's routing buffer,
// and a window boundary raises the barrier first; paced, the producer
// hands over one packet at a time and it is offered to the shard's gate at
// once. If the GROUP BY closures err at packet k, the packets before k are
// routed and the error returned.
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
	s.hashes = tuple.HashRows(s.hashes, f.Cols(), nil, stop)
	nw := uint64(len(s.shards))
	for row := 0; row < stop; row++ {
		if s.barrier {
			if f.Closes(row) {
				s.windowBarrier()
				f.CloseWindow()
			}
			f.OpenAt(row)
		}
		slot := s.hashes[row] & s.mask
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
