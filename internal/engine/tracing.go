package engine

import (
	"streamop/internal/trace"
	"streamop/internal/tracing"
)

// Provenance tracing for the single-threaded Run path. The engine owns the
// stages the operator cannot see: the source ring (enqueue, dequeue-wait,
// drops), the handoff of emitted rows into high-level input batches, and
// the application boundary where a trace terminates as "emitted".
//
// Traced tuples are identified purely by position — the ring's push/pop
// counters for source packets, the row's index in a high-level node's
// input batch — so no metadata rides on tuples and the untraced hot path is
// unchanged apart from nil checks. A batch holding traced rows is processed
// as columnar segments around them, each traced row as a batch of one with
// its traces current, which the operator's walk runs in closure mode
// (processLowBatch for packets, Node.processInput for high-level rows) and
// whose output row leaves as a batch of one too (Operator.output,
// Node.emitCols). A traced row emitted to several subscribers follows the
// FIRST subscriber only (one terminal disposition per trace). RunParallel
// ignores tracing entirely: the positions are the serial loop's, and a
// tracer is one goroutine's to use, so a parallel run detaches the tracer
// from its nodes and operators until it returns.

// SetTracer attaches tr to the engine and to every node registered so far
// and afterwards. A nil tracer detaches. It errors once a run or session
// is active.
func (e *Engine) SetTracer(tr *tracing.Tracer) error {
	if err := e.setterGuard("SetTracer"); err != nil {
		return err
	}
	e.tr = tr
	for _, n := range e.Nodes() {
		n.attachTracer(tr)
	}
	return nil
}

// Tracer returns the engine's tracer, nil when tracing is off.
func (e *Engine) Tracer() *tracing.Tracer { return e.tr }

// attachTracer hands tr to a node whose step has trace sites. The
// operator's does; a partial-aggregation table has none, so such a node
// never holds a tracer and no traced packet is sent its way.
func (n *Node) attachTracer(tr *tracing.Tracer) {
	if ts, ok := n.step.(interface {
		SetTracer(tr *tracing.Tracer, node string)
	}); ok {
		n.tr = tr
		ts.SetTracer(tr, n.name)
	}
}

// processLowBatch feeds one popped batch through a low-level node: the
// serial loop's and every RunParallel worker's step over packets. matches
// (non-nil only for the node that carries tracing — the first low-level
// node holding a tracer) holds the traced packets of this batch in FIFO
// order. The batch is
// processed as columnar segments between matches, and each traced packet as
// a segment of its own with the tracer's current context set around it,
// which the operator's walk runs in closure mode. The operator's
// trace record sites iterate the tracer's current set, empty for every
// packet of an untraced segment, so a 1-in-N tracer costs the batch path
// nothing but the segment split, and a batch with no matches (tracing off,
// or none of its packets sampled) is one segment.
func (e *Engine) processLowBatch(low *Node, pkts []trace.Packet, matches []tracing.SourceMatch) error {
	i := 0
	for _, m := range matches {
		if err := e.processLowColumnar(low, pkts[i:m.Idx]); err != nil {
			return err
		}
		e.tr.SetCurrentOne(m.TT)
		err := e.processLowColumnar(low, pkts[m.Idx:m.Idx+1])
		e.tr.ClearCurrent()
		if err != nil {
			return err
		}
		i = m.Idx + 1
	}
	return e.processLowColumnar(low, pkts[i:])
}

// nodeTrace pairs the traces riding on one row of a node's input batch
// with the row's position in it.
type nodeTrace struct {
	idx  int
	from string // emitting node, for the transfer span
	tts  []*tracing.TupleTrace
}

// enqueueTrace records tts as riding on the row about to be appended to
// n's input batch.
func (n *Node) enqueueTrace(from string, tts []*tracing.TupleTrace) {
	for _, tt := range tts {
		tt.TransferEnqueued()
	}
	n.trPend = append(n.trPend, nodeTrace{idx: n.inBatch.Len(), from: from, tts: tts})
}

// takeRowTraces returns the traces riding on the first traced row still
// pending, recording each one's transfer span.
func (n *Node) takeRowTraces() []*tracing.TupleTrace {
	m := n.trPend[0]
	n.trPend = n.trPend[1:]
	for _, tt := range m.tts {
		tt.TransferDequeued(m.from, n.name)
	}
	return m.tts
}
