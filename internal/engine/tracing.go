package engine

import "streamop/internal/tracing"

// Provenance tracing for the single-threaded Run path. The engine owns the
// stages the operator cannot see: the source ring (enqueue, dequeue-wait,
// drops), the handoff of emitted rows into high-level input batches, and
// the application boundary where a trace terminates as "emitted".
//
// Traces ride the batch by row position (tracing.RowTraces): the ring's
// push/pop counters for source packets, the row's index in a high-level
// node's input batch. A traced batch is one step.ProcessBatch like any
// other; guardNode makes its traced rows current for the walk to take and
// finishes node_failed what the step left. Output rows' traces come back
// staged by position in the run, and Node.emitCols routes them to the
// first subscriber only (one terminal disposition per trace) or finishes
// them at an application boundary. RunParallel ignores tracing: the
// positions are the serial loop's, and a tracer is one goroutine's, so a
// parallel run detaches it from its nodes and operators until it returns.

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

// enqueueTraces records the staged traces of a run of rows about to be
// appended to n's input batch, at base, the batch's length before it.
func (n *Node) enqueueTraces(from string, base int, rts []tracing.RowTraces) {
	for _, rt := range rts {
		for _, tt := range rt.TTs {
			tt.TransferEnqueued()
		}
		n.trPend = append(n.trPend, tracing.RowTraces{Row: base + rt.Row, From: from, TTs: rt.TTs})
	}
}
