package engine

import (
	"fmt"
	"runtime/debug"

	"streamop/internal/tracing"
)

// Per-query panic containment.
//
// An operator panic — a bug in an SFUN, a UDAF, or the operator itself —
// is contained to the node it happened in, whatever the node's step and
// whichever run mode's goroutine was running it: the recover captures the
// panic value and stack, the node transitions to failed and stops
// processing (the rest of its input batch and all future input is discarded
// by stepHigh; a RunParallel worker keeps draining its ring), and the
// engine, its sibling queries, and the process all keep running. The shard
// replicas of a partial-aggregation node fail as the one node they are: the
// first panic is the node's recorded failure, and the others stop folding.
// A failed node's state is frozen mid-mutation and therefore untrusted:
// checkpoints taken afterwards record the failure marker instead of the
// state, so a restore resumes the healthy siblings from the snapshot and
// carries the failure forward (the last snapshot before the panic still
// holds the node's last-good state).
//
// Error returns are unchanged: an operator *error* still aborts the run,
// as before. Containment is strictly for panics, which previously took
// the whole process down.

// NodeFailure describes one contained node panic.
type NodeFailure struct {
	Node  string `json:"node"`
	Msg   string `json:"error"`
	Stack string `json:"stack,omitempty"`
}

// Failures returns the contained node failures of this run (and any
// carried over by a restore), in the order they occurred. Safe to call
// concurrently with a running engine.
func (e *Engine) Failures() []NodeFailure {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return append([]NodeFailure(nil), e.failures...)
}

// guardNode runs fn — one step of node n — converting a panic into a
// contained node failure (nil error). A failed node is skipped outright.
// Errors pass through untouched. rts are the traces riding on the rows of
// the batch fn hands the step, current for its walk to take; every trace
// the step leaves behind — not taken, or staged on an output row no sink
// claimed — ends as node_failed.
func (e *Engine) guardNode(n *Node, rts []tracing.RowTraces, fn func() error) (err error) {
	if n.tr != nil {
		n.tr.SetCurrent(rts)
		defer n.tr.FinishCurrent("node_failed")
	}
	if n.failed {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			e.failNode(n, r, debug.Stack())
		}
	}()
	return fn()
}

// failNode marks n failed and records the failure for Failures, /debug,
// telemetry, and the event log. Called from whichever goroutine owns the
// node's processing; everything it touches besides the node itself is
// mutex-guarded or atomic.
func (e *Engine) failNode(n *Node, cause any, stack []byte) {
	n.failed = true
	n.failMsg = fmt.Sprint(cause)
	n.failStack = string(stack)
	if s := n.set; s != nil && s.dead.Swap(true) {
		return // a sibling replica has already failed the node
	}
	e.recordFailure(NodeFailure{Node: n.name, Msg: n.failMsg, Stack: n.failStack}, true)
}

// recordFailure appends one failure to the engine's list; fresh is false
// when a restore is replaying a failure recorded by an earlier run (no
// telemetry event for those).
func (e *Engine) recordFailure(f NodeFailure, fresh bool) {
	e.failMu.Lock()
	e.failures = append(e.failures, f)
	e.failMu.Unlock()
	if tel := e.tel; tel != nil {
		tel.Registry().GaugeVec("streamop_node_failed",
			"1 when the node's query failed (contained operator panic)", "node").With(f.Node).Set(1)
		if fresh && tel.EventsEnabled() {
			tel.Emit("query_failed", map[string]any{"node": f.Node, "panic": f.Msg})
		}
	}
}
