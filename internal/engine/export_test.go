package engine

import (
	"streamop/internal/checkpoint"
	"streamop/internal/trace"
)

// Test-only access to what the hop tests compare and drive.

// OperatorSnapshot encodes the node operator's state with the checkpoint
// codec.
func (n *Node) OperatorSnapshot() ([]byte, error) {
	enc := checkpoint.NewEncoder()
	err := n.step.Snapshot(enc)
	return enc.Bytes(), err
}

// PendingInput is the number of rows waiting on the edge into a
// high-level node.
func (n *Node) PendingInput() int {
	if n.low {
		return 0
	}
	return n.inBatch.Len()
}

// TraceBacklog is the number of traces still waiting for their row of the
// node's input batch: 0 whenever the batch is empty.
func (n *Node) TraceBacklog() int { return len(n.trPend) }

// Node returns the query's node.
func (h *QueryHandle) Node() *Node { return h.node }

// HopBatch runs one popped batch through the first low-level node and
// drains the high level: the serial loop's inner step, without the feed
// and the ring around it.
func (e *Engine) HopBatch(pkts []trace.Packet) error {
	low := e.low[0]
	if err := e.processLowBatch(low, pkts); err != nil {
		return err
	}
	return e.drainHigh()
}

// RingPushed is the number of packets the source ring has accepted.
func (e *Engine) RingPushed() uint64 { return e.ring.Pushed() }

// SetShardRingCap overrides the per-shard ring capacity RunParallel gives
// sharded partial-aggregation nodes (default 4096): the chaos tests use
// deliberately tiny rings to force overload. n <= 0 restores the default.
func (e *Engine) SetShardRingCap(n int) { e.shardCap = n }

// SetAfterBoundary makes f run on the pump after every boundary that
// applied session commands. Set it before Start.
func (e *Engine) SetAfterBoundary(f func()) { e.afterBoundary = f }

// QueuedCommands is the number of session commands waiting for the pump.
func (e *Engine) QueuedCommands() int {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	if e.sess == nil {
		return 0
	}
	return len(e.sess.cmds)
}

// OperatorRestore loads a payload OperatorSnapshot's codec wrote into the
// node's step.
func (n *Node) OperatorRestore(b []byte) error {
	return n.step.Restore(checkpoint.NewDecoder(b))
}
