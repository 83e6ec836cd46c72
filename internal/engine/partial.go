package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/trace"
)

// Low-level partial aggregation: real Gigascope restricts low-level
// queries to selection and *partial* aggregation, a fixed-size
// direct-mapped group table that evicts (emits) the resident group on a
// collision instead of growing (operator.Table).
//
// A partial-aggregation node is a Node like any other — same ring, same
// conversion, counters, containment, emit and edges — whose step is the
// table instead of the sampling operator. The table lives in package
// operator beside the operator and is built from its parts: the group
// store's slots, the kernel pass and the output batch. It stays a step of
// its own because evict-on-collision would put a mode branch inside the
// operator's row-order walk.
//
// Under RunParallel the node fans out into shard replicas (see shard.go),
// each a Node of its own owning a disjoint stripe of the slot space
// (Table.Stripe): global slot s = hash & mask belongs to shard s % nshards
// and lives at local index s / nshards in that shard's table. Because the
// producer routes each packet to the shard owning its group's slot, the
// per-slot event sequence (fold, collision eviction, window flush) is
// identical to the single-table Run, which is what makes sharded
// aggregates and eviction counts exactly match the sequential ones.

// PartialNode is a low-level partial-aggregation query node: a Node whose
// step is an operator.Table, plus the shard count it fans out into under
// RunParallel.
type PartialNode struct {
	Node
	table *operator.Table
	// sharded sums the evictions of past RunParallel runs' replicas.
	sharded int64
	// shards is the replica count SetShards set for RunParallel; 0 means
	// DefaultShards.
	shards int
	// rt is the live sharded runtime, published for /debug/state while a
	// RunParallel run is in flight (nil under Run or before the first
	// parallel run).
	rt atomic.Pointer[shardSet]
}

// DefaultShards returns the shard count a partial-aggregation node fans
// out into under RunParallel unless SetShards picked one: GOMAXPROCS minus
// one core reserved for the producer, at least 1, at most 16 (fan-out
// beyond that only adds ring traffic on the feeds this engine replays).
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// AddLowLevelPartialAgg registers a low-level partial-aggregation node.
// plan must be a grouping query over PKT without sampling clauses or
// superaggregates (low-level nodes are deliberately simple). slots is
// rounded up to a power of two. The node's RunParallel shard count is
// DefaultShards until SetShards picks one.
func (e *Engine) AddLowLevelPartialAgg(name string, plan *gsql.Plan, slots int) (*PartialNode, error) {
	if plan.Schema.Name() != trace.Schema().Name() {
		return nil, fmt.Errorf("engine: partial-agg node %q must read PKT, got %q", name, plan.Schema.Name())
	}
	n := &PartialNode{Node: Node{name: name, plan: plan, low: true}}
	table, err := operator.NewTable(plan, slots, n.emitCols)
	if err != nil {
		return nil, fmt.Errorf("engine: partial-agg node %q %w", name, err)
	}
	if err := e.checkName(name); err != nil {
		return nil, err
	}
	if n.schema, err = plan.OutputSchema(name); err != nil {
		return nil, err
	}
	n.partial, n.table, n.step = n, table, table
	e.attach(&n.Node)
	e.low = append(e.low, &n.Node)
	return n, nil
}

// SetShards fixes the node's RunParallel fan-out. count < 1 restores
// DefaultShards. The count is clamped to the slot-table size, since a
// shard owning no slot stripe would never receive a packet.
func (n *PartialNode) SetShards(count int) { n.shards = count }

// Shards returns the shard count the node will fan out into under
// RunParallel.
func (n *PartialNode) Shards() int {
	c := n.shards
	if c < 1 {
		c = DefaultShards()
	}
	if c > n.table.Slots() {
		c = n.table.Slots()
	}
	return c
}

// Evictions returns the number of partial rows emitted due to slot
// collisions (as opposed to window closes): the measure of how undersized
// the table is for the workload. After a sharded RunParallel this is the
// sum across shard replicas.
func (n *PartialNode) Evictions() int64 { return n.table.Evictions() + n.sharded }

// Base returns the embedded Node, for AddHighLevel / Utilization /
// Subscribe composition.
func (n *PartialNode) Base() *Node { return &n.Node }
