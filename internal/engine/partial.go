package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"streamop/internal/agg"
	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/profile"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// Low-level partial aggregation: real Gigascope restricts low-level
// queries to selection and *partial* aggregation — a fixed-size
// direct-mapped group table that evicts (emits) the resident group on a
// collision instead of growing, so the fast path stays allocation-free and
// bounded. The high-level query re-aggregates the partial rows; the
// paper's §8 notes this is the right low-level support for the
// Manku-Motwani heavy hitters algorithm.
//
// A partial-aggregation node is a Node like any other — same ring, same
// conversion, counters, containment, emit and edges — whose step is the
// table (ptable) instead of the sampling operator. The table is not folded
// into the operator: evict-on-collision would put a mode branch inside the
// operator's row-order walk. The two share their front instead: GROUP BY
// and the open window are a gsql.GroupFront in both (and in the sharded
// router), so a window ends at the same row whichever step groups.
//
// Under RunParallel the node fans out into shard replicas (see shard.go),
// each a Node of its own owning a disjoint stripe of the slot space: global
// slot s = hash & mask belongs to shard s % nshards and lives at local
// index s / nshards in that shard's table. Because the producer routes each
// packet to the shard owning its group's slot, the per-slot event sequence
// (fold, collision eviction, window flush) is identical to the
// single-table Run, which is what makes sharded aggregates and eviction
// counts exactly match the sequential ones.

// ptable is one direct-mapped partial-aggregation table plus its window
// state, a node's step: the whole table for the single-threaded Run, or one
// shard's stripe under RunParallel. Exactly one goroutine owns a ptable.
//
// The slots are columns, as the operator's group store's are: slot i is
// resident when used[i], and its key is row i of one tuple.Column per
// GROUP BY item, its key hash hash[i], its aggregates slot i of one
// agg.Column per aggregate — the same columns, with the same arithmetic,
// as the operator's.
type ptable struct {
	used      []bool
	keys      []tuple.Column
	hash      []uint64
	aggs      []agg.Column
	slot      agg.Slot // the reader SELECT sees a slot's aggregates through
	mask      uint64   // global slot mask (slot = key hash & mask)
	div       uint64   // stripe divisor: 1 for the full table, nshards for a stripe
	plan      *gsql.Plan
	front     *gsql.GroupFront // GROUP BY and the open window
	ctx       gsql.Ctx
	gbVals    []value.Value
	keyVals   []value.Value // scratch: a slot's key values
	windows   int64         // windows closed
	evictions int64
	residents int64
	// emit takes the table's output rows (the emitCols of the node, or of
	// the replica, whose step this is). out is the batch emitSlot fills and
	// drain hands to it, empty whenever ProcessBatch or Flush returns; outRow
	// SELECT's scratch.
	emit   func(cols []*tuple.Column) error
	out    []*tuple.Column
	outRow tuple.Tuple

	// Profiling (nil when off). nestedNS sums the window flushes that
	// clocked themselves, so the walk around them is charged the remainder.
	prof       *profile.NodeProfile
	nestedNS   int64
	winStartNS int64

	// The fold's batch scratch (see batch.go): the aggregate argument
	// kernels' columns (nil entries use the closure) and the row context.
	aggCols []*tuple.Column
	rowT    tuple.Tuple
}

func newPtable(plan *gsql.Plan, slots int, mask uint64, div uint64, emit func(cols []*tuple.Column) error) ptable {
	t := ptable{
		used:    make([]bool, slots),
		keys:    make([]tuple.Column, len(plan.GroupBy)),
		hash:    make([]uint64, slots),
		aggs:    make([]agg.Column, len(plan.Aggs)),
		mask:    mask,
		div:     div,
		plan:    plan,
		front:   gsql.NewGroupFront(plan),
		gbVals:  make([]value.Value, len(plan.GroupBy)),
		aggCols: make([]*tuple.Column, len(plan.Aggs)),
		emit:    emit,
		out:     make([]*tuple.Column, len(plan.SelectExprs)),
		outRow:  make(tuple.Tuple, len(plan.SelectExprs)),
	}
	for i := range t.out {
		t.out[i] = new(tuple.Column)
	}
	for i := range t.keys {
		t.keys[i].Extend(value.Null, slots)
	}
	for i, def := range plan.Aggs {
		t.aggs[i] = def.New()
		t.aggs[i].Reset(int32(slots - 1))
	}
	t.slot.Cols = t.aggs
	return t
}

// claim makes slot i resident with the key of row row of the group-by
// columns gb (hash h) and fresh aggregates.
func (t *ptable) claim(i int, h uint64, gb []*tuple.Column, row int) {
	t.used[i], t.hash[i] = true, h
	for c := range t.keys {
		t.keys[c].SetFrom(i, gb[c], row)
	}
	for _, a := range t.aggs {
		a.Reset(int32(i))
	}
	t.residents++
}

// keyOf materializes slot i's key values.
func (t *ptable) keyOf(i int) []value.Value {
	t.keyVals = t.keyVals[:0]
	for c := range t.keys {
		t.keyVals = append(t.keyVals, t.keys[c].Value(i))
	}
	return t.keyVals
}

// bytes reports the table's storage in bytes.
func (t *ptable) bytes() int64 {
	n := int64(len(t.used)) + 8*int64(len(t.hash))
	for c := range t.keys {
		n += t.keys[c].Bytes()
	}
	for _, a := range t.aggs {
		n += a.Bytes()
	}
	return n
}

// emitSlot evaluates the SELECT list for resident slot s into the output
// batch, which leaves at the next drain, and frees the slot.
func (t *ptable) emitSlot(s int) error {
	t.slot.At = int32(s)
	ctx := gsql.Ctx{GroupVals: t.keyOf(s), Aggs: &t.slot}
	for i, sel := range t.plan.SelectExprs {
		v, err := sel(&ctx)
		if err != nil {
			return fmt.Errorf("SELECT %s: %w", t.plan.SelectNames[i], err)
		}
		t.outRow[i] = v
	}
	for i, c := range t.out {
		c.AppendValue(t.outRow[i])
	}
	t.used[s] = false
	t.residents--
	return nil
}

// drain hands the output batch to emit and empties it. It returns emit's
// error, or failing that err: rows output before an error go out first.
func (t *ptable) drain(err error) error {
	if t.out[0].Len() > 0 {
		if emitErr := t.emit(t.out); emitErr != nil {
			err = emitErr
		}
		for _, c := range t.out {
			c.Reset()
		}
	}
	return err
}

// Flush closes the open window: it emits every resident group and clears
// the table.
func (t *ptable) Flush() error {
	ft, groups := t.prof.Start(), t.residents
	for i, used := range t.used {
		if used {
			if err := t.emitSlot(i); err != nil {
				return t.drain(err)
			}
		}
	}
	if err := t.drain(nil); err != nil {
		return err
	}
	if t.front.WindowOpen() {
		t.front.CloseWindow()
		t.windows++
	}
	if np := t.prof; np != nil {
		np.SetOccupancy(groups, 0, t.bytes())
		end := np.Charge(profile.StageFlush, ft, groups, groups)
		t.nestedNS += end - ft
		if t.winStartNS != 0 {
			np.ObserveWindow(float64(end-t.winStartNS) / 1e9)
			t.winStartNS = 0
		}
	}
	return nil
}

// Stats reports the windows the table has closed, the one operator counter
// it keeps (see step).
func (t *ptable) Stats() operator.Stats { return operator.Stats{Windows: t.windows} }

// SetProfile attaches the clock the folds and Flush charge.
func (t *ptable) SetProfile(np *profile.NodeProfile) { t.prof = np }

// SetCollector is the step's; the table keeps no operator-level metrics.
func (t *ptable) SetCollector(*telemetry.Collector, string) {}

// Snapshot writes the table at a tuple boundary: the open window, the
// counters, and every resident group under its global slot index (hash &
// mask), so the layout does not depend on how the slots are striped. A
// user-defined aggregate has no codec and fails it, as in the operator.
func (t *ptable) Snapshot(e *checkpoint.Encoder) error {
	t.front.SnapshotWindow(e)
	e.I64(t.windows)
	e.I64(t.evictions)
	e.Len(int(t.residents))
	for i, used := range t.used {
		if !used {
			continue
		}
		e.U64(t.hash[i] & t.mask)
		e.Values(t.keyOf(i))
		for j, a := range t.aggs {
			if err := a.Encode(e, int32(i)); err != nil {
				return fmt.Errorf("snapshot of %s: %w", t.plan.Aggs[j].Display, err)
			}
		}
	}
	return nil
}

// Restore loads what Snapshot wrote into the empty table of a freshly
// built node with the same plan and slot count.
func (t *ptable) Restore(d *checkpoint.Decoder) error {
	t.front.RestoreWindow(d)
	t.windows = d.I64()
	t.evictions = d.I64()
	t.residents = int64(d.Len())
	for n := t.residents; n > 0; n-- {
		global := d.U64()
		vals := d.Values()
		if d.Err() != nil {
			break
		}
		h := tuple.HashValues(vals)
		if global != h&t.mask {
			return fmt.Errorf("snapshot has a group in slot %d that does not hash there: taken with a different table size", global)
		}
		if len(vals) != len(t.keys) {
			return fmt.Errorf("snapshot has a group key of %d values, the plan groups by %d", len(vals), len(t.keys))
		}
		i := int(global / t.div)
		t.used[i], t.hash[i] = true, h
		for c, v := range vals {
			t.keys[c].SetValue(i, v)
		}
		for j, a := range t.aggs {
			a.Reset(int32(i))
			if err := a.Decode(d, int32(i)); err != nil {
				return fmt.Errorf("restore of %s: %w", t.plan.Aggs[j].Display, err)
			}
		}
	}
	return d.Err()
}

// PartialNode is a low-level partial-aggregation query node: a Node whose
// step is a ptable, plus the shard count it fans out into under
// RunParallel.
type PartialNode struct {
	Node
	table ptable
	// shards is the configured replica count for RunParallel; 0 means
	// unresolved (plan hint, then DefaultShards).
	shards int
	// rt is the live sharded runtime, published for /debug/state while a
	// RunParallel run is in flight (nil under Run or before the first
	// parallel run).
	rt atomic.Pointer[shardSet]
}

// DefaultShards returns the shard count a partial-aggregation node fans
// out into under RunParallel when neither SetShards nor the plan's SHARDS
// hint picked one: GOMAXPROCS minus one core reserved for the producer,
// at least 1, at most 16 (fan-out beyond that only adds ring traffic on
// the feeds this engine replays).
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
// rounded up to a power of two. A SHARDS hint on the plan seeds the
// node's RunParallel shard count (see SetShards).
func (e *Engine) AddLowLevelPartialAgg(name string, plan *gsql.Plan, slots int) (*PartialNode, error) {
	if plan.Schema.Name() != trace.Schema().Name() {
		return nil, fmt.Errorf("engine: partial-agg node %q must read PKT, got %q", name, plan.Schema.Name())
	}
	if plan.IsSelection {
		return nil, fmt.Errorf("engine: partial-agg node %q needs GROUP BY", name)
	}
	if plan.Where != nil || plan.Having != nil || plan.CleaningWhen != nil || plan.CleaningBy != nil ||
		len(plan.Supers) > 0 || len(plan.States) > 0 {
		return nil, fmt.Errorf("engine: partial-agg node %q supports plain grouping/aggregation only", name)
	}
	if len(plan.Estimates) > 0 {
		// ESTIMATE columns need the operator's sampling states and
		// window-scoped HT pass; the sharded fold path has neither. Run
		// estimating queries as regular low-level nodes.
		return nil, fmt.Errorf("engine: partial-agg node %q cannot compute ESTIMATE columns", name)
	}
	if slots < 1 {
		return nil, fmt.Errorf("engine: partial-agg node %q needs at least 1 slot", name)
	}
	if err := e.checkName(name); err != nil {
		return nil, err
	}
	size := 1
	for size < slots {
		size <<= 1
	}
	schema, err := plan.OutputSchema(name)
	if err != nil {
		return nil, err
	}
	n := &PartialNode{
		Node:   Node{name: name, plan: plan, schema: schema, low: true},
		shards: plan.Shards,
	}
	n.partial = n
	n.table = newPtable(plan, size, uint64(size-1), 1, n.emitCols)
	n.step = &n.table
	e.attach(&n.Node)
	e.low = append(e.low, &n.Node)
	return n, nil
}

// SetShards fixes the node's RunParallel fan-out. count < 1 restores the
// default resolution (plan SHARDS hint, then DefaultShards). The resolved
// count is additionally clamped to the slot-table size, since a shard
// owning no slot stripe would never receive a packet.
func (n *PartialNode) SetShards(count int) {
	if count < 1 {
		count = n.plan.Shards
	}
	n.shards = count
}

// Shards returns the shard count the node will fan out into under
// RunParallel.
func (n *PartialNode) Shards() int {
	c := n.shards
	if c < 1 {
		c = DefaultShards()
	}
	if c > len(n.table.used) {
		c = len(n.table.used)
	}
	return c
}

// Evictions returns the number of partial rows emitted due to slot
// collisions (as opposed to window closes): the measure of how undersized
// the table is for the workload. After a sharded RunParallel this is the
// sum across shard replicas.
func (n *PartialNode) Evictions() int64 { return n.table.evictions }

// Base returns the embedded Node, for AddHighLevel / Utilization /
// Subscribe composition.
func (n *PartialNode) Base() *Node { return &n.Node }
