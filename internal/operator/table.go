package operator

import (
	"errors"
	"fmt"

	"streamop/internal/agg"
	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/profile"
	"streamop/internal/telemetry"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// Table is the partial aggregation of the paper's Fig. 1, the other step a
// low-level node may run: a fixed-size direct-mapped group table that
// outputs (evicts) the resident group on a collision instead of growing.
// The high-level query re-aggregates the partial rows (§8: the low-level
// support Manku-Motwani heavy hitters wants). It is a step of its own, not
// a mode of the Operator, since evict-on-collision would put a branch in
// the operator's row-order walk; what the two share is built once: the
// gsql.GroupFront, the kernel pass (vecState.evalKernels), the groupStore
// and its key comparison, and the outBatch. A group's slot is hash & mask;
// a shard replica's stripe (Stripe) holds global slot s at s / stripes.
type Table struct {
	plan  *gsql.Plan
	front *gsql.GroupFront
	vec   *vecState
	store groupStore
	used  []bool // slot s is resident
	mask  uint64 // global slot mask (slot = key hash & mask)
	div   uint64 // stripe divisor: 1 for the full table
	slot  agg.Slot
	out   outBatch
	// The contexts of a row's closures and of a leaving group's SELECT.
	ctx, sel gsql.Ctx
	gbVals   []value.Value
	keyVals  []value.Value

	windows, evictions, residents int64

	// Profiling (nil when off): nestedNS sums the flushes' own charges.
	prof       *profile.NodeProfile
	nestedNS   int64
	winStartNS int64
}

// NewTable returns an empty table of slots slots, rounded up to a power of
// two, that outputs its rows to sink. plan must do nothing but group and
// aggregate. An error is a predicate the caller names its subject in.
func NewTable(plan *gsql.Plan, slots int, sink ColumnSink) (*Table, error) {
	switch {
	case plan.IsSelection:
		return nil, errors.New("needs GROUP BY")
	case plan.Where != nil || plan.Having != nil || plan.CleaningWhen != nil || plan.CleaningBy != nil ||
		len(plan.Supers) > 0 || len(plan.States) > 0:
		return nil, errors.New("supports plain grouping/aggregation only")
	case len(plan.Estimates) > 0: // they need sampling states
		return nil, errors.New("cannot compute ESTIMATE columns")
	case slots < 1:
		return nil, errors.New("needs at least 1 slot")
	}
	size := 1
	for size < slots {
		size <<= 1
	}
	return newTable(plan, size, uint64(size-1), 1, sink), nil
}

// Stripe returns an empty stripe of t for one of stripes shard replicas,
// over plan (a clone of t's), that outputs to sink: the slots s of t with
// s % stripes the replica's, whose rows are all it is fed.
func (t *Table) Stripe(plan *gsql.Plan, stripes int, sink ColumnSink) *Table {
	return newTable(plan, (len(t.used)+stripes-1)/stripes, t.mask, uint64(stripes), sink)
}

func newTable(plan *gsql.Plan, slots int, mask, div uint64, sink ColumnSink) *Table {
	t := &Table{
		plan:   plan,
		front:  gsql.NewGroupFront(plan),
		store:  newGroupStore(plan),
		used:   make([]bool, slots),
		mask:   mask,
		div:    div,
		gbVals: make([]value.Value, len(plan.GroupBy)),
	}
	t.vec = newVecState(plan, t.front.Vec())
	t.store.hash = make([]uint64, slots)
	for i := range t.store.keys {
		t.store.keys[i].Extend(value.Null, slots)
	}
	for _, a := range t.store.aggs {
		a.Reset(int32(slots - 1))
	}
	t.slot.Cols = t.store.aggs
	t.sel.Aggs = &t.slot
	t.out = newOutBatch(plan, &t.store)
	t.out.sink = sink
	return t
}

// Slots returns the number of slots: the whole table's, or a stripe's.
func (t *Table) Slots() int { return len(t.used) }

// Evictions returns the number of rows output on slot collisions, as
// opposed to window closes.
func (t *Table) Evictions() int64 { return t.evictions }

// Residents returns the number of groups resident.
func (t *Table) Residents() int64 { return t.residents }

// Stats reports the windows the table has closed, the one operator counter
// it keeps.
func (t *Table) Stats() Stats { return Stats{Windows: t.windows} }

// SetProfile attaches the clock the folds and Flush charge.
func (t *Table) SetProfile(np *profile.NodeProfile) { t.prof = np }

// SetCollector keeps no metrics: the table has no operator-level ones.
func (t *Table) SetCollector(*telemetry.Collector, string) {}

// ProcessBatch folds a batch into the table: its one walk, row by row —
// window boundary, slot, collision eviction, claim, aggregate updates.
// GROUP BY and the arguments are the kernel pass's columns, or closure
// mode's as in the operator: the GROUP BY closures up to the first row
// that errs, an argument's closure after its slot's eviction and claim
// (gsql.ArgAt). An error ends the node's run, its walk uncharged.
func (t *Table) ProcessBatch(b *tuple.Batch) error {
	f, v, np := t.front, t.vec, t.prof
	n, rows := b.Len(), int64(b.Len())
	pt, kernels := v.evalKernels(f, b, np, np.Start())
	stop, err := n, error(nil)
	rowCtx := !kernels || v.vp.NeedRowCtx
	if !kernels {
		if stop, _, err = f.Closures(b); err != nil {
			err = fmt.Errorf("group-by: %w", err)
		}
		clear(v.aggCols)
	}
	v.checkSummed(t.plan)
	gb := f.Cols()
	v.hashes = tuple.HashRows(v.hashes, gb, nil, stop)
	nested := t.nestedNS
	for row := 0; row < stop; row++ {
		if f.Closes(row) {
			if err := t.Flush(); err != nil {
				return err
			}
		}
		if f.OpenAt(row) {
			t.winStartNS = np.Start()
		}
		h := v.hashes[row]
		idx := h & t.mask
		if t.div > 1 {
			idx /= t.div
		}
		s := int(idx)
		if t.used[s] && (t.store.hash[s] != h || !t.store.equalRow(s, gb, row)) {
			if err := t.evict(s); err != nil {
				return t.out.drain(err)
			}
		}
		if !t.used[s] {
			t.store.reset(int32(s), h)
			t.store.setKeyRow(int32(s), gb, row)
			t.used[s] = true
			t.residents++
		}
		if rowCtx {
			for i, c := range gb {
				t.gbVals[i] = c.Value(row)
			}
			v.rowT = b.Row(row, v.rowT)
			t.ctx = gsql.Ctx{Tuple: v.rowT, GroupVals: t.gbVals}
		}
		for i := range t.plan.Aggs {
			def := &t.plan.Aggs[i]
			av, err := gsql.ArgAt(&t.ctx, v.aggCols[i], def.Arg, v.aggCheck[i], def.Display, row)
			if err != nil {
				return t.out.drain(err)
			}
			t.store.aggs[i].Update(int32(s), av)
		}
	}
	err = t.out.drain(err)
	np.Charge(profile.StageWalk, pt+t.nestedNS-nested, rows, rows)
	return err
}

// pass outputs resident slot s as the next row of the output batch and
// frees it: its computed SELECT items now, its references at the next
// gather, which must come before s is claimed again.
func (t *Table) pass(s int) error {
	t.slot.At = int32(s)
	if t.plan.SelectReadsKey {
		t.keyVals = t.store.keyVals(int32(s), t.keyVals)
		t.sel.GroupVals = t.keyVals
	}
	if err := t.out.compute(&t.sel); err != nil {
		return t.out.gather(err)
	}
	t.used[s] = false
	t.residents--
	return t.out.queue(int32(s))
}

// evict outputs resident slot s, whose key collides with the row's, before
// the row claims it.
func (t *Table) evict(s int) error {
	if err := t.pass(s); err != nil {
		return err
	}
	t.evictions++
	return t.out.gather(nil)
}

// Flush closes the open window: it outputs every resident group, in slot
// order, and empties the table.
func (t *Table) Flush() error {
	ft, groups := t.prof.Start(), t.residents
	for s, used := range t.used {
		if used {
			if err := t.pass(s); err != nil {
				return t.out.drain(err)
			}
		}
	}
	if err := t.out.drain(t.out.gather(nil)); err != nil {
		return err
	}
	if t.front.WindowOpen() {
		t.front.CloseWindow()
		t.windows++
	}
	if np := t.prof; np != nil {
		np.SetOccupancy(groups, 0, int64(len(t.used))+t.store.bytes())
		end := np.Charge(profile.StageFlush, ft, groups, groups)
		t.nestedNS += end - ft
		if t.winStartNS != 0 {
			np.ObserveWindow(float64(end-t.winStartNS) / 1e9)
			t.winStartNS = 0
		}
	}
	return nil
}

// Snapshot writes the open window, the counters and every resident group
// under its global slot index (hash & mask), whatever the striping. A
// user-defined aggregate has no codec and fails it, as in the operator.
func (t *Table) Snapshot(e *checkpoint.Encoder) error {
	t.front.SnapshotWindow(e)
	e.I64(t.windows)
	e.I64(t.evictions)
	e.Len(int(t.residents))
	for s, used := range t.used {
		if !used {
			continue
		}
		e.U64(t.store.hash[s] & t.mask)
		t.keyVals = t.store.keyVals(int32(s), t.keyVals)
		e.Values(t.keyVals)
		for j, a := range t.store.aggs {
			if err := a.Encode(e, int32(s)); err != nil {
				return fmt.Errorf("snapshot of %s: %w", t.plan.Aggs[j].Display, err)
			}
		}
	}
	return nil
}

// Restore loads what Snapshot wrote into an empty table with the same plan
// and slot count. A snapshot is input from outside the program: one that
// lists a slot twice is refused.
func (t *Table) Restore(d *checkpoint.Decoder) error {
	t.front.RestoreWindow(d)
	t.windows = d.I64()
	t.evictions = d.I64()
	for n := d.Len(); n > 0; n-- {
		global := d.U64()
		vals := d.Values()
		if d.Err() != nil {
			break
		}
		h := tuple.HashValues(vals)
		if global != h&t.mask {
			return fmt.Errorf("snapshot has a group in slot %d that does not hash there: taken with a different table size", global)
		}
		if len(vals) != len(t.store.keys) {
			return fmt.Errorf("snapshot has a group key of %d values, the plan groups by %d", len(vals), len(t.store.keys))
		}
		s := int32(global / t.div)
		if t.used[s] {
			return fmt.Errorf("snapshot lists slot %d twice", global)
		}
		t.store.reset(s, h)
		t.store.setKeyVals(s, vals)
		t.used[s] = true
		t.residents++
		for j, a := range t.store.aggs {
			if err := a.Decode(d, s); err != nil {
				return fmt.Errorf("restore of %s: %w", t.plan.Aggs[j].Display, err)
			}
		}
	}
	return d.Err()
}
