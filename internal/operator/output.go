package operator

import (
	"fmt"

	"streamop/internal/agg"
	"streamop/internal/gsql"
	"streamop/internal/tuple"
)

// outBatch is a step's output batch, the Operator's and the Table's: the
// rows it outputs, as columns, on their way to its sink. A group leaves in
// two halves. Its computed SELECT items are evaluated as it passes
// (compute), under the context its step holds for it, so a stateful one
// sees the state HAVING left for it. Its bare references wait in pass to
// be gathered as columns over the passed groups' slots (gather:
// Column.Gather over a key, agg.Gather over an aggregate), so they must be
// gathered before a slot is claimed again. The batch leaves when it holds
// tuple.DefaultBatchRows rows or at the step's next drain: it is empty
// whenever the step returns, so it is no part of a snapshot.
type outBatch struct {
	plan  *gsql.Plan
	store *groupStore
	sink  ColumnSink
	cols  []*tuple.Column
	row   tuple.Tuple // scratch a row's SELECT items evaluate into
	// computed lists the SELECT items that are not bare references, pass
	// the groups passed whose references are not yet gathered.
	computed []int
	pass     []int32
	n        int64 // the rows handed to the sink
}

func newOutBatch(p *gsql.Plan, st *groupStore) outBatch {
	ob := outBatch{
		plan:  p,
		store: st,
		cols:  make([]*tuple.Column, len(p.SelectExprs)),
		row:   make(tuple.Tuple, len(p.SelectExprs)),
	}
	for i := range ob.cols {
		ob.cols[i] = new(tuple.Column)
	}
	for j := range p.SelectExprs {
		// A selection's items are all computed: it has no group to read.
		if p.IsSelection || p.SelectRefs[j] == (gsql.SelectRef{GroupVar: -1, Agg: -1}) {
			ob.computed = append(ob.computed, j)
		}
	}
	return ob
}

// compute evaluates the computed SELECT items of the group ctx reads into
// the batch's next row. An error names the item, and leaves the row out.
func (ob *outBatch) compute(ctx *gsql.Ctx) error {
	for _, j := range ob.computed {
		v, err := ob.plan.SelectExprs[j](ctx)
		if err != nil {
			return fmt.Errorf("SELECT %s: %w", ob.plan.SelectNames[j], err)
		}
		ob.row[j] = v
	}
	for _, j := range ob.computed {
		ob.cols[j].AppendValue(ob.row[j])
	}
	return nil
}

// queue completes the row compute began with group g's references, at the
// next gather, and gathers a full batch.
func (ob *outBatch) queue(g int32) error {
	ob.pass = append(ob.pass, g)
	if ob.rows() == tuple.DefaultBatchRows {
		return ob.gather(nil)
	}
	return nil
}

// rows returns how many rows the batch holds, counting the groups in pass,
// whose computed items are in and references are not.
func (ob *outBatch) rows() int {
	n := ob.cols[0].Len()
	if len(ob.computed) == 0 || ob.computed[0] != 0 {
		n += len(ob.pass)
	}
	return n
}

// gather completes the rows of the groups pass holds, in order: each bare
// SELECT reference is gathered as a column over their slots. It empties
// pass and hands a full batch to the sink, returning the sink's error or,
// failing that, err (see drain).
func (ob *outBatch) gather(err error) error {
	if len(ob.pass) == 0 {
		return err
	}
	for j, ref := range ob.plan.SelectRefs {
		switch {
		case ref.GroupVar >= 0:
			ob.cols[j].Gather(&ob.store.keys[ref.GroupVar], ob.pass)
		case ref.Agg >= 0:
			agg.Gather(ob.cols[j], ob.store.aggs[ref.Agg], ob.pass)
		}
	}
	ob.pass = ob.pass[:0]
	if ob.cols[0].Len() < tuple.DefaultBatchRows {
		return err
	}
	return ob.drain(err)
}

// send hands one run of output rows to the sink and counts them.
func (ob *outBatch) send(cols []*tuple.Column) error {
	ob.n += int64(cols[0].Len())
	if ob.sink == nil {
		return nil
	}
	return ob.sink(cols)
}

// drain hands the rows in the batch to the sink and empties it. It returns
// the sink's error, or failing that err: what was output before an error
// goes out before the error is returned.
func (ob *outBatch) drain(err error) error {
	if ob.cols[0].Len() > 0 {
		if sinkErr := ob.send(ob.cols); sinkErr != nil {
			err = sinkErr
		}
		for _, c := range ob.cols {
			c.Reset()
		}
	}
	return err
}
