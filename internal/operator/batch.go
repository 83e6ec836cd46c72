package operator

import (
	"fmt"

	"streamop/internal/agg"
	"streamop/internal/gsql"
	"streamop/internal/profile"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// vecState is the operator's lazily built vectorized execution state: the
// recompiled plan (nil when the plan does not vectorize) plus per-batch
// column and mask scratch, reused across batches.
type vecState struct {
	vp  *gsql.VecPlan
	env *gsql.VecEnv

	gb        []*tuple.Column // evaluated group-by columns
	aggCols   []*tuple.Column // evaluated aggregate argument columns
	superCols []*tuple.Column // evaluated superaggregate argument columns
	mask      tuple.Bitmap    // stateless WHERE verdicts
	rowT      tuple.Tuple     // row materialization scratch

	// Ordered-window fast path: raw payload views of the ordered group-by
	// columns plus the open window's payload words. Valid (ordFast) when
	// every ordered column is kind-uniform Bool/Int/Uint and matches the
	// open window's kind, where value equality is exactly raw-word
	// equality — Float (±0.0) and mixed-kind columns keep the per-row
	// EqualValue check.
	ordFast bool
	ordBits [][]uint64
	winBits []uint64

	// curSG caches the open window's supergroup for single-supergroup
	// plans (ALL); nil whenever no window is open or the cache is cold.
	curSG *supergroup

	// Selection plans: the positions of the rows that passed WHERE and the
	// SELECT columns evaluated over them.
	selCols []*tuple.Column
	sel     []int32
}

func (o *Operator) initVec() *vecState {
	v := &vecState{}
	if vp, ok := gsql.Vectorize(o.plan); ok {
		v.vp = vp
		v.env = &gsql.VecEnv{}
		v.gb = make([]*tuple.Column, len(vp.GroupBy))
		v.aggCols = make([]*tuple.Column, len(o.plan.Aggs))
		v.superCols = make([]*tuple.Column, len(o.plan.Supers))
		v.ordBits = make([][]uint64, len(o.plan.OrderedIdx))
		v.winBits = make([]uint64, len(o.plan.OrderedIdx))
		v.selCols = make([]*tuple.Column, len(vp.Select))
		v.sel = make([]int32, 0, tuple.DefaultBatchRows)
	}
	o.vec = v
	return v
}

// ProcessBatch offers a batch of input tuples. It is row-for-row
// equivalent to calling Process on each materialized row — the same
// emitted rows in the same order, the same stats, the same errors at the
// same positions, bit-identical checkpoint state — but runs a vectorized
// columnar path when the plan vectorizes and no trace is current: the
// stateless clauses (GROUP BY, stateless WHERE, stateless aggregate and
// superaggregate arguments) evaluate as column kernels over the whole batch
// up front, and a single walk then applies the per-row state mutations in
// row order. An attached profile reads the clock between those phases and
// selects nothing.
//
// Exactness is preserved by construction:
//
//   - The up-front kernel pass is mutation-free, so if ANY stateless
//     evaluation errors the whole batch re-runs through the scalar path,
//     which reproduces the error at the correct row after exactly the
//     preceding rows' mutations — including honoring scalar
//     short-circuit: errors the eager kernels surface but AND/OR
//     evaluation would have skipped are skipped again by the re-run.
//   - Stateful functions are never evaluated eagerly. A semi-stateful
//     WHERE or CLEANING WHEN pre-evaluates its stateless arguments as
//     columns, and the walk makes the mutating call once per row, in row
//     order, against the row's supergroup state.
//   - Window boundaries are detected per row against the ordered
//     group-by columns, so a batch straddling windows flushes exactly
//     where the scalar path would.
//
// A selection plan follows the same rules with no walk but WHERE's: see
// selectBatch.
func (o *Operator) ProcessBatch(b *tuple.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	v := o.vec
	if v == nil {
		v = o.initVec()
	}
	// A tracer forces the row path only while a trace is actually current
	// (the engine sets the current context around the one-row batch of a
	// traced tuple and around nothing else). A merely *attached* tracer is
	// free here: every per-tuple record site keys off the current set,
	// which is empty for all rows of a columnar batch exactly as it is for
	// untraced tuples in the scalar walk, and eviction / emission tracing
	// keys off each group's carried traces in the shared flush path.
	if v.vp == nil || o.tr.Current() != nil ||
		b.Schema().NumFields() != o.plan.Schema.NumFields() {
		return o.processBatchRows(b)
	}
	if o.plan.IsSelection {
		return o.selectBatch(b, v)
	}
	vp := v.vp
	env := v.env
	np, rows := o.prof, int64(n)
	pt := np.Start()

	// Stateless evaluation over the whole batch. Nothing below mutates
	// operator state, so any error can still defer to the scalar path.
	env.Reset(b)
	for i, e := range vp.GroupBy {
		col, err := e.EvalCol(env)
		if err != nil {
			return o.processBatchRows(b)
		}
		v.gb[i] = col
	}
	env.SetGroupCols(v.gb)

	// Arm the ordered-window fast path for this batch: when every ordered
	// group-by column is kind-uniform with raw-word equality (and agrees
	// in kind with the already-open window, if any), the per-row boundary
	// check reduces to comparing payload words.
	v.ordFast = len(o.plan.OrderedIdx) > 0
	for i, idx := range o.plan.OrderedIdx {
		k, ok := v.gb[idx].Uniform()
		if !ok || !tuple.RawEqKind(k) || (o.windowOpen && o.windowVals[i].Kind() != k) {
			v.ordFast = false
			break
		}
		v.ordBits[i] = v.gb[idx].Bits()
	}
	if v.ordFast && o.windowOpen {
		for i, wv := range o.windowVals {
			v.winBits[i] = wv.Bits()
		}
	}
	pt = np.Charge(profile.StageKernelGroupBy, pt, rows, rows)

	useMask := false
	if vp.Where != nil {
		m, err := vp.Where.EvalTruth(env, v.mask)
		v.mask = m
		if err != nil {
			return o.processBatchRows(b)
		}
		useMask = true
	}
	if vp.WhereCall != nil {
		if err := vp.WhereCall.EvalArgs(env); err != nil {
			return o.processBatchRows(b)
		}
	}
	if vp.Where != nil || vp.WhereCall != nil {
		pt = np.Charge(profile.StageKernelWhere, pt, rows, rows)
	}
	for i, e := range vp.AggArgs {
		v.aggCols[i] = nil
		if e != nil {
			col, err := e.EvalCol(env)
			if err != nil {
				return o.processBatchRows(b)
			}
			v.aggCols[i] = col
		}
	}
	for i, e := range vp.SuperArgs {
		v.superCols[i] = nil
		if e != nil {
			col, err := e.EvalCol(env)
			if err != nil {
				return o.processBatchRows(b)
			}
			v.superCols[i] = col
		}
	}
	if vp.CleanWhenCall != nil {
		if err := vp.CleanWhenCall.EvalArgs(env); err != nil {
			return o.processBatchRows(b)
		}
	}
	pt = np.Charge(profile.StageKernelArgs, pt, rows, rows)

	// Mutation walk, in row order. (An error ends the node's run, and
	// leaves the batch's walk uncharged.)
	nested, accepted := o.nestedNS, o.stats.TuplesAccepted
	if !o.windowOpen {
		v.curSG = nil
	}
	allSG := len(o.plan.SupergroupIdx) == 0
	for row := 0; row < n; row++ {
		o.stats.TuplesIn++

		// Window boundary against the ordered group-by columns.
		if o.windowOpen {
			changed := false
			if v.ordFast {
				for i := range v.ordBits {
					if v.ordBits[i][row] != v.winBits[i] {
						changed = true
						break
					}
				}
			} else {
				changed = o.orderedChangedAt(row)
			}
			if changed {
				if err := o.flushWindow(); err != nil {
					return err
				}
				v.curSG = nil
			}
		}
		if !o.windowOpen {
			o.windowOpen = true
			o.windowVals = o.windowVals[:0]
			for _, idx := range o.plan.OrderedIdx {
				o.windowVals = append(o.windowVals, v.gb[idx].Value(row))
			}
			if v.ordFast {
				for i, wv := range o.windowVals {
					v.winBits[i] = wv.Bits()
				}
			}
			o.stampWindow()
		}

		// Supergroup lookup/creation — before WHERE, as in the scalar
		// path (rejected tuples still establish their supergroup).
		sg := v.curSG
		if sg == nil {
			o.sgVals = o.sgVals[:0]
			for _, idx := range o.plan.SupergroupIdx {
				o.sgVals = append(o.sgVals, v.gb[idx].Value(row))
			}
			sg = o.supergroupFor(o.sgVals)
			if allSG {
				v.curSG = sg
			}
		}

		// WHERE verdict: precomputed bitmap for the stateless kernel, an
		// in-order mutating call for the semi-stateful form.
		if useMask {
			if !v.mask.Get(row) {
				continue
			}
		} else if vp.WhereCall != nil {
			wv, err := vp.WhereCall.CallRow(sg.states, sg.supers, row)
			if err != nil {
				return fmt.Errorf("operator: WHERE: %w", err)
			}
			if !wv.Truth() {
				continue
			}
		}
		o.stats.TuplesAccepted++

		// Scalar closures that survived vectorization see the same row
		// context the scalar path would have built.
		o.ctx = gsql.Ctx{States: sg.states, Supers: sg.supers}
		if vp.NeedRowCtx {
			v.rowT = b.Row(row, v.rowT)
			o.ctx.Tuple = v.rowT
			for i := range v.gb {
				o.gbVals[i] = v.gb[i].Value(row)
			}
			o.ctx.GroupVals = o.gbVals
		}

		// Superaggregate per-tuple updates.
		for i := range o.plan.Supers {
			def := &o.plan.Supers[i]
			var av value.Value
			if def.Arg != nil {
				if col := v.superCols[i]; col != nil {
					av = col.Value(row)
				} else {
					var err error
					if av, err = def.Arg(&o.ctx); err != nil {
						return fmt.Errorf("operator: %s argument: %w", def.Display, err)
					}
				}
			}
			o.argVals[i] = av
			sg.supers[i].OnTuple(av)
		}

		// Group lookup straight off the columns; key values materialize
		// only on a miss (group creation).
		h := tuple.HashRow(v.gb, row)
		g := o.groups.lookupCols(h, v.gb, row)
		if g == nil {
			if !vp.NeedRowCtx {
				for i := range v.gb {
					o.gbVals[i] = v.gb[i].Value(row)
				}
			}
			g = o.createGroup(sg, h)
			for i := range sg.supers {
				sg.supers[i].OnGroupAdd(o.argVals[i])
			}
		}
		for i := range o.plan.Aggs {
			def := &o.plan.Aggs[i]
			var av value.Value
			if def.Arg != nil {
				if col := v.aggCols[i]; col != nil {
					av = col.Value(row)
				} else {
					var err error
					if av, err = def.Arg(&o.ctx); err != nil {
						return fmt.Errorf("operator: %s argument: %w", def.Display, err)
					}
				}
			}
			g.aggs[i].Update(av)
		}
		for i := range o.plan.Supers {
			switch o.plan.Supers[i].Spec.Contribution {
			case agg.ContribSum:
				g.contribs[i] = addContrib(g.contribs[i], o.argVals[i])
			case agg.ContribFirst:
				if g.contribs[i].IsNull() {
					g.contribs[i] = o.argVals[i]
				}
			}
		}
		o.ctx.Aggs = g.aggs

		// CLEANING WHEN on the supergroup; CLEANING BY over its groups.
		if o.plan.CleaningWhen != nil {
			var cv value.Value
			var err error
			if vp.CleanWhenCall != nil {
				cv, err = vp.CleanWhenCall.CallRow(sg.states, sg.supers, row)
			} else {
				cv, err = o.plan.CleaningWhen(&o.ctx)
			}
			if err != nil {
				return fmt.Errorf("operator: CLEANING WHEN: %w", err)
			}
			if cv.Truth() {
				if err := o.cleanSupergroup(sg); err != nil {
					return err
				}
			}
		}
	}
	np.Charge(profile.StageWalk, pt+o.nestedNS-nested, rows, o.stats.TuplesAccepted-accepted)
	return nil
}

// selectBatch is ProcessBatch for a selection plan: WHERE first, then the
// SELECT list over the rows it kept, so that a selective WHERE pays for
// SELECT per kept row as the scalar path does. A stateless WHERE is a
// kernel mask; a semi-stateful one makes its mutating call once per row in
// row order, and if the call errors at row k the rows before k that passed
// are still emitted and the error returned, as Process would have done.
// The SELECT kernels then run with the environment restricted to the kept
// rows. A kernel error before anything has mutated — WHERE's, the call's
// arguments', SELECT's under a stateless WHERE — re-runs the batch through
// the scalar path; a SELECT error after the semi-stateful calls were made
// is settled by selectRows. The selected rows go to the sink as the columns
// the kernels left them in, past the output batch (which is empty here).
// An error from the consumer aborts the batch with every row of it already
// counted in Stats. The profile's stages follow the same order: WHERE's
// kernel, the semi-stateful calls as the walk, SELECT's kernels as the
// argument kernels, the hand-off to the consumer as transfer.
func (o *Operator) selectBatch(b *tuple.Batch, v *vecState) error {
	vp, env, n := v.vp, v.env, b.Len()
	np, rows := o.prof, int64(n)
	pt := np.Start()
	env.Reset(b)
	in, out := n, n
	var whereErr error
	switch {
	case vp.Where != nil:
		m, err := vp.Where.EvalTruth(env, v.mask)
		v.mask = m
		if err != nil {
			return o.processBatchRows(b)
		}
		v.sel = v.mask.AppendIndices(v.sel[:0])
		out = len(v.sel)
		pt = np.Charge(profile.StageKernelWhere, pt, rows, int64(out))
	case vp.WhereCall != nil:
		if err := vp.WhereCall.EvalArgs(env); err != nil {
			return o.processBatchRows(b)
		}
		pt = np.Charge(profile.StageKernelWhere, pt, rows, rows)
		v.sel = v.sel[:0]
		for row := 0; row < n; row++ {
			wv, err := vp.WhereCall.CallRow(o.selStates, nil, row)
			if err != nil {
				whereErr, in = err, row+1
				break
			}
			if wv.Truth() {
				v.sel = append(v.sel, int32(row))
			}
		}
		out = len(v.sel)
		pt = np.Charge(profile.StageWalk, pt, int64(in), int64(out))
	}
	if out > 0 {
		if out < n {
			env.Restrict(v.sel)
		}
		for i, e := range vp.Select {
			col, err := e.EvalCol(env)
			if err != nil {
				if vp.WhereCall != nil {
					return o.selectRows(b, v.sel, in, whereErr)
				}
				return o.processBatchRows(b)
			}
			v.selCols[i] = col
		}
	}
	o.stats.TuplesIn += int64(in)
	o.stats.TuplesAccepted += int64(out)
	o.stats.TuplesOut += int64(out)
	if out == 0 {
		return whereErr
	}
	pt = np.Charge(profile.StageKernelArgs, pt, int64(out), int64(out))

	err := o.send(v.selCols)
	np.Charge(profile.StageTransfer, pt, int64(out), int64(out))
	if err != nil {
		return err
	}
	return whereErr
}

// selectRows settles a batch whose SELECT kernels failed over sel, the
// rows a semi-stateful WHERE kept: the batch cannot re-run, the calls
// having been made, so the scalar SELECT closures evaluate those rows in
// order and stop at the first that errors — the rows, the error and the
// Stats of the scalar path. If none does (the kernels are eager where AND
// and OR short-circuit), the batch ends as WHERE left it: in rows offered,
// whereErr returned. One thing is not the scalar path's: by the time
// SELECT fails at a row, WHERE has been called on the rest of the batch
// too. No caller reads a selection's function state after its operator
// has returned an error.
func (o *Operator) selectRows(b *tuple.Batch, sel []int32, in int, whereErr error) error {
	for _, i := range sel {
		o.vec.rowT = b.Row(int(i), o.vec.rowT)
		o.ctx = gsql.Ctx{Tuple: o.vec.rowT, States: o.selStates}
		o.stats.TuplesAccepted++
		if err := o.output(&o.ctx, nil); err != nil {
			o.stats.TuplesIn += int64(i) + 1
			return o.drain(err)
		}
	}
	o.stats.TuplesIn += int64(in)
	return o.drain(whereErr)
}

// processBatchRows feeds the batch through the row-at-a-time path: plans
// that do not vectorize, a current trace, schema mismatches and
// stateless-evaluation errors all land here. The profile is charged the
// whole re-run as walk, less the sweeps and flushes inside it.
func (o *Operator) processBatchRows(b *tuple.Batch) error {
	v := o.vec
	pt, nested, accepted := o.prof.Start(), o.nestedNS, o.stats.TuplesAccepted
	var err error
	for i := 0; i < b.Len() && err == nil; i++ {
		v.rowT = b.Row(i, v.rowT)
		err = o.Process(v.rowT)
	}
	o.prof.Charge(profile.StageWalk, pt+o.nestedNS-nested, int64(b.Len()), o.stats.TuplesAccepted-accepted)
	return err
}

// orderedChangedAt reports whether any ordered group-by value at row
// differs from the open window's — the columnar twin of orderedChanged.
func (o *Operator) orderedChangedAt(row int) bool {
	for i, idx := range o.plan.OrderedIdx {
		if !o.vec.gb[idx].EqualValue(row, o.windowVals[i]) {
			return true
		}
	}
	return false
}
