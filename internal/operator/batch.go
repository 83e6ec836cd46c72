package operator

import (
	"fmt"
	"slices"

	"streamop/internal/agg"
	"streamop/internal/gsql"
	"streamop/internal/profile"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// vecState is the operator's batch execution state: the plan's kernels
// (vp, the front's: nil when the plan does not vectorize) plus the column,
// mask and row scratch the walk reuses across batches. GROUP BY and the
// open window are the front's (gsql.GroupFront).
type vecState struct {
	vp *gsql.VecPlan

	aggCols   []*tuple.Column // aggregate argument kernels' columns; nil entries use the closure
	superCols []*tuple.Column // superaggregate argument kernels' columns, likewise
	mask      tuple.Bitmap    // stateless WHERE verdicts
	rowT      tuple.Tuple     // row context scratch

	// The arguments argAt checks for a String in this batch (checkArgs).
	aggCheck, superCheck []bool

	// curSG caches the open window's supergroup for single-supergroup
	// plans (ALL); nil whenever no window is open or the cache is cold.
	curSG *supergroup

	// Selection plans: the positions of the rows that passed WHERE and the
	// SELECT columns evaluated over them.
	selCols []*tuple.Column
	sel     []int32
}

func newVecState(p *gsql.Plan, vp *gsql.VecPlan) *vecState {
	v := &vecState{
		vp:         vp,
		aggCols:    make([]*tuple.Column, len(p.Aggs)),
		superCols:  make([]*tuple.Column, len(p.Supers)),
		aggCheck:   make([]bool, len(p.Aggs)),
		superCheck: make([]bool, len(p.Supers)),
	}
	if vp != nil {
		v.selCols = make([]*tuple.Column, len(vp.Select))
		v.sel = make([]int32, 0, tuple.DefaultBatchRows)
	}
	return v
}

// ProcessBatch offers a batch of input tuples. It is the operator's one
// walk: the per-tuple order of the package comment, row by row in row
// order, every per-row clause reading its kernel column when the batch has
// one and else the plan's scalar closure over the row context.
//
// The batch has kernel columns when the plan vectorizes: the stateless
// clauses and the arguments of a semi-stateful WHERE or CLEANING WHEN call
// evaluate over the whole batch up front, for its traced rows as for the
// rest (traces ride the batch by row position; see tracing.go). That pass
// is mutation-free, so a kernel error sends the batch to closure mode,
// which reproduces the error at its row after exactly the preceding rows'
// mutations, and skips again what AND/OR short-circuit skips. In closure
// mode the GROUP BY closures fill the group-by columns row by row before
// the walk; GROUP BY is stateless and comes first, so if row k errs the
// walk runs the rows before k and then returns the error, row k counted
// in. Stateful functions are never evaluated eagerly: a semi-stateful
// WHERE scans in row order (gsql.VecCall.Scan), one call taking the run of
// rows up to the first it passes — with one supergroup and no row context
// up to the next window close, else one row; a traced row inside the run
// is told its verdict after the scan — and window boundaries are detected
// per row, so a batch straddling windows flushes at the right row. An
// attached profile reads the clock between the phases and selects
// nothing. A selection plan walks WHERE only: see selectBatch.
func (o *Operator) ProcessBatch(b *tuple.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	if err := o.checkArity(b.NumCols()); err != nil {
		return err
	}
	v := o.vec
	pt := o.prof.Start()
	if o.plan.IsSelection {
		return o.selectBatch(b, v, pt)
	}
	tts, err := o.walk(b, v, pt)
	if err != nil {
		o.failTraces(tts)
	}
	return err
}

// walk is ProcessBatch's walk over a grouping plan. On an error it returns
// the traces of the row it failed at.
func (o *Operator) walk(b *tuple.Batch, v *vecState, pt int64) ([]*tracing.TupleTrace, error) {
	n, np := b.Len(), o.prof
	rows := int64(n)
	kernels := v.vp != nil
	if kernels {
		pt, kernels = o.evalKernels(b, v, pt)
	}
	f := o.front
	stop, fillErr := n, error(nil)
	var whereMask bool
	var whereCall, cleanCall *gsql.VecCall
	rowCtx := !kernels || v.vp.NeedRowCtx // some per-row clause runs its closure
	if kernels {
		whereMask, whereCall, cleanCall = v.vp.Where != nil, v.vp.WhereCall, v.vp.CleanWhenCall
	} else {
		var item string
		if stop, item, fillErr = f.Closures(b); fillErr != nil {
			fillErr = fmt.Errorf("operator: group-by %s: %w", item, fillErr)
		}
		clear(v.aggCols)
		clear(v.superCols)
	}
	v.checkArgs(o.plan)
	gb := f.Cols()

	// The walk, in row order. (An error ends the node's run, and leaves the
	// batch's walk uncharged.)
	nested, accepted := o.nestedNS, o.stats.TuplesAccepted
	if !f.WindowOpen() {
		v.curSG = nil
	}
	allSG := len(o.plan.SupergroupIdx) == 0
	next := o.tr.NextRow()
	closes := f.NextClose(0, stop) // the row that closes the open window
	var tts []*tracing.TupleTrace
	for row := 0; row < stop; row++ {
		o.stats.TuplesIn++

		// The row's traces, taken before anything the row sets off.
		tts = nil
		if row == next {
			tts, next = o.tr.TakeRow(o.trName)
		}

		// Window boundary against the ordered group-by columns.
		if row == closes {
			if err := o.flushWindow(); err != nil {
				return tts, err
			}
			v.curSG = nil
		}
		if !f.WindowOpen() && f.OpenAt(row) {
			o.stampWindow()
			closes = f.NextClose(row+1, stop)
		}

		// Supergroup lookup/creation, before WHERE: rejected tuples still
		// establish their supergroup.
		sg := v.curSG
		if sg == nil {
			o.sgVals = o.sgVals[:0]
			for _, idx := range o.plan.SupergroupIdx {
				o.sgVals = append(o.sgVals, gb[idx].Value(row))
			}
			sg = o.supergroupFor(o.sgVals)
			if allSG {
				v.curSG = sg
			}
		}
		if rowCtx { // the context of the closures this row runs
			v.rowT = b.Row(row, v.rowT)
			for i, c := range gb {
				o.gbVals[i] = c.Value(row)
			}
			o.ctx = gsql.Ctx{Tuple: v.rowT, GroupVals: o.gbVals, States: sg.states, Supers: sg.supers, Trace: o.sfunHook(tts)}
		}

		// WHERE verdict: the stateless kernel's bitmap, the semi-stateful
		// form's in-order mutating scan, or the closure.
		switch {
		case whereMask:
			pass := v.mask.Get(row)
			o.traceWhere(tts, pass)
			if !pass {
				continue
			}
		case whereCall != nil:
			// A run: with one supergroup and no row context, nothing
			// happens between two rejected rows but the count, up to the
			// window's close. The traced rows it covers are told its
			// verdicts after it returns.
			end := row + 1
			if allSG && !rowCtx {
				end = min(stop, closes)
			}
			pass, err := whereCall.Scan(sg.states, sg.supers, row, end)
			o.stats.TuplesIn += int64(min(pass, end-1) - row)
			if tts != nil || next >= 0 {
				tts, next = o.traceScan(whereCall, tts, next, row, pass, end, err)
			}
			if err != nil {
				return tts, fmt.Errorf("operator: WHERE: %w", err)
			}
			if pass == end {
				row = end - 1
				continue
			}
			row = pass
		case o.plan.Where != nil:
			wv, err := o.plan.Where(&o.ctx)
			if err != nil {
				return tts, fmt.Errorf("operator: WHERE: %w", err)
			}
			pass := wv.Truth()
			o.traceWhere(tts, pass)
			if !pass {
				continue
			}
		}
		o.stats.TuplesAccepted++

		// Superaggregate per-tuple updates.
		for i := range o.plan.Supers {
			def := &o.plan.Supers[i]
			av, err := o.argAt(v.superCols[i], def.Arg, v.superCheck[i], def.Display, row)
			if err != nil {
				return tts, err
			}
			o.argVals[i] = av
			sg.supers[i].OnTuple(av)
		}

		// Group lookup and creation straight off the columns: the key's
		// words move from the batch to the store.
		h := tuple.HashRow(gb, row)
		g := o.groups.lookupCols(&o.store, h, gb, row)
		created := g < 0
		if created {
			g = o.createGroup(sg, h, gb, row)
			for i := range sg.supers {
				sg.supers[i].OnGroupAdd(o.argVals[i])
			}
		}
		if tts != nil {
			key := o.store.key(g)
			for _, tt := range tts {
				tt.GroupLookup(o.trName, key, created)
			}
			if o.traces == nil {
				o.traces = make(map[int32][]*tracing.TupleTrace)
			}
			o.traces[g] = append(o.traces[g], tts...)
		}
		for i := range o.plan.Aggs {
			def := &o.plan.Aggs[i]
			av, err := o.argAt(v.aggCols[i], def.Arg, v.aggCheck[i], def.Display, row)
			if err != nil {
				return tts, err
			}
			o.store.aggs[i].Update(g, av)
		}
		for i := range o.plan.Supers {
			c, av := &o.store.contribs[i], o.argVals[i]
			switch o.plan.Supers[i].Spec.Contribution {
			case agg.ContribSum:
				c.SetValue(int(g), addContrib(c.Value(int(g)), av))
			case agg.ContribFirst:
				if !c.Valid(int(g)) {
					c.SetValue(int(g), av)
				}
			}
		}
		if rowCtx {
			o.slot.At = g
			o.ctx.Aggs = &o.slot
		}

		// CLEANING WHEN on the supergroup, a one-row scan where it has a
		// call; CLEANING BY over its groups.
		if cleanCall != nil || o.plan.CleaningWhen != nil {
			var fire bool
			var err error
			if cleanCall != nil {
				var p int
				p, err = cleanCall.Scan(sg.states, sg.supers, row, row+1)
				fire = p == row && err == nil
				if tts != nil {
					o.traceSfun(tts, cleanCall.Fn, cleanCall.State, value.NewBool(fire), err)
				}
			} else {
				var cv value.Value
				cv, err = o.plan.CleaningWhen(&o.ctx)
				fire = cv.Truth()
			}
			if err != nil {
				return tts, fmt.Errorf("operator: CLEANING WHEN: %w", err)
			}
			if fire {
				if err := o.cleanSupergroup(sg, tts); err != nil {
					return tts, err
				}
			}
		}
	}
	if fillErr != nil {
		o.stats.TuplesIn++
		return nil, fillErr
	}
	np.Charge(profile.StageWalk, pt+o.nestedNS-nested, rows, o.stats.TuplesAccepted-accepted)
	return nil, nil
}

// argAt returns an aggregate's or a superaggregate's argument at row: its
// kernel column's value, or else its closure's. Where check is set, the
// aggregate adds its argument up, and a String errs.
func (o *Operator) argAt(col *tuple.Column, arg gsql.Compiled, check bool, display string, row int) (value.Value, error) {
	var av value.Value
	if col != nil {
		av = col.Value(row)
	} else if arg != nil {
		var err error
		if av, err = arg(&o.ctx); err != nil {
			return av, fmt.Errorf("operator: %s argument: %w", display, err)
		}
	}
	if check && av.Kind() == value.String {
		return av, fmt.Errorf("operator: %s argument: String %q is not a number", display, av.Str())
	}
	return av, nil
}

// checkArgs sets, for the batch about to be walked, which arguments argAt
// checks: those sum, avg, var, stddev and sum$ add up, unless their kernel
// column is of one kind throughout, and not of String. (gsql refuses a
// String it can see in the query; one can still arrive off the schema.)
func (v *vecState) checkArgs(p *gsql.Plan) {
	for i := range p.Aggs {
		v.aggCheck[i] = slices.Contains([]string{"sum", "avg", "var", "stddev"}, p.Aggs[i].Name) && mayBeString(v.aggCols[i], p.Aggs[i].Arg)
	}
	for i := range p.Supers {
		v.superCheck[i] = p.Supers[i].Spec.Contribution == agg.ContribSum && mayBeString(v.superCols[i], p.Supers[i].Arg)
	}
}

// mayBeString reports whether an argument may be a String: its kernel
// column col, or else its closure arg.
func mayBeString(col *tuple.Column, arg gsql.Compiled) bool {
	if col == nil {
		return arg != nil
	}
	k, ok := col.Uniform()
	return !ok || k == value.String
}

// evalKernels evaluates the plan's kernels over the whole batch, charging
// the profile by phase, and reports whether all succeeded. None mutates
// operator state, so a batch whose kernel errs can still run in closure
// mode.
func (o *Operator) evalKernels(b *tuple.Batch, v *vecState, pt int64) (int64, bool) {
	if !o.front.Kernels(b) {
		return pt, false
	}
	vp, env := v.vp, o.front.Env()
	np, rows := o.prof, int64(b.Len())
	pt = np.Charge(profile.StageKernelGroupBy, pt, rows, rows)

	if vp.Where != nil {
		m, err := vp.Where.EvalTruth(env, v.mask)
		v.mask = m
		if err != nil {
			return pt, false
		}
	}
	if vp.WhereCall != nil {
		if err := vp.WhereCall.EvalArgs(env); err != nil {
			return pt, false
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
				return pt, false
			}
			v.aggCols[i] = col
		}
	}
	for i, e := range vp.SuperArgs {
		v.superCols[i] = nil
		if e != nil {
			col, err := e.EvalCol(env)
			if err != nil {
				return pt, false
			}
			v.superCols[i] = col
		}
	}
	if vp.CleanWhenCall != nil {
		if err := vp.CleanWhenCall.EvalArgs(env); err != nil {
			return pt, false
		}
	}
	return np.Charge(profile.StageKernelArgs, pt, rows, rows), true
}

// selectBatch is ProcessBatch for a selection plan: WHERE, then the SELECT
// list over the rows it kept. With kernel columns a stateless WHERE is a
// mask and a semi-stateful one scans in row order, a run up to each row it
// passes (an error at row k ends the batch there, the rows before k
// emitted); the SELECT kernels then run restricted to the kept rows, and
// their columns go to the sink as they are, every row counted in Stats
// before the sink sees them. Without SELECT columns — closure mode, or
// SELECT kernels that erred after WHERE's verdicts — each kept row's
// SELECT list evaluates through output, after WHERE's closure if no kernel
// gave the verdict, and the first error ends the batch at its row. A
// traced row's traces are taken with its verdict, or with its closures; an
// error finishes those it took and did not stage (failRows). The profile
// charges WHERE's kernel, the calls and closures as the walk, SELECT's
// kernels as the argument kernels, the hand-off to the sink as transfer.
func (o *Operator) selectBatch(b *tuple.Batch, v *vecState, pt int64) error {
	n, np, rows := b.Len(), o.prof, int64(b.Len())
	in, verdicts, kernels := n, false, v.vp != nil
	var whereErr error
	next := o.tr.NextRow()
	// kept holds the traces of the traced rows WHERE kept, by position
	// among the kept rows: the position in the run the sink receives.
	var kept []tracing.RowTraces
	if kernels {
		vp, env := v.vp, o.front.Env()
		env.Reset(b)
		switch {
		case vp.Where != nil:
			m, err := vp.Where.EvalTruth(env, v.mask)
			v.mask = m
			if err != nil {
				kernels = false
				break
			}
			v.sel = v.mask.AppendIndices(v.sel[:0])
			verdicts = true
			for k := 0; next >= 0; {
				row := next
				var tts []*tracing.TupleTrace
				tts, next = o.tr.TakeRow(o.trName)
				pass := v.mask.Get(row)
				o.traceWhere(tts, pass)
				if pass {
					for int(v.sel[k]) < row {
						k++
					}
					kept = append(kept, tracing.RowTraces{Row: k, TTs: tts})
				}
			}
			pt = np.Charge(profile.StageKernelWhere, pt, rows, int64(len(v.sel)))
		case vp.WhereCall != nil:
			if err := vp.WhereCall.EvalArgs(env); err != nil {
				kernels = false
				break
			}
			pt = np.Charge(profile.StageKernelWhere, pt, rows, rows)
			v.sel = v.sel[:0]
			for row := 0; row < n; { // a run to the next passing row
				p, err := vp.WhereCall.Scan(o.selStates, nil, row, n)
				var tts []*tracing.TupleTrace
				tts, next = o.traceScan(vp.WhereCall, nil, next, row, p, n, err)
				if err != nil {
					whereErr, in = err, p+1
					o.failTraces(tts)
					break
				}
				if p == n {
					break
				}
				if tts != nil {
					kept = append(kept, tracing.RowTraces{Row: len(v.sel), TTs: tts})
				}
				v.sel = append(v.sel, int32(p))
				row = p + 1
			}
			verdicts = true
			pt = np.Charge(profile.StageWalk, pt, int64(in), int64(len(v.sel)))
		}
	}
	if kernels {
		out := n
		if verdicts {
			out = len(v.sel)
		}
		if out == 0 || o.selectKernels(v, out < n) {
			o.stats.TuplesIn += int64(in)
			o.stats.TuplesAccepted += int64(out)
			o.stats.TuplesOut += int64(out)
			if out == 0 {
				return whereErr
			}
			pt = np.Charge(profile.StageKernelArgs, pt, int64(out), int64(out))
			for _, k := range kept {
				o.tr.Stage(o.trName, o.windowIdx, k.Row, k.TTs)
			}
			for !verdicts && next >= 0 { // no WHERE: every row kept, at its own position
				row := next
				var tts []*tracing.TupleTrace
				tts, next = o.tr.TakeRow(o.trName)
				o.tr.Stage(o.trName, o.windowIdx, row, tts)
			}
			err := o.send(v.selCols)
			np.Charge(profile.StageTransfer, pt, int64(out), int64(out))
			if err != nil {
				return err
			}
			return whereErr
		}
	}

	accepted, last := o.stats.TuplesAccepted, in
	if verdicts {
		last = len(v.sel)
	}
	for i := 0; i < last; i++ {
		row := i
		if verdicts {
			row = int(v.sel[i])
		}
		var tts []*tracing.TupleTrace
		switch {
		case len(kept) > 0 && kept[0].Row == i:
			tts, kept = kept[0].TTs, kept[1:]
		case row == next:
			tts, next = o.tr.TakeRow(o.trName)
		}
		v.rowT = b.Row(row, v.rowT)
		o.ctx = gsql.Ctx{Tuple: v.rowT, States: o.selStates, Trace: o.sfunHook(tts)}
		if !verdicts && o.plan.Where != nil {
			wv, err := o.plan.Where(&o.ctx)
			if err != nil {
				o.stats.TuplesIn += int64(row) + 1
				o.failRows(tts, kept)
				return o.drain(err)
			}
			pass := wv.Truth()
			o.traceWhere(tts, pass)
			if !pass {
				continue
			}
		}
		o.stats.TuplesAccepted++
		if err := o.output(&o.ctx, tts); err != nil {
			o.stats.TuplesIn += int64(row) + 1
			o.failRows(tts, kept)
			return o.drain(err)
		}
	}
	o.stats.TuplesIn += int64(in)
	err := o.drain(whereErr)
	np.Charge(profile.StageWalk, pt, int64(in), o.stats.TuplesAccepted-accepted)
	return err
}

// selectKernels evaluates the SELECT kernels, over the kept rows v.sel if
// restrict, and reports whether all succeeded.
func (o *Operator) selectKernels(v *vecState, restrict bool) bool {
	if restrict {
		o.front.Env().Restrict(v.sel)
	}
	for i, e := range v.vp.Select {
		col, err := e.EvalCol(o.front.Env())
		if err != nil {
			return false
		}
		v.selCols[i] = col
	}
	return true
}
