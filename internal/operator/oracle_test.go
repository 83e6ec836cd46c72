package operator_test

import (
	"fmt"
	"slices"

	"streamop/internal/agg"
	"streamop/internal/agg/aggref"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// The oracle is a deliberately slow interpreter of a compiled plan's
// closures: the reference the walk's equivalence tests hold ProcessBatch
// and Process to. It follows §5–6.4 tuple by tuple with nothing but Go
// slices, kept in insertion order and searched with value.Equal — no store,
// group table, tuple.Batch, kernel, tracer or profiler — so that it shares
// no execution code with the operator beyond the plan itself: its
// built-in aggregates are package aggref's row forms, not the columns the
// operator keeps. ESTIMATE plans are out of its scope; their own tests
// cover them.

type oracleGroup struct {
	vals     []value.Value
	aggs     oracleAggs
	contribs []value.Value // per superaggregate, for OnGroupRemove
}

// oracleAggs are a group's aggregates, read by index as gsql.Ctx.Aggs.
type oracleAggs []interface {
	Update(value.Value)
	Value() value.Value
}

func (a oracleAggs) Agg(i int) value.Value { return a[i].Value() }

// udafAgg is a user-defined aggregate's instance, as the plan boxes it in
// a column: slot 0 of a column of its own.
type udafAgg struct{ c agg.Column }

func (u udafAgg) Update(v value.Value) { u.c.Update(0, v) }
func (u udafAgg) Value() value.Value   { return u.c.Value(0) }

// newOracleAggs makes a new group's aggregates: the reference form of a
// built-in, a user-defined aggregate's own instance.
func newOracleAggs(p *gsql.Plan) oracleAggs {
	aggs := make(oracleAggs, len(p.Aggs))
	for i, def := range p.Aggs {
		if a, ok := aggref.New(def.Name); ok {
			aggs[i] = a
			continue
		}
		c := def.New()
		c.Reset(0)
		aggs[i] = udafAgg{c}
	}
	return aggs
}

type oracleSupergroup struct {
	key    []value.Value
	states []any
	supers []agg.Super
	groups []*oracleGroup
}

type oracle struct {
	plan  *gsql.Plan
	stats operator.Stats
	rows  []tuple.Tuple

	open   bool
	window []value.Value       // the open window's ordered group-by values
	sgs    []*oracleSupergroup // the open window's supergroups
	old    []*oracleSupergroup // the previous window's, for the Init hand-off

	selStates []any // a selection plan's one state vector
}

// oracleResult is an oracle run's output rows, Stats, and error with the
// input position it surfaced at (the input's length for the final flush's).
type oracleResult struct {
	rows  []tuple.Tuple
	stats operator.Stats
	err   error
	at    int
}

// runOracle offers rows to a fresh oracle of plan until one errs, then
// flushes if flush and none did. The plan must be the oracle's own, as
// closures keep scratch and function states draw from their registry.
func runOracle(plan *gsql.Plan, rows []tuple.Tuple, flush bool) oracleResult {
	o := &oracle{plan: plan}
	if plan.IsSelection {
		for _, sd := range plan.States {
			o.selStates = append(o.selStates, sd.Type.Init(nil))
		}
	}
	for i, t := range rows {
		if err := o.offer(t); err != nil {
			return oracleResult{o.rows, o.stats, err, i}
		}
	}
	var err error
	if flush && o.open {
		err = o.flush()
	}
	return oracleResult{o.rows, o.stats, err, len(rows)}
}

func (o *oracle) offer(t tuple.Tuple) error {
	p := o.plan
	o.stats.TuplesIn++
	if p.IsSelection { // WHERE's error is returned as it is
		ctx := &gsql.Ctx{Tuple: t, States: o.selStates}
		if pass, err := holds(p.Where, ctx, ""); err != nil || !pass {
			return err
		}
		o.stats.TuplesAccepted++
		return o.emit(ctx)
	}

	// GROUP BY, then the window: a change in any ordered value closes it.
	ctx := &gsql.Ctx{Tuple: t}
	gb := make([]value.Value, len(p.GroupBy))
	for i, f := range p.GroupBy {
		v, err := f(ctx)
		if err != nil {
			return fmt.Errorf("operator: group-by %s: %w", p.GroupNames[i], err)
		}
		gb[i] = v
	}
	ctx.GroupVals = gb
	ordered := pick(gb, p.OrderedIdx)
	if o.open && !slices.EqualFunc(o.window, ordered, value.Equal) {
		if err := o.flush(); err != nil {
			return err
		}
	}
	if !o.open {
		o.open, o.window = true, ordered
	}

	// The supergroup, before WHERE: a rejected tuple still creates it.
	sg := o.supergroup(pick(gb, p.SupergroupIdx))
	ctx.States, ctx.Supers = sg.states, sg.supers
	if pass, err := holds(p.Where, ctx, "WHERE"); err != nil || !pass {
		return err
	}
	o.stats.TuplesAccepted++

	args := make([]value.Value, len(p.Supers))
	for i, def := range p.Supers {
		var err error
		if args[i], err = argument(def.Arg, ctx, def.Display); err != nil {
			return err
		}
		sg.supers[i].OnTuple(args[i])
	}
	var g *oracleGroup
	if i := slices.IndexFunc(sg.groups, func(c *oracleGroup) bool { return slices.EqualFunc(c.vals, gb, value.Equal) }); i >= 0 {
		g = sg.groups[i]
	} else {
		g = &oracleGroup{vals: gb, aggs: newOracleAggs(p), contribs: make([]value.Value, len(p.Supers))}
		sg.groups = append(sg.groups, g)
		o.stats.GroupsCreated++
		for i, s := range sg.supers {
			s.OnGroupAdd(args[i])
		}
	}
	for i, def := range p.Aggs {
		v, err := argument(def.Arg, ctx, def.Display)
		if err != nil {
			return err
		}
		g.aggs[i].Update(v)
	}
	for i, def := range p.Supers {
		a := args[i]
		switch {
		case def.Spec.Contribution == agg.ContribSum && !a.IsNull():
			sum := a.AsFloat()
			if !g.contribs[i].IsNull() {
				sum = g.contribs[i].AsFloat() + sum
			}
			g.contribs[i] = value.NewFloat(sum)
		case def.Spec.Contribution == agg.ContribFirst && g.contribs[i].IsNull():
			g.contribs[i] = a
		}
	}

	ctx.Aggs = g.aggs
	if p.CleaningWhen == nil {
		return nil
	}
	if fire, err := holds(p.CleaningWhen, ctx, "CLEANING WHEN"); err != nil || !fire {
		return err
	}
	return o.clean(sg)
}

// supergroup finds the open window's supergroup keyed key, or creates it
// with its states initialized from the previous window's of the same key.
func (o *oracle) supergroup(key []value.Value) *oracleSupergroup {
	keyed := func(sg *oracleSupergroup) bool { return slices.EqualFunc(sg.key, key, value.Equal) }
	if i := slices.IndexFunc(o.sgs, keyed); i >= 0 {
		return o.sgs[i]
	}
	prev := slices.IndexFunc(o.old, keyed)
	sg := &oracleSupergroup{key: key}
	for i, sd := range o.plan.States {
		var st any
		if prev >= 0 {
			st = o.old[prev].states[i]
		}
		sg.states = append(sg.states, sd.Type.Init(st))
	}
	for _, def := range o.plan.Supers {
		s, err := def.Spec.New(def.Consts)
		if err != nil {
			panic(err) // the analyzer validated the constants
		}
		sg.supers = append(sg.supers, s)
	}
	o.sgs = append(o.sgs, sg)
	return sg
}

// clean is one cleaning phase: CLEANING BY over sg's groups, evicting
// those it rejects and removing their contributions.
func (o *oracle) clean(sg *oracleSupergroup) error {
	o.stats.Cleanings++
	if o.plan.CleaningBy == nil {
		return nil
	}
	var kept []*oracleGroup
	for _, g := range sg.groups {
		keep, err := holds(o.plan.CleaningBy, &gsql.Ctx{GroupVals: g.vals, Aggs: g.aggs, States: sg.states, Supers: sg.supers}, "CLEANING BY")
		if err != nil {
			return err
		}
		if keep {
			kept = append(kept, g)
			continue
		}
		for i, s := range sg.supers {
			s.OnGroupRemove(g.contribs[i])
		}
		o.stats.GroupsEvicted++
	}
	sg.groups = kept
	return nil
}

// flush closes the window: WindowFinal on every state, then HAVING and
// SELECT over every group, supergroups and groups in insertion order.
func (o *oracle) flush() error {
	o.stats.Windows++
	for _, sg := range o.sgs {
		for i, sd := range o.plan.States {
			if sd.Type.WindowFinal != nil {
				sd.Type.WindowFinal(sg.states[i])
			}
		}
	}
	for _, sg := range o.sgs {
		for _, g := range sg.groups {
			ctx := &gsql.Ctx{GroupVals: g.vals, Aggs: g.aggs, States: sg.states, Supers: sg.supers}
			pass, err := holds(o.plan.Having, ctx, "HAVING")
			if err == nil && pass {
				err = o.emit(ctx)
			}
			if err != nil {
				return err
			}
		}
	}
	o.old, o.sgs, o.open = o.sgs, nil, false
	return nil
}

func (o *oracle) emit(ctx *gsql.Ctx) error {
	row := make(tuple.Tuple, len(o.plan.SelectExprs))
	for i, sel := range o.plan.SelectExprs {
		v, err := sel(ctx)
		if err != nil {
			return fmt.Errorf("operator: SELECT %s: %w", o.plan.SelectNames[i], err)
		}
		row[i] = v
	}
	o.rows = append(o.rows, row)
	o.stats.TuplesOut++
	return nil
}

// holds evaluates the predicate f of clause under ctx; an absent one
// holds. An error names the clause, if one is given.
func holds(f gsql.Compiled, ctx *gsql.Ctx, clause string) (bool, error) {
	if f == nil {
		return true, nil
	}
	v, err := f(ctx)
	if err != nil && clause != "" {
		err = fmt.Errorf("operator: %s: %w", clause, err)
	}
	return err == nil && v.Truth(), err
}

// argument evaluates an aggregate's argument; (*) has none and is NULL.
func argument(f gsql.Compiled, ctx *gsql.Ctx, display string) (value.Value, error) {
	if f == nil {
		return value.Value{}, nil
	}
	v, err := f(ctx)
	if err != nil {
		err = fmt.Errorf("operator: %s argument: %w", display, err)
	}
	return v, err
}

func pick(vals []value.Value, idx []int) []value.Value {
	out := make([]value.Value, len(idx))
	for i, j := range idx {
		out[i] = vals[j]
	}
	return out
}
