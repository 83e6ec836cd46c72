package gsql

import (
	"fmt"
	"slices"
	"strings"

	"streamop/internal/agg"
	"streamop/internal/sfun"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// Ctx is the evaluation context the operator runtime supplies to compiled
// expressions. Which fields are populated depends on the clause: per-tuple
// clauses carry Tuple and GroupVals; per-group clauses (HAVING, CLEANING
// BY, SELECT) carry GroupVals and Aggs, the reader of the group's
// aggregates (the operator serves it from its group store's columns,
// agg.Slot); Supers and States belong to the current supergroup.
type Ctx struct {
	Tuple     tuple.Tuple
	GroupVals []value.Value
	Aggs      AggReader
	Supers    []agg.Super
	States    []any
	// Est holds the finalized estimator columns for the window being
	// emitted, five values per ESTIMATE item in plan order (estimate,
	// stderr, CI low, CI high, effective sample size). The operator fills
	// it before evaluating SELECT expressions of an estimating plan.
	Est []value.Value
	// Trace, when non-nil, observes every stateful-function invocation
	// evaluated under this context (function name, its state family, the
	// result, the error if any). The operator sets it only while
	// processing a provenance-traced tuple; the cost when unset is one
	// nil check per stateful call.
	Trace func(fn, state string, v value.Value, err error)
}

// AggReader reads one group's aggregate values by the aggregate's index
// in Plan.Aggs.
type AggReader interface{ Agg(i int) value.Value }

// Compiled is an executable expression.
type Compiled func(ctx *Ctx) (value.Value, error)

// AggDef is one distinct group aggregate referenced by the query.
type AggDef struct {
	// Name is the aggregate name (sum, count, ...).
	Name string
	// Arg evaluates the argument in tuple context; nil for count(*).
	Arg Compiled
	// ArgExpr is the argument's AST (nil for count(*)), kept so Vectorize
	// can recompile it as a column kernel.
	ArgExpr Expr
	// New creates the aggregate's column: its accumulators for the slots
	// of a group store.
	New func() agg.Column
	// Display is the re-parseable form, used for output column naming.
	Display string
}

// SuperDef is one distinct superaggregate referenced by the query.
type SuperDef struct {
	Spec *agg.SuperSpec
	// Arg evaluates the first argument in tuple context; nil for (*).
	Arg Compiled
	// ArgExpr is the first argument's AST (nil for (*)), kept so Vectorize
	// can recompile it as a column kernel.
	ArgExpr Expr
	// Consts are the trailing literal arguments (e.g. k).
	Consts []value.Value
	// Display is the re-parseable form.
	Display string
}

// SelectRef is what a grouping plan's SELECT item reads when it is a bare
// reference: group-by variable GroupVar, or aggregate Agg, the other -1.
// Both are -1 for any other item, whose closure runs per group.
type SelectRef struct{ GroupVar, Agg int }

// StateDef is one stateful-function state the query requires per
// supergroup.
type StateDef struct {
	Type *sfun.StateType
}

// EstimateDef is one `ESTIMATE <expr> WITH ERROR` select item: the
// operator evaluates Weight per emitted group, prices it with the
// sampling state's inclusion probability, and folds it into a per-window
// Horvitz–Thompson accumulator whose result feeds the item's five output
// columns (Name, Name_stderr, Name_ci_lo, Name_ci_hi, Name_ess).
type EstimateDef struct {
	// Weight evaluates the estimated expression in group context.
	Weight Compiled
	// Display is the re-parseable form of the estimated expression.
	Display string
	// Name is the base output column name (alias or Display).
	Name string
}

// Plan is an analyzed, compiled query, ready for the operator runtime.
type Plan struct {
	Query  *Query
	Schema *tuple.Schema

	// IsSelection is true for queries without GROUP BY: pure per-tuple
	// selection (possibly with stateful functions), no grouping state.
	IsSelection bool

	// GroupBy evaluates each group-by item in tuple context.
	GroupBy []Compiled
	// GroupNames holds each item's alias or printed expression.
	GroupNames []string
	// OrderedIdx lists group-by items derived monotonically from ordered
	// stream attributes; a change in any of them closes the window.
	OrderedIdx []int
	// SupergroupIdx lists the group-by items forming the supergroup
	// table key (declared SUPERGROUP variables minus ordered ones).
	// Empty means one supergroup per window (ALL).
	SupergroupIdx []int

	Where        Compiled // nil if absent
	Having       Compiled // nil if absent
	CleaningWhen Compiled // nil if absent
	CleaningBy   Compiled // nil if absent

	SelectExprs []Compiled
	SelectNames []string
	// SelectOrdered marks select items that are monotone in ordered
	// stream attributes, so downstream queries can window on them.
	SelectOrdered []bool
	// SelectRefs aligns with SelectExprs in a grouping plan: what each
	// item reads when it is a bare reference, which the window's flush
	// gathers as a column over the groups it outputs.
	SelectRefs []SelectRef
	// SelectReadsKey is set when a computed SELECT item or an ESTIMATE
	// weight reads a group-by variable: only then does the flush build
	// the group's key values (Ctx.GroupVals) for them.
	SelectReadsKey bool

	Aggs   []AggDef
	Supers []SuperDef
	States []StateDef

	// Estimates lists the plan's ESTIMATE … WITH ERROR items in select
	// order; each expands to five consecutive SelectExprs reading Ctx.Est.
	Estimates []EstimateDef

	// reg is the registry the plan was analyzed against, retained so
	// Clone can recompile the same query for another executor.
	reg *sfun.Registry
}

// Clone re-analyzes the plan's query against its original schema and
// registry, returning an independent compiled plan. Compiled call sites
// reuse argument scratch buffers, so one Plan must not be evaluated by two
// goroutines; sharded parallel execution clones the plan per worker.
func (p *Plan) Clone() (*Plan, error) {
	return Analyze(p.Query, p.Schema, p.reg)
}

// OutputSchema returns the schema of the operator's output stream, named
// name. Field kinds are dynamic (Null); ordered select items are marked
// increasing so high-level queries can window on them.
func (p *Plan) OutputSchema(name string) (*tuple.Schema, error) {
	fields := make([]tuple.Field, len(p.SelectNames))
	for i, n := range p.SelectNames {
		fields[i] = tuple.Field{Name: n}
		if i < len(p.SelectOrdered) && p.SelectOrdered[i] {
			fields[i].Ordering = tuple.Increasing
		}
	}
	return tuple.NewSchema(name, fields...)
}

// exprCtx controls what an expression may reference in a given clause.
type exprCtx struct {
	clause    string
	tuple     bool
	groupVars bool
	aggs      bool
	supers    bool
	sfuns     bool // stateful functions (stateless scalars always allowed)
}

type binder struct {
	plan     *Plan
	reg      *sfun.Registry
	schema   *tuple.Schema
	stateIdx map[string]int
	aggIdx   map[string]int
	superIdx map[string]int
	// keyReads counts the group-by variables read in a per-group clause
	// (one that may read aggregates).
	keyReads int
}

// Analyze binds q against schema and registry and compiles every clause.
func Analyze(q *Query, schema *tuple.Schema, reg *sfun.Registry) (*Plan, error) {
	if schema == nil {
		return nil, fmt.Errorf("gsql: nil schema")
	}
	if reg == nil {
		reg = sfun.NewRegistry()
	}
	if !strings.EqualFold(q.From, schema.Name()) {
		return nil, fmt.Errorf("gsql: query reads from %q but schema is %q", q.From, schema.Name())
	}
	b := &binder{
		plan:     &Plan{Query: q, Schema: schema, reg: reg},
		reg:      reg,
		schema:   schema,
		stateIdx: map[string]int{},
		aggIdx:   map[string]int{},
		superIdx: map[string]int{},
	}
	if len(q.GroupBy) == 0 {
		return b.analyzeSelection(q)
	}
	return b.analyzeSampling(q)
}

// analyzeSelection handles queries without GROUP BY: per-tuple selection.
func (b *binder) analyzeSelection(q *Query) (*Plan, error) {
	p := b.plan
	p.IsSelection = true
	if q.Supergroup != nil || q.Having != nil || q.CleaningWhen != nil || q.CleaningBy != nil {
		return nil, fmt.Errorf("gsql: SUPERGROUP/HAVING/CLEANING clauses require GROUP BY")
	}
	ctx := exprCtx{clause: "WHERE", tuple: true, sfuns: true}
	if q.Where != nil {
		c, err := b.compile(q.Where, ctx)
		if err != nil {
			return nil, err
		}
		p.Where = c
	}
	selCtx := exprCtx{clause: "SELECT", tuple: true, sfuns: true}
	for _, item := range q.Select {
		if item.Estimate {
			return nil, fmt.Errorf("gsql: ESTIMATE ... WITH ERROR requires GROUP BY")
		}
		c, err := b.compile(item.Expr, selCtx)
		if err != nil {
			return nil, err
		}
		p.SelectExprs = append(p.SelectExprs, c)
		name := item.Alias
		if name == "" {
			name = item.Expr.String()
		}
		p.SelectNames = append(p.SelectNames, name)
		p.SelectOrdered = append(p.SelectOrdered, isOrderedExpr(item.Expr, b.schema))
	}
	return p, nil
}

func (b *binder) analyzeSampling(q *Query) (*Plan, error) {
	p := b.plan

	// Group-by items first: aliases become resolvable names.
	gbCtx := exprCtx{clause: "GROUP BY", tuple: true}
	for i, item := range q.GroupBy {
		c, err := b.compile(item.Expr, gbCtx)
		if err != nil {
			return nil, err
		}
		p.GroupBy = append(p.GroupBy, c)
		name := item.Alias
		if name == "" {
			name = item.Expr.String()
		}
		p.GroupNames = append(p.GroupNames, name)
		if isOrderedExpr(item.Expr, b.schema) {
			p.OrderedIdx = append(p.OrderedIdx, i)
		}
	}
	for i, n := range p.GroupNames {
		for j := 0; j < i; j++ {
			if strings.EqualFold(p.GroupNames[j], n) {
				return nil, fmt.Errorf("gsql: duplicate group-by variable %q", n)
			}
		}
	}

	// Supergroup: declared variables must be group-by variables; ordered
	// ones are implicit window delimiters and are excluded from the key.
	if q.Supergroup != nil {
		ordered := map[int]bool{}
		for _, i := range p.OrderedIdx {
			ordered[i] = true
		}
		for _, name := range q.Supergroup {
			idx, ok := b.groupVarIndex(name)
			if !ok {
				return nil, fmt.Errorf("gsql: SUPERGROUP variable %q is not a group-by variable", name)
			}
			if !ordered[idx] {
				p.SupergroupIdx = append(p.SupergroupIdx, idx)
			}
		}
	}

	var err error
	whereCtx := exprCtx{clause: "WHERE", tuple: true, groupVars: true, supers: true, sfuns: true}
	if q.Where != nil {
		if p.Where, err = b.compile(q.Where, whereCtx); err != nil {
			return nil, err
		}
	}
	cwCtx := exprCtx{clause: "CLEANING WHEN", tuple: true, groupVars: true, aggs: true, supers: true, sfuns: true}
	if q.CleaningWhen != nil {
		if p.CleaningWhen, err = b.compile(q.CleaningWhen, cwCtx); err != nil {
			return nil, err
		}
	}
	cbCtx := exprCtx{clause: "CLEANING BY", groupVars: true, aggs: true, supers: true, sfuns: true}
	if q.CleaningBy != nil {
		if p.CleaningBy, err = b.compile(q.CleaningBy, cbCtx); err != nil {
			return nil, err
		}
	}
	havingCtx := exprCtx{clause: "HAVING", groupVars: true, aggs: true, supers: true, sfuns: true}
	if q.Having != nil {
		if p.Having, err = b.compile(q.Having, havingCtx); err != nil {
			return nil, err
		}
	}
	selCtx := exprCtx{clause: "SELECT", groupVars: true, aggs: true, supers: true, sfuns: true}
	for _, item := range q.Select {
		reads := b.keyReads
		c, err := b.compile(item.Expr, selCtx)
		if err != nil {
			return nil, err
		}
		readsKey := b.keyReads > reads
		name := item.Alias
		if name == "" {
			name = item.Expr.String()
		}
		if item.Estimate {
			// One ESTIMATE item expands to five output columns reading the
			// window's finalized estimator slots from Ctx.Est: the HT
			// estimate, its standard error, the 95% CI bounds and the
			// effective sample size. The compiled expression becomes the
			// estimator's weight evaluator, run per emitted group during
			// the window flush.
			p.SelectReadsKey = p.SelectReadsKey || readsKey
			estIdx := len(p.Estimates)
			p.Estimates = append(p.Estimates, EstimateDef{
				Weight:  c,
				Display: item.Expr.String(),
				Name:    name,
			})
			for k, suffix := range []string{"", "_stderr", "_ci_lo", "_ci_hi", "_ess"} {
				slot := estIdx*5 + k
				p.SelectExprs = append(p.SelectExprs, func(ctx *Ctx) (value.Value, error) {
					if slot >= len(ctx.Est) {
						return value.Value{}, fmt.Errorf("gsql: estimator column %d evaluated without estimator context", slot)
					}
					return ctx.Est[slot], nil
				})
				p.SelectNames = append(p.SelectNames, name+suffix)
				p.SelectOrdered = append(p.SelectOrdered, false)
				p.SelectRefs = append(p.SelectRefs, SelectRef{-1, -1})
			}
			continue
		}
		p.SelectExprs = append(p.SelectExprs, c)
		p.SelectNames = append(p.SelectNames, name)
		ref := SelectRef{-1, -1}
		switch e := item.Expr.(type) {
		case *Ident:
			if idx, ok := b.groupVarIndex(e.Name); ok {
				ref.GroupVar = idx
			}
		case *Call:
			if idx, ok := b.aggIdx[strings.ToLower(e.String())]; ok {
				ref.Agg = idx
			}
		}
		p.SelectRefs = append(p.SelectRefs, ref)
		p.SelectReadsKey = p.SelectReadsKey || readsKey && ref == SelectRef{-1, -1}
		p.SelectOrdered = append(p.SelectOrdered, ref.GroupVar >= 0 && slices.Contains(p.OrderedIdx, ref.GroupVar))
	}
	return p, nil
}

// groupVarIndex resolves a name to a group-by item: by alias, or by the
// item being a bare column reference with that name.
func (b *binder) groupVarIndex(name string) (int, bool) {
	return groupVarIndex(b.plan.Query, name)
}

// groupVarIndex is the resolution rule shared by the scalar compiler and
// the vectorizer, which must bind names identically.
func groupVarIndex(q *Query, name string) (int, bool) {
	for i, item := range q.GroupBy {
		if item.Alias != "" && strings.EqualFold(item.Alias, name) {
			return i, true
		}
	}
	for i, item := range q.GroupBy {
		if id, ok := item.Expr.(*Ident); ok && item.Alias == "" && strings.EqualFold(id.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// compile lowers an AST expression to a Compiled closure under ctx rules.
func (b *binder) compile(e Expr, ctx exprCtx) (Compiled, error) {
	switch e := e.(type) {
	case *Lit:
		v := e.Val
		return func(*Ctx) (value.Value, error) { return v, nil }, nil

	case *Star:
		return nil, fmt.Errorf("gsql: '*' is only valid as an aggregate argument (%s clause)", ctx.clause)

	case *Ident:
		return b.compileIdent(e, ctx)

	case *Unary:
		x, err := b.compile(e.X, ctx)
		if err != nil {
			return nil, err
		}
		if e.Op == "NOT" {
			return func(c *Ctx) (value.Value, error) {
				v, err := x(c)
				if err != nil {
					return value.Value{}, err
				}
				return value.NewBool(!v.Truth()), nil
			}, nil
		}
		return func(c *Ctx) (value.Value, error) {
			v, err := x(c)
			if err != nil {
				return value.Value{}, err
			}
			return value.Neg(v)
		}, nil

	case *Binary:
		return b.compileBinary(e, ctx)

	case *Call:
		return b.compileCall(e, ctx)
	}
	return nil, fmt.Errorf("gsql: unsupported expression %T", e)
}

func (b *binder) compileIdent(e *Ident, ctx exprCtx) (Compiled, error) {
	if ctx.groupVars {
		if i, ok := b.groupVarIndex(e.Name); ok {
			if ctx.aggs {
				b.keyReads++
			}
			return func(c *Ctx) (value.Value, error) { return c.GroupVals[i], nil }, nil
		}
	}
	if ctx.tuple {
		if i, ok := b.schema.Lookup(e.Name); ok {
			return func(c *Ctx) (value.Value, error) { return c.Tuple[i], nil }, nil
		}
	}
	return nil, fmt.Errorf("gsql: unknown name %q in %s clause", e.Name, ctx.clause)
}

func (b *binder) compileBinary(e *Binary, ctx exprCtx) (Compiled, error) {
	l, err := b.compile(e.L, ctx)
	if err != nil {
		return nil, err
	}
	r, err := b.compile(e.R, ctx)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "AND":
		return func(c *Ctx) (value.Value, error) {
			lv, err := l(c)
			if err != nil {
				return value.Value{}, err
			}
			if !lv.Truth() {
				return value.NewBool(false), nil
			}
			rv, err := r(c)
			if err != nil {
				return value.Value{}, err
			}
			return value.NewBool(rv.Truth()), nil
		}, nil
	case "OR":
		return func(c *Ctx) (value.Value, error) {
			lv, err := l(c)
			if err != nil {
				return value.Value{}, err
			}
			if lv.Truth() {
				return value.NewBool(true), nil
			}
			rv, err := r(c)
			if err != nil {
				return value.Value{}, err
			}
			return value.NewBool(rv.Truth()), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := e.Op
		return func(c *Ctx) (value.Value, error) {
			lv, err := l(c)
			if err != nil {
				return value.Value{}, err
			}
			rv, err := r(c)
			if err != nil {
				return value.Value{}, err
			}
			cmp := value.Compare(lv, rv)
			var res bool
			switch op {
			case "=":
				res = cmp == 0
			case "<>":
				res = cmp != 0
			case "<":
				res = cmp < 0
			case "<=":
				res = cmp <= 0
			case ">":
				res = cmp > 0
			case ">=":
				res = cmp >= 0
			}
			return value.NewBool(res), nil
		}, nil
	case "+", "-", "*", "/", "%":
		var op value.BinOp
		switch e.Op {
		case "+":
			op = value.OpAdd
		case "-":
			op = value.OpSub
		case "*":
			op = value.OpMul
		case "/":
			op = value.OpDiv
		case "%":
			op = value.OpMod
		}
		return func(c *Ctx) (value.Value, error) {
			lv, err := l(c)
			if err != nil {
				return value.Value{}, err
			}
			rv, err := r(c)
			if err != nil {
				return value.Value{}, err
			}
			return value.Arith(op, lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("gsql: unknown operator %q", e.Op)
}

func (b *binder) compileCall(e *Call, ctx exprCtx) (Compiled, error) {
	name := e.Name
	switch {
	case strings.HasSuffix(name, "$"):
		return b.compileSuper(e, ctx)
	case agg.IsAggregate(name):
		return b.compileAgg(e, ctx)
	default:
		if udaf, ok := b.reg.Agg(name); ok {
			return b.compileUDAF(e, udaf, ctx)
		}
		return b.compileFunc(e, ctx)
	}
}

// compileUDAF lowers a user-defined aggregate call: the first argument is
// the per-tuple update expression, trailing arguments must be literal
// constants passed to the accumulator constructor.
func (b *binder) compileUDAF(e *Call, udaf *sfun.AggFunc, ctx exprCtx) (Compiled, error) {
	if !ctx.aggs {
		return nil, fmt.Errorf("gsql: aggregate %s not allowed in %s clause", e.Name, ctx.clause)
	}
	display := e.String()
	key := strings.ToLower(display)
	if idx, ok := b.aggIdx[key]; ok {
		return aggRef(idx), nil
	}
	if len(e.Args) == 0 {
		return nil, fmt.Errorf("gsql: aggregate %s needs an argument", e.Name)
	}
	if _, isStar := e.Args[0].(*Star); isStar {
		return nil, fmt.Errorf("gsql: aggregate %s does not accept '*'", e.Name)
	}
	arg, err := b.compile(e.Args[0], aggArgCtx(ctx.clause))
	if err != nil {
		return nil, err
	}
	var consts []value.Value
	for _, a := range e.Args[1:] {
		lit, ok := a.(*Lit)
		if !ok {
			return nil, fmt.Errorf("gsql: aggregate %s: argument %s must be a literal constant", e.Name, a)
		}
		consts = append(consts, lit.Val)
	}
	// Validate the constants now so errors surface at analysis time.
	if _, err := udaf.New(consts); err != nil {
		return nil, err
	}
	newFn := udaf.New
	def := AggDef{
		Name:    strings.ToLower(e.Name),
		Arg:     arg,
		ArgExpr: e.Args[0],
		Display: display,
		New: agg.Boxed(func() agg.Agg {
			a, err := newFn(consts)
			if err != nil {
				// Validated above; cannot fail for analyzed plans.
				panic(fmt.Sprintf("gsql: aggregate %s: %v", display, err))
			}
			return a
		}),
	}
	idx := len(b.plan.Aggs)
	b.plan.Aggs = append(b.plan.Aggs, def)
	b.aggIdx[key] = idx
	return aggRef(idx), nil
}

// aggArgCtx is the context for aggregate arguments: they are evaluated
// per tuple when the group updates, and may call stateful functions
// (e.g. first(current_bucket())).
func aggArgCtx(clause string) exprCtx {
	return exprCtx{clause: clause + " aggregate argument", tuple: true, groupVars: true, sfuns: true}
}

func (b *binder) compileAgg(e *Call, ctx exprCtx) (Compiled, error) {
	if !ctx.aggs {
		return nil, fmt.Errorf("gsql: aggregate %s not allowed in %s clause", e.Name, ctx.clause)
	}
	newCol, _ := agg.New(e.Name)
	display := e.String()
	key := strings.ToLower(display)
	if idx, ok := b.aggIdx[key]; ok {
		return aggRef(idx), nil
	}
	def := AggDef{Name: strings.ToLower(e.Name), New: newCol, Display: display}
	switch {
	case len(e.Args) == 1:
		if _, isStar := e.Args[0].(*Star); isStar {
			if def.Name != "count" {
				return nil, fmt.Errorf("gsql: %s(*) is not supported; only count(*)", e.Name)
			}
		} else {
			if err := b.refuseString(e, def.Name, e.Args[0]); err != nil {
				return nil, err
			}
			arg, err := b.compile(e.Args[0], aggArgCtx(ctx.clause))
			if err != nil {
				return nil, err
			}
			def.Arg = arg
			def.ArgExpr = e.Args[0]
		}
	case len(e.Args) == 0 && def.Name == "count":
		// count() treated as count(*).
	default:
		return nil, fmt.Errorf("gsql: aggregate %s takes exactly one argument", e.Name)
	}
	idx := len(b.plan.Aggs)
	b.plan.Aggs = append(b.plan.Aggs, def)
	b.aggIdx[key] = idx
	return aggRef(idx), nil
}

// summed names the aggregates (lower case; a superaggregate with its $)
// that add their argument up, so that a String argument errs.
var summed = map[string]bool{"sum": true, "avg": true, "var": true, "stddev": true, "sum$": true}

// CheckSummed reports whether a walk checks, over the batch at hand, the
// argument of aggregate name (ArgAt): where the aggregate adds it up,
// unless its kernel column col is of one kind throughout, and not String;
// with no column, where it has a closure arg. The analyzer refuses a
// String it can see in the query (refuseString); one can still arrive off
// the schema.
func CheckSummed(name string, col *tuple.Column, arg Compiled) bool {
	if !summed[name] {
		return false
	}
	if col == nil {
		return arg != nil
	}
	k, ok := col.Uniform()
	return !ok || k == value.String
}

// ArgAt returns an aggregate's argument at row, as both grouping walks
// read one: its kernel column's value, or else its closure's over ctx.
// Where check (CheckSummed) is set, a String errs.
func ArgAt(ctx *Ctx, col *tuple.Column, arg Compiled, check bool, display string, row int) (value.Value, error) {
	var av value.Value
	if col != nil {
		av = col.Value(row)
	} else if arg != nil {
		var err error
		if av, err = arg(ctx); err != nil {
			return av, fmt.Errorf("%s argument: %w", display, err)
		}
	}
	if check && av.Kind() == value.String {
		return av, fmt.Errorf("%s argument: String %q is not a number", display, av.Str())
	}
	return av, nil
}

// refuseString refuses a call e to aggregate name (lower case) that adds
// its argument up when the argument arg is statically a String: a string
// literal, or a name that binds — group-by variable first, as compile
// binds it — to a String field of the schema.
func (b *binder) refuseString(e *Call, name string, arg Expr) error {
	if !summed[name] {
		return nil
	}
	str := false
	switch a := arg.(type) {
	case *Lit:
		str = a.Val.Kind() == value.String
	case *Ident:
		if i, ok := b.groupVarIndex(a.Name); ok {
			// A group-by item binds in the stream's scope alone.
			if a, ok = b.plan.Query.GroupBy[i].Expr.(*Ident); !ok {
				return nil
			}
		}
		i, ok := b.plan.Schema.Lookup(a.Name)
		str = ok && b.plan.Schema.Field(i).Kind == value.String
	}
	if str {
		return fmt.Errorf("gsql: %s: %s needs a number, and its argument %s is a String", e, e.Name, arg)
	}
	return nil
}

func aggRef(idx int) Compiled {
	return func(c *Ctx) (value.Value, error) {
		if c.Aggs == nil {
			return value.Value{}, fmt.Errorf("gsql: aggregate context missing (index %d)", idx)
		}
		return c.Aggs.Agg(idx), nil
	}
}

func (b *binder) compileSuper(e *Call, ctx exprCtx) (Compiled, error) {
	if !ctx.supers {
		return nil, fmt.Errorf("gsql: superaggregate %s not allowed in %s clause", e.Name, ctx.clause)
	}
	spec, ok := agg.SuperByName(e.Name)
	if !ok {
		return nil, fmt.Errorf("gsql: unknown superaggregate %q", e.Name)
	}
	display := e.String()
	key := strings.ToLower(display)
	if idx, ok := b.superIdx[key]; ok {
		return superRef(idx), nil
	}
	def := SuperDef{Spec: spec, Display: display}
	// The paper writes both count_distinct$(*) and count_distinct$(): an
	// empty argument list means no per-tuple argument, like *.
	var first Expr = &Star{}
	var rest []Expr
	if len(e.Args) > 0 {
		first = e.Args[0]
		rest = e.Args[1:]
	}
	if _, isStar := first.(*Star); !isStar {
		if err := b.refuseString(e, spec.Name, first); err != nil {
			return nil, err
		}
		arg, err := b.compile(first, aggArgCtx(ctx.clause))
		if err != nil {
			return nil, err
		}
		def.Arg = arg
		def.ArgExpr = first
	}
	for _, a := range rest {
		lit, ok := a.(*Lit)
		if !ok {
			return nil, fmt.Errorf("gsql: superaggregate %s: argument %s must be a literal constant", e.Name, a)
		}
		def.Consts = append(def.Consts, lit.Val)
	}
	// Validate the constants now so errors surface at analysis time.
	if _, err := spec.New(def.Consts); err != nil {
		return nil, err
	}
	idx := len(b.plan.Supers)
	b.plan.Supers = append(b.plan.Supers, def)
	b.superIdx[key] = idx
	return superRef(idx), nil
}

func superRef(idx int) Compiled {
	return func(c *Ctx) (value.Value, error) {
		if idx >= len(c.Supers) {
			return value.Value{}, fmt.Errorf("gsql: superaggregate context missing (index %d)", idx)
		}
		return c.Supers[idx].Value(), nil
	}
}

func (b *binder) compileFunc(e *Call, ctx exprCtx) (Compiled, error) {
	fn, ok := b.reg.Func(e.Name)
	if !ok {
		return nil, fmt.Errorf("gsql: unknown function %q", e.Name)
	}
	args := make([]Compiled, len(e.Args))
	for i, a := range e.Args {
		if _, isStar := a.(*Star); isStar {
			return nil, fmt.Errorf("gsql: '*' is not a valid argument to %s", e.Name)
		}
		c, err := b.compile(a, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	if fn.State == "" {
		// Stateless scalar: allowed everywhere. The argument buffer is
		// reused across calls — plans are not safe for concurrent use.
		scratch := make([]value.Value, len(args))
		return func(c *Ctx) (value.Value, error) {
			if err := evalArgsInto(args, c, scratch); err != nil {
				return value.Value{}, err
			}
			return fn.Call(nil, scratch)
		}, nil
	}
	if !ctx.sfuns {
		return nil, fmt.Errorf("gsql: stateful function %s not allowed in %s clause", e.Name, ctx.clause)
	}
	stKey := strings.ToLower(fn.State)
	idx, ok := b.stateIdx[stKey]
	if !ok {
		st, found := b.reg.State(fn.State)
		if !found {
			return nil, fmt.Errorf("gsql: function %s references unknown state %q", e.Name, fn.State)
		}
		idx = len(b.plan.States)
		b.plan.States = append(b.plan.States, StateDef{Type: st})
		b.stateIdx[stKey] = idx
	}
	stateIdx := idx
	fname := fn.Name
	stateName := fn.State
	scratch := make([]value.Value, len(args))
	return func(c *Ctx) (value.Value, error) {
		if err := evalArgsInto(args, c, scratch); err != nil {
			return value.Value{}, err
		}
		if stateIdx >= len(c.States) {
			return value.Value{}, fmt.Errorf("gsql: state context missing for %s", fname)
		}
		v, err := fn.Call(c.States[stateIdx], scratch)
		if c.Trace != nil {
			c.Trace(fname, stateName, v, err)
		}
		return v, err
	}, nil
}

// evalArgsInto evaluates each argument into dst (len(dst) == len(args)).
func evalArgsInto(args []Compiled, c *Ctx, dst []value.Value) error {
	for i, a := range args {
		v, err := a(c)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// isOrderedExpr reports whether e is a monotone function of ordered
// (increasing) stream attributes: built only from increasing fields,
// literals, unary minus and the operators + - * /. Such expressions change
// value only at window boundaries.
func isOrderedExpr(e Expr, schema *tuple.Schema) bool {
	sawOrdered := false
	var walk func(Expr) bool
	walk = func(e Expr) bool {
		switch e := e.(type) {
		case *Lit:
			return true
		case *Ident:
			i, ok := schema.Lookup(e.Name)
			if !ok {
				return false
			}
			if schema.Field(i).Ordering != tuple.Increasing {
				return false
			}
			sawOrdered = true
			return true
		case *Unary:
			return e.Op == "-" && walk(e.X)
		case *Binary:
			switch e.Op {
			case "+", "-", "*", "/":
				return walk(e.L) && walk(e.R)
			}
			return false
		}
		return false
	}
	return walk(e) && sawOrdered
}
