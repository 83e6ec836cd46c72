package gsql

// Vectorized expression evaluation for the batch-columnar hot path.
//
// Vectorize recompiles a plan's per-tuple clauses (GROUP BY, WHERE,
// aggregate arguments, CLEANING WHEN) from their ASTs into column
// kernels that evaluate a whole tuple.Batch per call instead of walking
// the Compiled closure tree once per tuple. The closure tree is the
// measured bottleneck of row-at-a-time evaluation — per-row field loads,
// constant closures and value boxing cost more than the sampling
// algorithm itself — so the kernels here work directly on raw column words
// (Column.Bits) whenever a column is kind-uniform, falling back to
// per-row generic evaluation (and ultimately to the closures) when it
// is not.
//
// Exactness rules, which the operator's batch driver relies on:
//
//   - Stateless vectorized evaluation is mutation-free. Any error it
//     returns (division by an integer zero, non-numeric arithmetic) is a
//     signal to run the whole batch in the operator's closure mode, which
//     reproduces the closures' semantics bit-for-bit — including
//     errors that short-circuit evaluation would have skipped.
//   - Stateful functions are never evaluated eagerly. A WHERE or CLEANING
//     WHEN of the form sfun(args...) [= TRUE] with stateless arguments
//     compiles to a VecCall: the argument columns are pre-evaluated
//     (mutation-free), and the driver makes the mutating calls in row
//     order, each a Scan over a run of rows (sfun.ScanFunc; every stateful
//     function has one), exactly as the closure would.
//   - Anything outside this subset makes Vectorize report ok=false and
//     the operator runs the whole plan in closure mode.
//
// Provenance tracing observes a stateful call the same way on both paths:
// the closures report it to Ctx.Trace, and VecCall and GroupCall carry the
// function and state names (sfunCall) for the operator to report, to the
// same hook, what a scan decided for each traced row or group it covered.
// A traced row runs the kernels and the scans its batch runs.

import (
	"math"
	mbits "math/bits"
	"strings"

	"streamop/internal/agg"
	"streamop/internal/sfun"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// VecEnv is the reusable per-batch evaluation environment: the input
// batch, the group-by result columns (for WHERE clauses referencing
// group-by variables) and a pool of intermediate columns recycled across
// batches. A VecEnv is single-threaded, like the Plan it evaluates.
type VecEnv struct {
	in   *tuple.Batch
	gb   []*tuple.Column
	n    int
	pool []*tuple.Column
	used int
	// sel, when non-nil, narrows the batch to its rows at these positions
	// (see Restrict); selCols caches the stream columns gathered so far.
	sel     []int32
	selCols []*tuple.Column
	// float conversion scratch for promoted arithmetic
	fa, fb []float64
}

// Reset points the environment at a new batch, recycling all pooled
// intermediate columns.
func (e *VecEnv) Reset(in *tuple.Batch) {
	e.in, e.gb, e.n, e.used, e.sel = in, nil, in.Len(), 0, nil
}

// Restrict narrows the environment to the rows of the current batch at the
// ascending positions sel: kernels evaluated from here on see len(sel)
// rows, and a stream column is gathered the first time one refers to it. A
// selection plan evaluates its SELECT list this way, over the rows WHERE
// kept. Columns evaluated before the call keep their full length; group-by
// columns are not narrowed.
func (e *VecEnv) Restrict(sel []int32) {
	e.sel, e.n = sel, len(sel)
	e.selCols = append(e.selCols[:0], make([]*tuple.Column, e.in.NumCols())...)
}

// inCol returns stream column i as the kernels should see it: the batch's
// own column, or its rows at sel once the environment is restricted.
func (e *VecEnv) inCol(i int) *tuple.Column {
	c := e.in.Col(i)
	if e.sel == nil {
		return c
	}
	if g := e.selCols[i]; g != nil {
		return g
	}
	g := e.alloc()
	g.Gather(c, e.sel)
	e.selCols[i] = g
	return g
}

// SetGroupCols attaches the batch's evaluated group-by columns, making
// group-by variables resolvable (WHERE clauses reference them). It does
// not recycle the pool: gb columns typically live there, and later
// kernels must not clobber them.
func (e *VecEnv) SetGroupCols(gb []*tuple.Column) { e.gb = gb }

// N returns the row count of the current batch.
func (e *VecEnv) N() int { return e.n }

func (e *VecEnv) alloc() *tuple.Column {
	if e.used < len(e.pool) {
		c := e.pool[e.used]
		e.used++
		c.Reset()
		return c
	}
	c := &tuple.Column{}
	e.pool = append(e.pool, c)
	e.used++
	return c
}

func (e *VecEnv) floatScratch(n int) ([]float64, []float64) {
	if cap(e.fa) < n {
		e.fa = make([]float64, n)
		e.fb = make([]float64, n)
	}
	return e.fa[:n], e.fb[:n]
}

// vecVal is a kernel operand/result: either a column or a broadcast
// literal.
type vecVal struct {
	col *tuple.Column // nil for a literal
	lit value.Value
	// litBits is lit's payload as a one-word slice, built once when a
	// query literal compiles so that numericOperand allocates nothing per
	// batch; nil for literals computed at run time.
	litBits []uint64
}

func (v vecVal) valueAt(i int) value.Value {
	if v.col != nil {
		return v.col.Value(i)
	}
	return v.lit
}

// truthFn returns a per-row Truth accessor for v.
func (v vecVal) truthFn() func(i int) bool {
	if v.col == nil {
		t := v.lit.Truth()
		return func(int) bool { return t }
	}
	kinds, bits := v.col.Kinds(), v.col.Bits()
	if k, ok := v.col.Uniform(); ok && k == value.Bool {
		return func(i int) bool { return bits[i] != 0 }
	}
	return func(i int) bool { return kinds[i] == value.Bool && bits[i] != 0 }
}

// operand flattens a vecVal for raw-word loops: bits[i*stride] is row
// i's payload (stride 0 broadcasts a literal).
type vecOperand struct {
	kind   value.Kind
	bits   []uint64
	stride int
}

// numericOperand extracts a raw-word view of v if v is numeric and (for
// columns) kind-uniform; ok=false sends the caller to the generic path.
func numericOperand(v vecVal) (vecOperand, bool) {
	if v.col == nil {
		if !v.lit.Kind().Numeric() {
			return vecOperand{}, false
		}
		bits := v.litBits
		if bits == nil {
			bits = []uint64{v.lit.Bits()}
		}
		return vecOperand{kind: v.lit.Kind(), bits: bits, stride: 0}, true
	}
	k, ok := v.col.Uniform()
	if !ok || !k.Numeric() {
		return vecOperand{}, false
	}
	return vecOperand{kind: k, bits: v.col.Bits(), stride: 1}, true
}

// toFloats converts an operand's rows into dst following Value.AsFloat.
func (o vecOperand) toFloats(n int, dst []float64) {
	switch o.kind {
	case value.Int:
		for i, j := 0, 0; i < n; i, j = i+1, j+o.stride {
			dst[i] = float64(int64(o.bits[j]))
		}
	case value.Uint:
		for i, j := 0, 0; i < n; i, j = i+1, j+o.stride {
			dst[i] = float64(o.bits[j])
		}
	case value.Float:
		for i, j := 0, 0; i < n; i, j = i+1, j+o.stride {
			dst[i] = math.Float64frombits(o.bits[j])
		}
	}
}

// vecFn evaluates one expression node over the current batch. Errors
// abort vectorized evaluation; since stateless evaluation never mutates
// engine state, the caller falls back to closure mode on error.
type vecFn func(e *VecEnv) (vecVal, error)

// VecExpr is a compiled vectorized expression.
type VecExpr struct {
	f vecFn
}

// EvalCol evaluates the expression over the current batch and returns
// the result as a column (broadcasting literal results).
func (x *VecExpr) EvalCol(env *VecEnv) (*tuple.Column, error) {
	v, err := x.f(env)
	if err != nil {
		return nil, err
	}
	if v.col != nil {
		return v.col, nil
	}
	out := env.alloc()
	k := v.lit.Kind()
	if k == value.String || k == value.Null {
		for i := 0; i < env.n; i++ {
			out.AppendValue(v.lit)
		}
		return out, nil
	}
	bits := out.SetUniform(k, env.n)
	w := v.lit.Bits()
	for i := range bits {
		bits[i] = w
	}
	return out, nil
}

// EvalTruth evaluates the expression as a predicate, marking in m the
// rows whose result is a true Bool — exactly Value.Truth per row. m is
// resized to the batch and returned.
func (x *VecExpr) EvalTruth(env *VecEnv, m tuple.Bitmap) (tuple.Bitmap, error) {
	v, err := x.f(env)
	if err != nil {
		return m, err
	}
	m = m.Resize(env.n)
	if v.col == nil {
		if v.lit.Truth() {
			m.SetAll(env.n)
		}
		return m, nil
	}
	kinds, bits := v.col.Kinds(), v.col.Bits()
	if k, ok := v.col.Uniform(); ok && k == value.Bool {
		for i, b := range bits {
			if b != 0 {
				m.Set(i)
			}
		}
		return m, nil
	}
	for i := range kinds {
		if kinds[i] == value.Bool && bits[i] != 0 {
			m.Set(i)
		}
	}
	return m, nil
}

// VecCall is the semi-stateful fast path for WHERE/CLEANING WHEN clauses
// of the form sfun(args...) [= TRUE]: argument columns are pre-evaluated
// per batch (mutation-free), and the driver makes the mutating calls in
// row order against the supergroup's state — the same sequence of state
// mutations as the scalar closure, minus the closure tree. The function's
// Scan (sfun.ScanFunc) reads the columns themselves, a run of rows per
// call.
type VecCall struct {
	sfunCall
	args    []vecFn         // nil entries are superaggregate references
	scratch []value.Value   // constant arguments; the scan's boxed row
	cols    []*tuple.Column // column-backed arguments, nil for constants
	// superArgs maps argument positions to Plan.Supers indices, read
	// fresh at each call (the superaggregate advances row by row). Only
	// CLEANING WHEN admits them, mirroring the scalar clause rules.
	superArgs []superArgRef
}

type superArgRef struct{ arg, super int }

// sfunCall is the stateful function a VecCall or GroupCall makes.
type sfunCall struct {
	// StateIdx indexes Plan.States / the supergroup's state slice.
	StateIdx int
	// Fn and State are the function's and its state family's names, as
	// the closures report them to Ctx.Trace.
	Fn, State string

	scan sfun.ScanFunc
}

// EvalArgs evaluates the call's stateless arguments over the current
// batch. Mutation-free; on error the caller falls back to closure mode.
// Superaggregate-reference arguments are not touched here — their value
// is read at each call.
func (vc *VecCall) EvalArgs(env *VecEnv) error {
	for i, f := range vc.args {
		if f == nil {
			continue
		}
		v, err := f(env)
		if err != nil {
			return err
		}
		vc.cols[i] = v.col
		if v.col == nil {
			vc.scratch[i] = v.lit
		}
	}
	return nil
}

// Scan runs the predicate over rows [from, to) against states and supers
// (the supergroup's state and superaggregate slices; supers may be nil
// when the call has no superaggregate arguments) and returns the first
// row that passes, or to (see sfun.ScanFunc). Callers must proceed in row
// order.
func (vc *VecCall) Scan(states []any, supers []agg.Super, from, to int) (int, error) {
	for _, sr := range vc.superArgs {
		vc.scratch[sr.arg] = supers[sr.super].Value()
	}
	return vc.scan(states[vc.StateIdx], sfun.Args{Vals: vc.scratch, Cols: vc.cols}, from, to)
}

// GroupCall is the semi-stateful fast path of the per-group clauses,
// CLEANING BY and HAVING: for clauses of the form sfun(args...) [= TRUE]
// whose arguments are aggregate references, literal constants or (HAVING
// only) superaggregate references, per-group evaluation reduces to reading
// the group's aggregate values and making the call — the same state
// mutations and results as the scalar closure tree, minus the tree. Over a
// pass of a supergroup's groups (Pass), the function's Scan runs over runs
// of groups, its aggregate arguments gathered into columns a chunk of
// groups at a time.
type GroupCall struct {
	sfunCall
	argAggs   []int // >= 0: argument i reads Plan.Aggs[idx]; -1: constant or superaggregate
	superArgs []superArgRef
	scratch   []value.Value   // constants and superaggregates; the scan's boxed group
	cols      []*tuple.Column // the aggregate arguments over groups [base, base+n), nil for the rest

	// The pass: the aggregate columns, the groups' slots in them, and the
	// chunk of groups gathered into cols.
	aggs    []agg.Column
	slots   []int32
	base, n int
}

// gatherRows is the most groups a pass gathers into its columns at once.
const gatherRows = tuple.DefaultBatchRows

// Pass starts a pass over the groups at slots of the aggregate columns
// aggs, whose superaggregates are supers: they hold still until the pass
// ends, and the groups are visited in order. Scan addresses them by
// position in slots.
func (gc *GroupCall) Pass(aggs []agg.Column, slots []int32, supers []agg.Super) {
	gc.aggs, gc.slots, gc.base, gc.n = aggs, slots, 0, 0
	for _, sr := range gc.superArgs {
		gc.scratch[sr.arg] = supers[sr.super].Value()
	}
}

// Scan runs the predicate over the pass's groups [from, to) against states
// (the supergroup's state slice) and returns the position of the first
// group that passes, or to (see sfun.ScanFunc).
func (gc *GroupCall) Scan(states []any, from, to int) (int, error) {
	for from < to {
		if from < gc.base || from >= gc.base+gc.n {
			gc.gather(from)
		}
		end := min(to, gc.base+gc.n)
		pass, err := gc.scan(states[gc.StateIdx], sfun.Args{Vals: gc.scratch, Cols: gc.cols}, from-gc.base, end-gc.base)
		if pass += gc.base; err != nil || pass < end {
			return pass, err
		}
		from = end
	}
	return to, nil
}

// gather fills the columns with the aggregate arguments of the groups
// from position from on, up to gatherRows of them. (A cleaning pass
// rewrites the slots behind the group it visits, never those ahead.)
func (gc *GroupCall) gather(from int) {
	slots := gc.slots[from:min(from+gatherRows, len(gc.slots))]
	gc.base, gc.n = from, len(slots)
	for i, idx := range gc.argAggs {
		if idx >= 0 {
			gc.cols[i].Reset()
			agg.Gather(gc.cols[i], gc.aggs[idx], slots)
		}
	}
}

// VecPlan is the vectorized form of a plan's per-tuple clauses. For a
// sampling plan, fields left nil keep their scalar counterparts (the
// driver materializes a row context for them). A selection plan has only
// Where or WhereCall and Select, and vectorizes whole or not at all.
type VecPlan struct {
	// GroupBy has one kernel per Plan.GroupBy item.
	GroupBy []*VecExpr
	// Select has one kernel per Plan.SelectExprs item of a selection plan
	// (nil for sampling plans, whose SELECT runs per output group).
	Select []*VecExpr
	// Where is the stateless WHERE kernel; WhereCall the semi-stateful
	// one. At most one is non-nil; both nil means WHERE is absent.
	Where     *VecExpr
	WhereCall *VecCall
	// AggArgs/SuperArgs align with Plan.Aggs/Plan.Supers; nil entries
	// have no argument (count(*)) — NeedRowCtx distinguishes the
	// not-vectorizable case.
	AggArgs   []*VecExpr
	SuperArgs []*VecExpr
	// CleanWhenCall is the semi-stateful CLEANING WHEN fast path, nil if
	// the clause is absent or needs the scalar closure.
	CleanWhenCall *VecCall
	// CleanByCall and HavingCall are the per-group CLEANING BY and HAVING
	// fast paths, nil if the clause is absent or needs the scalar closure.
	// Unlike the per-tuple fields they are advisory: the operator's
	// cleaning and flush passes are per group, so a nil one never forces
	// NeedRowCtx.
	CleanByCall *GroupCall
	HavingCall  *GroupCall
	// NeedRowCtx is true when some post-admission clause still runs a
	// scalar closure (an aggregate argument that is itself stateful, a
	// CLEANING WHEN referencing aggregates, ...), so the driver must
	// materialize Ctx.Tuple/Ctx.GroupVals for accepted rows.
	NeedRowCtx bool
}

// vecCtx mirrors the name-resolution rules of the scalar exprCtx.
type vecCtx struct {
	tuple     bool
	groupVars bool
	// supers admits superaggregate references as stateful-call arguments
	// (CLEANING WHEN only, like the scalar clause rules).
	supers bool
}

type vectorizer struct {
	p *Plan
}

// Vectorize compiles p's per-tuple clauses into column kernels. ok=false
// means some clause essential to the batch driver (GROUP BY, WHERE, a
// selection plan's SELECT list) falls outside the vectorizable subset and
// the operator runs the plan in closure mode.
func Vectorize(p *Plan) (*VecPlan, bool) {
	v := &vectorizer{p: p}
	if p.IsSelection {
		return v.selection()
	}
	if len(p.GroupBy) == 0 {
		return nil, false
	}
	vp := &VecPlan{}
	gbCtx := vecCtx{tuple: true}
	for _, item := range p.Query.GroupBy {
		f, ok := v.compile(item.Expr, gbCtx)
		if !ok {
			return nil, false
		}
		vp.GroupBy = append(vp.GroupBy, &VecExpr{f: f})
	}
	whereCtx := vecCtx{tuple: true, groupVars: true}
	if p.Query.Where != nil {
		if f, ok := v.compile(p.Query.Where, whereCtx); ok {
			vp.Where = &VecExpr{f: f}
		} else if vc, ok := v.compileVecCall(p.Query.Where, whereCtx); ok {
			vp.WhereCall = vc
		} else {
			return nil, false
		}
	}
	argCtx := vecCtx{tuple: true, groupVars: true}
	vp.AggArgs = make([]*VecExpr, len(p.Aggs))
	for i, def := range p.Aggs {
		if def.ArgExpr == nil {
			continue
		}
		if f, ok := v.compile(def.ArgExpr, argCtx); ok {
			vp.AggArgs[i] = &VecExpr{f: f}
		} else {
			vp.NeedRowCtx = true
		}
	}
	vp.SuperArgs = make([]*VecExpr, len(p.Supers))
	for i, def := range p.Supers {
		if def.ArgExpr == nil {
			continue
		}
		if f, ok := v.compile(def.ArgExpr, argCtx); ok {
			vp.SuperArgs[i] = &VecExpr{f: f}
		} else {
			vp.NeedRowCtx = true
		}
	}
	if p.Query.CleaningWhen != nil {
		cleanCtx := vecCtx{tuple: true, groupVars: true, supers: true}
		if vc, ok := v.compileVecCall(p.Query.CleaningWhen, cleanCtx); ok {
			vp.CleanWhenCall = vc
		} else {
			vp.NeedRowCtx = true
		}
	}
	if p.Query.CleaningBy != nil {
		if gc, ok := v.compileGroupCall(p.Query.CleaningBy, false); ok {
			vp.CleanByCall = gc
		}
	}
	if p.Query.Having != nil {
		// HAVING runs once the window's superaggregates hold still; a
		// cleaning evicts groups, which moves them.
		if gc, ok := v.compileGroupCall(p.Query.Having, true); ok {
			vp.HavingCall = gc
		}
	}
	return vp, true
}

// selection vectorizes a selection plan: WHERE as a stateless mask kernel
// or the semi-stateful call form, every SELECT item as a stateless column
// kernel (a stateful function in the SELECT list keeps closure mode).
func (v *vectorizer) selection() (*VecPlan, bool) {
	vp := &VecPlan{}
	ctx := vecCtx{tuple: true}
	if w := v.p.Query.Where; w != nil {
		if f, ok := v.compile(w, ctx); ok {
			vp.Where = &VecExpr{f: f}
		} else if vc, ok := v.compileVecCall(w, ctx); ok {
			vp.WhereCall = vc
		} else {
			return nil, false
		}
	}
	for _, item := range v.p.Query.Select {
		f, ok := v.compile(item.Expr, ctx)
		if !ok {
			return nil, false
		}
		vp.Select = append(vp.Select, &VecExpr{f: f})
	}
	return vp, true
}

// statefulCall matches the semi-stateful predicate shape: a stateful
// function call, optionally wrapped as `call = TRUE` / `TRUE = call`
// (equivalent to Truth of the call result, since the call's Bool verdict
// compares equal to TRUE exactly when it is true). It resolves the
// function and its state slot.
func (v *vectorizer) statefulCall(e Expr) (*Call, sfunCall, bool) {
	if bin, ok := e.(*Binary); ok && bin.Op == "=" {
		if lit, ok := bin.R.(*Lit); ok && lit.Val.Kind() == value.Bool && lit.Val.Truth() {
			e = bin.L
		} else if lit, ok := bin.L.(*Lit); ok && lit.Val.Kind() == value.Bool && lit.Val.Truth() {
			e = bin.R
		}
	}
	call, isCall := e.(*Call)
	if !isCall {
		return nil, sfunCall{}, false
	}
	f, found := v.p.reg.Func(call.Name)
	if !found || f.State == "" {
		return nil, sfunCall{}, false
	}
	for i, st := range v.p.States {
		if st.Type != nil && strings.EqualFold(st.Type.Name, f.State) {
			return call, sfunCall{StateIdx: i, Fn: f.Name, State: f.State, scan: f.Scan}, true
		}
	}
	return nil, sfunCall{}, false
}

// superIndexOf resolves e as a reference to a registered superaggregate
// (matched by display string, the same key the scalar binder dedups on).
func (v *vectorizer) superIndexOf(e Expr) (int, bool) {
	c, ok := e.(*Call)
	if !ok {
		return 0, false
	}
	key := strings.ToLower(c.String())
	for i := range v.p.Supers {
		if strings.ToLower(v.p.Supers[i].Display) == key {
			return i, true
		}
	}
	return 0, false
}

// aggIndexOf resolves e as a reference to a registered aggregate.
func (v *vectorizer) aggIndexOf(e Expr) (int, bool) {
	c, ok := e.(*Call)
	if !ok {
		return 0, false
	}
	key := strings.ToLower(c.String())
	for i := range v.p.Aggs {
		if strings.ToLower(v.p.Aggs[i].Display) == key {
			return i, true
		}
	}
	return 0, false
}

// compileVecCall compiles a semi-stateful predicate whose arguments are
// stateless-vectorizable expressions — or, when ctx.supers allows,
// superaggregate references read fresh at each per-row call.
func (v *vectorizer) compileVecCall(e Expr, ctx vecCtx) (*VecCall, bool) {
	call, sc, ok := v.statefulCall(e)
	if !ok {
		return nil, false
	}
	vc := &VecCall{sfunCall: sc}
	for _, a := range call.Args {
		if f, ok := v.compile(a, ctx); ok {
			vc.args = append(vc.args, f)
			continue
		}
		if ctx.supers {
			if idx, ok := v.superIndexOf(a); ok {
				vc.superArgs = append(vc.superArgs, superArgRef{arg: len(vc.args), super: idx})
				vc.args = append(vc.args, nil)
				continue
			}
		}
		return nil, false
	}
	vc.scratch = make([]value.Value, len(vc.args))
	vc.cols = make([]*tuple.Column, len(vc.args))
	return vc, true
}

// compileGroupCall compiles a per-group fast path: a stateful call whose
// arguments are aggregate references, literal constants or, when supers
// allows, superaggregate references.
func (v *vectorizer) compileGroupCall(e Expr, supers bool) (*GroupCall, bool) {
	call, sc, ok := v.statefulCall(e)
	if !ok {
		return nil, false
	}
	gc := &GroupCall{sfunCall: sc}
	gc.scratch = make([]value.Value, len(call.Args))
	gc.cols = make([]*tuple.Column, len(call.Args))
	for i, a := range call.Args {
		if lit, ok := a.(*Lit); ok {
			gc.argAggs = append(gc.argAggs, -1)
			gc.scratch[i] = lit.Val
			continue
		}
		if idx, ok := v.aggIndexOf(a); ok {
			gc.argAggs = append(gc.argAggs, idx)
			gc.cols[i] = new(tuple.Column)
			continue
		}
		if idx, ok := v.superIndexOf(a); ok && supers {
			gc.argAggs = append(gc.argAggs, -1)
			gc.superArgs = append(gc.superArgs, superArgRef{arg: i, super: idx})
			continue
		}
		return nil, false
	}
	return gc, true
}

// compile lowers e to a stateless column kernel; ok=false when e is
// outside the vectorizable subset (stateful/aggregate/superaggregate
// references, unknown constructs).
func (v *vectorizer) compile(e Expr, ctx vecCtx) (vecFn, bool) {
	switch e := e.(type) {
	case *Lit:
		lit := vecVal{lit: e.Val, litBits: []uint64{e.Val.Bits()}}
		return func(*VecEnv) (vecVal, error) { return lit, nil }, true

	case *Ident:
		// Resolution order mirrors the scalar compiler: group-by
		// variable first, then stream column.
		if ctx.groupVars {
			if i, ok := groupVarIndex(v.p.Query, e.Name); ok {
				return func(env *VecEnv) (vecVal, error) {
					return vecVal{col: env.gb[i]}, nil
				}, true
			}
		}
		if ctx.tuple {
			if i, ok := v.p.Schema.Lookup(e.Name); ok {
				return func(env *VecEnv) (vecVal, error) {
					return vecVal{col: env.inCol(i)}, nil
				}, true
			}
		}
		return nil, false

	case *Unary:
		x, ok := v.compile(e.X, ctx)
		if !ok {
			return nil, false
		}
		if e.Op == "NOT" {
			return func(env *VecEnv) (vecVal, error) {
				xv, err := x(env)
				if err != nil {
					return vecVal{}, err
				}
				return notKernel(env, xv), nil
			}, true
		}
		return func(env *VecEnv) (vecVal, error) {
			xv, err := x(env)
			if err != nil {
				return vecVal{}, err
			}
			return negKernel(env, xv)
		}, true

	case *Binary:
		l, ok := v.compile(e.L, ctx)
		if !ok {
			return nil, false
		}
		r, ok := v.compile(e.R, ctx)
		if !ok {
			return nil, false
		}
		switch e.Op {
		case "AND", "OR":
			and := e.Op == "AND"
			return func(env *VecEnv) (vecVal, error) {
				lv, err := l(env)
				if err != nil {
					return vecVal{}, err
				}
				rv, err := r(env)
				if err != nil {
					return vecVal{}, err
				}
				return logicKernel(env, lv, rv, and), nil
			}, true
		case "=", "<>", "<", "<=", ">", ">=":
			op := e.Op
			return func(env *VecEnv) (vecVal, error) {
				lv, err := l(env)
				if err != nil {
					return vecVal{}, err
				}
				rv, err := r(env)
				if err != nil {
					return vecVal{}, err
				}
				return cmpKernel(env, op, lv, rv), nil
			}, true
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
			return func(env *VecEnv) (vecVal, error) {
				lv, err := l(env)
				if err != nil {
					return vecVal{}, err
				}
				rv, err := r(env)
				if err != nil {
					return vecVal{}, err
				}
				return arithKernel(env, op, lv, rv)
			}, true
		}
		return nil, false

	case *Call:
		return v.compileStatelessCall(e, ctx)
	}
	return nil, false
}

// compileStatelessCall vectorizes a pure scalar function by per-row
// invocation over pre-evaluated argument values — no closure tree, but
// still one Call per row.
func (v *vectorizer) compileStatelessCall(e *Call, ctx vecCtx) (vecFn, bool) {
	fn, ok := v.p.reg.Func(e.Name)
	if !ok || fn.State != "" {
		return nil, false
	}
	args := make([]vecFn, len(e.Args))
	for i, a := range e.Args {
		f, ok := v.compile(a, ctx)
		if !ok {
			return nil, false
		}
		args[i] = f
	}
	call := fn.Call
	vals := make([]vecVal, len(args))
	scratch := make([]value.Value, len(args))
	return func(env *VecEnv) (vecVal, error) {
		colArgs := false
		for i, f := range args {
			av, err := f(env)
			if err != nil {
				return vecVal{}, err
			}
			vals[i] = av
			if av.col == nil {
				scratch[i] = av.lit
			} else {
				colArgs = true
			}
		}
		if !colArgs && env.n > 0 {
			// Constant arguments: one call, broadcast (pure function).
			res, err := call(nil, scratch)
			if err != nil {
				return vecVal{}, err
			}
			return vecVal{lit: res}, nil
		}
		out := env.alloc()
		out.SetUniform(value.Null, env.n)
		for i := 0; i < env.n; i++ {
			for j := range vals {
				if vals[j].col != nil {
					scratch[j] = vals[j].col.Value(i)
				}
			}
			res, err := call(nil, scratch)
			if err != nil {
				return vecVal{}, err
			}
			out.SetValue(i, res)
		}
		return vecVal{col: out}, nil
	}, true
}

// notKernel computes NOT x: NewBool(!Truth(x)) per row.
func notKernel(env *VecEnv, x vecVal) vecVal {
	if x.col == nil {
		return vecVal{lit: value.NewBool(!x.lit.Truth())}
	}
	out := env.alloc()
	bits := out.SetUniform(value.Bool, env.n)
	truth := x.truthFn()
	for i := range bits {
		if !truth(i) {
			bits[i] = 1
		}
	}
	return vecVal{col: out}
}

// negKernel computes -x with value.Neg semantics (Uint negates as Int).
func negKernel(env *VecEnv, x vecVal) (vecVal, error) {
	if x.col == nil {
		res, err := value.Neg(x.lit)
		if err != nil {
			return vecVal{}, err
		}
		return vecVal{lit: res}, nil
	}
	out := env.alloc()
	if k, ok := x.col.Uniform(); ok && k.Numeric() {
		in := x.col.Bits()
		if k == value.Float {
			bits := out.SetUniform(value.Float, env.n)
			for i, w := range in {
				bits[i] = math.Float64bits(-math.Float64frombits(w))
			}
		} else {
			bits := out.SetUniform(value.Int, env.n)
			for i, w := range in {
				bits[i] = uint64(-int64(w))
			}
		}
		return vecVal{col: out}, nil
	}
	out.SetUniform(value.Null, env.n)
	for i := 0; i < env.n; i++ {
		res, err := value.Neg(x.col.Value(i))
		if err != nil {
			return vecVal{}, err
		}
		out.SetValue(i, res)
	}
	return vecVal{col: out}, nil
}

// logicKernel computes x AND/OR y. Both sides are already evaluated —
// scalar short-circuiting is observable only through errors, and any
// vectorized error falls back to closure mode, which re-applies the
// exact short-circuit semantics.
func logicKernel(env *VecEnv, l, r vecVal, and bool) vecVal {
	if l.col == nil && r.col == nil {
		lt, rt := l.lit.Truth(), r.lit.Truth()
		if and {
			return vecVal{lit: value.NewBool(lt && rt)}
		}
		return vecVal{lit: value.NewBool(lt || rt)}
	}
	out := env.alloc()
	bits := out.SetUniform(value.Bool, env.n)
	lt, rt := l.truthFn(), r.truthFn()
	if and {
		for i := range bits {
			if lt(i) && rt(i) {
				bits[i] = 1
			}
		}
	} else {
		for i := range bits {
			if lt(i) || rt(i) {
				bits[i] = 1
			}
		}
	}
	return vecVal{col: out}
}

// cmpTest maps a comparison operator to its verdict on Compare's result.
func cmpTest(op string) func(int) bool {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }
	case "<>":
		return func(c int) bool { return c != 0 }
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	}
	return func(c int) bool { return c >= 0 }
}

// cmpKernel computes a comparison, producing a Bool column. Comparison
// is total (value.Compare), so it never errors.
func cmpKernel(env *VecEnv, op string, l, r vecVal) vecVal {
	test := cmpTest(op)
	if l.col == nil && r.col == nil {
		return vecVal{lit: value.NewBool(test(value.Compare(l.lit, r.lit)))}
	}
	out := env.alloc()
	bits := out.SetUniform(value.Bool, env.n)
	lo, lok := numericOperand(l)
	ro, rok := numericOperand(r)
	if lok && rok && lo.kind == ro.kind {
		// Same-kind typed loops; mixed kinds use Compare's exact
		// cross-kind rules below.
		switch lo.kind {
		case value.Int:
			for i, li, ri := 0, 0, 0; i < env.n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
				a, b := int64(lo.bits[li]), int64(ro.bits[ri])
				if test(cmp3(a, b)) {
					bits[i] = 1
				}
			}
			return vecVal{col: out}
		case value.Uint:
			for i, li, ri := 0, 0, 0; i < env.n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
				if test(cmp3(lo.bits[li], ro.bits[ri])) {
					bits[i] = 1
				}
			}
			return vecVal{col: out}
		case value.Float:
			for i, li, ri := 0, 0, 0; i < env.n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
				a, b := math.Float64frombits(lo.bits[li]), math.Float64frombits(ro.bits[ri])
				if test(cmp3(a, b)) {
					bits[i] = 1
				}
			}
			return vecVal{col: out}
		}
	}
	// Generic: totally ordered Compare per row, literals hoisted.
	switch {
	case l.col == nil:
		lv := l.lit
		for i := 0; i < env.n; i++ {
			if test(value.Compare(lv, r.col.Value(i))) {
				bits[i] = 1
			}
		}
	case r.col == nil:
		rv := r.lit
		for i := 0; i < env.n; i++ {
			if test(value.Compare(l.col.Value(i), rv)) {
				bits[i] = 1
			}
		}
	default:
		for i := 0; i < env.n; i++ {
			if test(value.Compare(l.col.Value(i), r.col.Value(i))) {
				bits[i] = 1
			}
		}
	}
	return vecVal{col: out}
}

func cmp3[T int64 | uint64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// arithKernel computes arithmetic with value.Arith's promotion rules:
// Float if either side is Float, else Uint if either side is Uint, else
// Int. Integer division/modulo by zero returns an error (the caller then
// falls back to closure mode, which reports it at the right row).
func arithKernel(env *VecEnv, op value.BinOp, l, r vecVal) (vecVal, error) {
	if l.col == nil && r.col == nil {
		res, err := value.Arith(op, l.lit, r.lit)
		if err != nil {
			return vecVal{}, err
		}
		return vecVal{lit: res}, nil
	}
	lo, lok := numericOperand(l)
	ro, rok := numericOperand(r)
	if !lok || !rok {
		return arithGeneric(env, op, l, r)
	}
	out := env.alloc()
	n := env.n
	if lo.kind == value.Float || ro.kind == value.Float {
		if op == value.OpMod {
			// % is not defined for float; defer to the generic path so
			// the error matches value.Arith's.
			return arithGeneric(env, op, l, r)
		}
		fa, fb := env.floatScratch(n)
		lo.toFloats(n, fa)
		ro.toFloats(n, fb)
		bits := out.SetUniform(value.Float, n)
		switch op {
		case value.OpAdd:
			for i := range bits {
				bits[i] = math.Float64bits(fa[i] + fb[i])
			}
		case value.OpSub:
			for i := range bits {
				bits[i] = math.Float64bits(fa[i] - fb[i])
			}
		case value.OpMul:
			for i := range bits {
				bits[i] = math.Float64bits(fa[i] * fb[i])
			}
		case value.OpDiv:
			for i := range bits {
				bits[i] = math.Float64bits(fa[i] / fb[i])
			}
		}
		return vecVal{col: out}, nil
	}
	if lo.kind == value.Uint || ro.kind == value.Uint {
		// Mixed Int operands convert via AsUint, which is the raw bits —
		// so all Uint-class ops work on the payload words directly.
		bits := out.SetUniform(value.Uint, n)
		switch op {
		case value.OpAdd:
			for i, li, ri := 0, 0, 0; i < n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
				bits[i] = lo.bits[li] + ro.bits[ri]
			}
		case value.OpSub:
			for i, li, ri := 0, 0, 0; i < n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
				bits[i] = lo.bits[li] - ro.bits[ri]
			}
		case value.OpMul:
			for i, li, ri := 0, 0, 0; i < n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
				bits[i] = lo.bits[li] * ro.bits[ri]
			}
		case value.OpDiv, value.OpMod:
			if ro.stride == 0 && op == value.OpDiv && ro.bits[0] > 1 {
				// Invariant divisor (broadcast literal): replace the per-row
				// hardware divide with a reciprocal multiply — exact by the
				// one-step remainder fixup. GROUP BY time/N runs this loop
				// for every tuple, making the divide the kernel's cost.
				d := ro.bits[0]
				m, _ := mbits.Div64(1, 0, d) // floor(2^64 / d); d > 1
				for i, li := 0, 0; i < n; i, li = i+1, li+lo.stride {
					x := lo.bits[li]
					q, _ := mbits.Mul64(x, m)
					if x-q*d >= d {
						q++
					}
					bits[i] = q
				}
				return vecVal{col: out}, nil
			}
			mod := op == value.OpMod
			for i, li, ri := 0, 0, 0; i < n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
				d := ro.bits[ri]
				if d == 0 {
					return arithGeneric(env, op, l, r)
				}
				if mod {
					bits[i] = lo.bits[li] % d
				} else {
					bits[i] = lo.bits[li] / d
				}
			}
		}
		return vecVal{col: out}, nil
	}
	// Both Int.
	bits := out.SetUniform(value.Int, n)
	switch op {
	case value.OpAdd:
		for i, li, ri := 0, 0, 0; i < n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
			bits[i] = lo.bits[li] + ro.bits[ri]
		}
	case value.OpSub:
		for i, li, ri := 0, 0, 0; i < n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
			bits[i] = lo.bits[li] - ro.bits[ri]
		}
	case value.OpMul:
		for i, li, ri := 0, 0, 0; i < n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
			bits[i] = lo.bits[li] * ro.bits[ri]
		}
	case value.OpDiv, value.OpMod:
		mod := op == value.OpMod
		for i, li, ri := 0, 0, 0; i < n; i, li, ri = i+1, li+lo.stride, ri+ro.stride {
			d := int64(ro.bits[ri])
			if d == 0 {
				return arithGeneric(env, op, l, r)
			}
			if mod {
				bits[i] = uint64(int64(lo.bits[li]) % d)
			} else {
				bits[i] = uint64(int64(lo.bits[li]) / d)
			}
		}
	}
	return vecVal{col: out}, nil
}

// arithGeneric applies value.Arith per row: the slow but exact path for
// mixed-kind columns, non-numeric rows and integer zero divisors. The
// first error aborts; the caller falls back to closure mode, which
// reproduces the error at the correct row.
func arithGeneric(env *VecEnv, op value.BinOp, l, r vecVal) (vecVal, error) {
	out := env.alloc()
	out.SetUniform(value.Null, env.n)
	switch {
	case l.col == nil:
		lv := l.lit
		for i := 0; i < env.n; i++ {
			res, err := value.Arith(op, lv, r.col.Value(i))
			if err != nil {
				return vecVal{}, err
			}
			out.SetValue(i, res)
		}
	case r.col == nil:
		rv := r.lit
		for i := 0; i < env.n; i++ {
			res, err := value.Arith(op, l.col.Value(i), rv)
			if err != nil {
				return vecVal{}, err
			}
			out.SetValue(i, res)
		}
	default:
		for i := 0; i < env.n; i++ {
			res, err := value.Arith(op, l.col.Value(i), r.col.Value(i))
			if err != nil {
				return vecVal{}, err
			}
			out.SetValue(i, res)
		}
	}
	return vecVal{col: out}, nil
}
